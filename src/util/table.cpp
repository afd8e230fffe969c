#include "util/table.h"

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "util/assert.h"

namespace sbs {

void Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  SBS_CHECK_MSG(header_.empty() || row.size() == header_.size(),
                "row width must match header width");
  rows_.push_back(std::move(row));
}

std::string Table::to_string() const {
  // Column widths: max over header and all rows.
  std::size_t ncols = header_.size();
  for (const auto& r : rows_) ncols = std::max(ncols, r.size());
  std::vector<std::size_t> width(ncols, 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());
  };
  if (!header_.empty()) widen(header_);
  for (const auto& r : rows_) widen(r);

  std::ostringstream out;
  out << "== " << title_ << " ==\n";
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < ncols; ++c) {
      const std::string cell = c < row.size() ? row[c] : "";
      out << (c == 0 ? "" : "  ");
      // Left-align the first column (labels), right-align metrics.
      if (c == 0) {
        out << cell << std::string(width[c] - cell.size(), ' ');
      } else {
        out << std::string(width[c] - cell.size(), ' ') << cell;
      }
    }
    out << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < ncols; ++c) total += width[c] + (c ? 2 : 0);
    out << std::string(total, '-') << '\n';
  }
  for (const auto& r : rows_) emit(r);
  return out.str();
}

void Table::print() const { std::cout << to_string() << std::endl; }

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_millions(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*fM", precision, v / 1e6);
  return buf;
}

std::string fmt_seconds(double seconds, int precision) {
  char buf[64];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.*fus", precision, seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof buf, "%.*fms", precision, seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.*fs", precision, seconds);
  }
  return buf;
}

std::string fmt_percent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string fmt_bytes(std::uint64_t bytes) {
  char buf[64];
  if (bytes >= (1ULL << 30) && bytes % (1ULL << 30) == 0) {
    std::snprintf(buf, sizeof buf, "%llu GB",
                  static_cast<unsigned long long>(bytes >> 30));
  } else if (bytes >= (1ULL << 20) && bytes % (1ULL << 20) == 0) {
    std::snprintf(buf, sizeof buf, "%llu MB",
                  static_cast<unsigned long long>(bytes >> 20));
  } else if (bytes >= (1ULL << 10) && bytes % (1ULL << 10) == 0) {
    std::snprintf(buf, sizeof buf, "%llu KB",
                  static_cast<unsigned long long>(bytes >> 10));
  } else {
    std::snprintf(buf, sizeof buf, "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace sbs
