#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

/// Text that reads back as the same double (17 significant digits).
std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Print() const {
  for (const auto& [name, m] : metrics_) {
    std::printf("%-32s %16.6g %-10s n=%llu\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

std::string Report::ResultJson(bool correct, std::uint64_t attempted,
                               std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += Quoted(name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quoted(m.unit) + "}";
  }
  return out + "}}";
}

int SpanLog::Add(const std::string& name, double start_s, double end_s,
                 int parent, std::uint64_t request) {
  spans_.push_back(Span{name, start_s, end_s, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0 : spans_.front().start_s;
  std::fputs("{\"traceEvents\": [", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"request\": %llu}}",
                 i == 0 ? "" : ",", Quoted(s.name).c_str(),
                 (s.start_s - origin) * 1e6, (s.end_s - s.start_s) * 1e6, i,
                 s.parent, static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double ScopedSpan::Close() {
  if (seconds_ < 0) {
    const double end_s = NowS();
    seconds_ = end_s - start_s_;
    if (log_ != nullptr) log_->SetEnd(id_, end_s);
  }
  return seconds_;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
