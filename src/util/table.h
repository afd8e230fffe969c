// ASCII table reporter for experiment output.
//
// Every bench binary prints a paper-style table (rows = scheduler /
// configuration, columns = metrics); the figure benches' BENCH_<name>.json
// holds the same cells for plotting. Cells are strings; numeric helpers
// format with sensible units.
#pragma once

#include <string>
#include <vector>

namespace sbs {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);

  /// Render as an aligned ASCII table.
  std::string to_string() const;

  /// Print to stdout.
  void print() const;

  const std::string& title() const { return title_; }
  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers used by bench binaries.
std::string fmt_double(double v, int precision = 3);
std::string fmt_millions(double v, int precision = 1);  // "54.9M"
std::string fmt_seconds(double seconds, int precision = 3);
std::string fmt_percent(double fraction, int precision = 1);  // 0.42 -> 42.0%
std::string fmt_bytes(std::uint64_t bytes);                   // "24 MB"

}  // namespace sbs
