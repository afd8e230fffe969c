// Metric collection, sample statistics and in-memory spans for one
// benchmark run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds since an arbitrary fixed point of the steady clock.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values);
/// Nearest-rank quantile, q in (0, 1]. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Named metrics with units. `samples` is the number of measurements behind
/// a timing (1 for a single measurement or an exact count).
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 1);

  /// Human-readable table, one metric per line with its sample count.
  void Print() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultJson(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    std::uint64_t samples = 1;
  };
  std::map<std::string, Metric> metrics_;
};

/// Spans recorded by the benchmark around its calls into each layer. Kept
/// in memory and written once, at exit, as a Chrome trace. Spans of one
/// request (a sim op, a service job) share `request`.
class SpanLog {
 public:
  /// Record a finished span; returns its id for use as a child's parent.
  int Add(const std::string& name, double start_s, double end_s,
          int parent = -1, std::uint64_t request = 0);
  /// Set the end of a span recorded with an unknown end.
  void SetEnd(int id, double end_s) {
    spans_[static_cast<std::size_t>(id)].end_s = end_s;
  }
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    int parent;
    std::uint64_t request;
  };
  std::vector<Span> spans_;
};

/// Times one scope and records it into a SpanLog, if one is given. The
/// span is recorded when it opens, so children opened inside it can name it
/// as their parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent = -1,
             std::uint64_t request = 0)
      : log_(log), start_s_(NowS()) {
    if (log_ != nullptr) id_ = log_->Add(name, start_s_, start_s_, parent, request);
  }
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// End the span now; returns its host seconds. Later calls return the
  /// same duration.
  double Close();
  /// Id of the recorded span (-1 without a log).
  int id() const { return id_; }

 private:
  SpanLog* log_;
  double start_s_;
  double seconds_ = -1;
  int id_ = -1;
};

/// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench
