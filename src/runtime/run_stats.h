// Execution-time breakdown, per thread and aggregated (paper §3.3).
//
// Time is split into five components: active (program code), add, done, get
// (scheduler callback costs), and empty-queue (get returned nothing — the
// load-imbalance signal). The real engine fills these from wall-clock
// timers; the simulator fills them from virtual core clocks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace sbs::runtime {

struct ThreadBreakdown {
  double active_s = 0;
  double add_s = 0;
  double done_s = 0;
  double get_s = 0;
  double empty_s = 0;
  std::uint64_t strands = 0;  ///< strands executed by this thread
  /// get() calls that returned nothing (each one triggers an idle-backoff
  /// step on the real engine / an idle clock jump on the simulator).
  std::uint64_t empty_wakeups = 0;

  double overhead_s() const { return add_s + done_s + get_s + empty_s; }
  double total_s() const { return active_s + overhead_s(); }

  bool operator==(const ThreadBreakdown&) const = default;
};

struct RunStats {
  double wall_s = 0;  ///< wall clock (real) or makespan (virtual)
  std::vector<ThreadBreakdown> per_thread;

  /// Mean of `field` over *all* workers, including ones that stayed idle
  /// the whole run: an idle worker contributes 0 to the numerator but still
  /// counts in the denominator (the paper's §3.3 per-thread averages divide
  /// by the worker count, not by the count of busy workers — tested in
  /// test_runtime).
  double avg(double ThreadBreakdown::* field) const {
    if (per_thread.empty()) return 0;
    double sum = 0;
    for (const auto& t : per_thread) sum += t.*field;
    return sum / static_cast<double>(per_thread.size());
  }
  /// Worst single worker — max() / avg() of active time is the
  /// load-imbalance signal the trace metrics report.
  double max(double ThreadBreakdown::* field) const {
    double worst = 0;
    for (const auto& t : per_thread) worst = std::max(worst, t.*field);
    return worst;
  }
  /// Active time averaged over all threads — the paper's headline number.
  double avg_active_s() const { return avg(&ThreadBreakdown::active_s); }
  double max_active_s() const { return max(&ThreadBreakdown::active_s); }
  /// Worst-thread imbalance: max active / mean active (1.0 = perfectly
  /// even; 0 when no thread did any work).
  double imbalance() const {
    const double mean = avg_active_s();
    return mean == 0 ? 0 : max_active_s() / mean;
  }
  /// Average scheduler + load-imbalance overhead (add+done+get+empty).
  double avg_overhead_s() const {
    double sum = 0;
    for (const auto& t : per_thread) sum += t.overhead_s();
    return per_thread.empty() ? 0 : sum / static_cast<double>(per_thread.size());
  }
  double avg_empty_s() const { return avg(&ThreadBreakdown::empty_s); }
  std::uint64_t total_strands() const {
    std::uint64_t n = 0;
    for (const auto& t : per_thread) n += t.strands;
    return n;
  }
  /// Empty get() results across all workers — with idle backoff this stays
  /// modest even for long stalls (workers sleep instead of hammering get()).
  std::uint64_t total_empty_wakeups() const {
    std::uint64_t n = 0;
    for (const auto& t : per_thread) n += t.empty_wakeups;
    return n;
  }

  std::string summary() const;

  bool operator==(const RunStats&) const = default;
};

}  // namespace sbs::runtime
