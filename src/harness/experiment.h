// Experiment harness: runs a (kernel × scheduler × bandwidth × machine)
// matrix on the PMH simulator, with the paper's measurement conventions —
// ≥N repetitions per cell, smallest and largest reading dropped (§5.3),
// active time and overhead reported separately (§3.3), plus exact simulated
// L3 miss counts.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "kernels/kernel.h"
#include "machine/topology.h"
#include "sched/registry.h"
#include "sim/engine.h"
#include "util/table.h"

namespace sbs::harness {

struct ExperimentSpec {
  std::string kernel;
  kernels::KernelParams params;
  std::vector<std::string> schedulers = {"WS", "PWS", "SB", "SB-D"};
  std::string machine = "xeon7560";
  /// Memory sockets in use per sweep point (paper: 4→100%, 3→75%, 2→50%,
  /// 1→25% bandwidth). Empty = one point with all sockets.
  std::vector<int> bandwidth_sockets;
  int repetitions = 3;
  std::uint64_t seed = 12345;
  /// Space-bounded scheduler knobs.
  sched::SpaceBounded::Options sb;
  int num_threads = -1;  ///< -1: all hardware threads of the machine
  /// Wrap every scheduler in verify::VerifyingScheduler and abort (with the
  /// checker's report) on any invariant violation. Serializes the scheduler
  /// callbacks — a correctness mode, not a timing mode.
  bool verify_invariants = false;

  /// Chrome Trace Event output: the first repetition of each cell is traced
  /// and written to this path, with "<scheduler>_<sockets>bw" inserted
  /// before the extension when the matrix has more than one cell.
  std::string trace_path;
  /// JSONL metrics output: one line per cell, appended in cell order.
  std::string metrics_path;
  /// Prefix for the per-cell labels in the metrics JSONL and the traces —
  /// Figure::run sets it to the group name (e.g. "sigma0.9") so cells from
  /// different RunExperiment calls stay distinguishable.
  std::string label_prefix;
};

/// Aggregated measurements of one (scheduler, bandwidth) cell.
struct CellResult {
  std::string scheduler;
  int bw_sockets = 0;
  int total_sockets = 0;

  // Trimmed means over repetitions, in seconds / counts.
  double active_s = 0;
  double overhead_s = 0;  ///< add + done + get + empty
  double empty_s = 0;
  double wall_s = 0;
  double llc_misses = 0;
  double llc_hits = 0;
  double dram_reads = 0;
  double queue_wait_cycles = 0;
  std::uint64_t strands = 0;
  /// Scheduler polls that returned no job (last repetition's total across
  /// workers) — the pressure on the engines' idle-backoff path.
  std::uint64_t empty_wakeups = 0;

  bool verified = true;
  std::string sched_stats;

  double bw_fraction() const {
    return total_sockets == 0
               ? 1.0
               : static_cast<double>(bw_sockets) /
                     static_cast<double>(total_sockets);
  }
};

/// Run the full matrix. Progress lines (one per cell) go to stderr when
/// `progress` is true. Cells are ordered bandwidth-major, scheduler-minor
/// (matching the paper's figure layout). The kernel's output is verified
/// after each cell's first repetition; a failure aborts.
std::vector<CellResult> RunExperiment(const ExperimentSpec& spec,
                                      bool progress = true);

/// Render results in the paper's figure layout: one row per
/// (bandwidth, scheduler) with active time, overhead, and L3 misses.
Table MakeFigureTable(const std::string& title,
                      const std::vector<CellResult>& results);

/// "out.json" + "SB_4bw" -> "out.SB_4bw.json" — insert a suffix before the
/// extension. RunExperiment and Figure::run use it to keep cells and groups
/// from overwriting each other's trace files.
std::string WithPathSuffix(const std::string& path, const std::string& suffix);

}  // namespace sbs::harness
