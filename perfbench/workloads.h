// The benchmark's workloads and the per-layer metric groups they report.
//
// Every run reports every metric of its mode: an untraced run the
// end-to-end set, a traced run the per-layer set. A layer group a workload
// does not exercise (the simulator on service-poisson, the service on the
// sim workloads) is reported as zeros by calling its emitter with empty
// data, so each layer's names are written in exactly one place.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "runtime/run_stats.h"
#include "sim/counters.h"
#include "timed_scheduler.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;       ///< tiny inputs: checks names, not numbers
  std::string spans_path;   ///< traced runs write their spans here
};

/// Op accounting for the result line.
struct Outcome {
  bool correct = true;  ///< every output verified, every gate held
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Wrong() { correct = false; }
  double ok_frac() const {
    return attempted == 0 ? 0
                          : 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted);
  }
};

/// The two schedulers every workload compares, in the paper's names.
inline const std::array<const char*, 2> kScheds = {"WS", "SB"};

/// Per-scheduler data for the sim.*, sched.*, runtime.* and trace.*
/// groups of a traced simulator run.
struct SimLayerData {
  std::uint64_t makespan = 0;
  sbs::sim::Counters counters;
  sbs::runtime::RunStats stats;
  SchedCallStats calls;               ///< one wrapped op (counts repeat)
  /// Wrapped ops with the recorder off: host seconds inside the callbacks
  /// less the timer's own share, and the wrapper's whole timer cost.
  std::vector<double> sched_host_s;
  std::vector<double> wrapper_s;
  std::vector<double> op_raw_s;       ///< wrapped ops, recorder off
  std::vector<double> traced_raw_s;   ///< wrapped ops, recorder on
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  double steal_success = 0;
  std::vector<std::uint64_t> anchors_by_level;
};

/// Per-scheduler data for the service.* group.
struct ServiceLayerData {
  std::vector<double> sojourn_ms;  ///< due instant to completion, per job
  std::vector<double> block_p95_ms;  ///< sojourn p95 of each timed block
  std::vector<double> run_ms;    ///< dispatch to completion, per job
  std::vector<double> queue_ms;  ///< submit to dispatch, per job
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t refused = 0;     ///< rejected or timed out
  std::uint64_t offered = 0;     ///< arrivals, dropped ones included
  std::uint64_t slo_met = 0;     ///< completed, verified, within the limit
};

/// Whole-run service data (both schedulers' streams).
struct ServiceRunData {
  std::vector<double> gen_late_ms;
  std::vector<double> submit_us;
  std::uint64_t backlog_max = 0;
};

/// Set-up and kernel timings shared by every workload.
struct CommonLayerData {
  std::vector<double> load_s;         ///< machine config + topology
  std::vector<double> prepare_s;      ///< kernel input generation
  std::vector<double> verify_s;       ///< one Kernel::verify() each
  std::vector<double> native_s;       ///< kernel on a 1-worker ThreadPool
  std::vector<double> engine_init_s;  ///< SimEngine construction
  std::vector<double> setup_raw_s;
};

void EmitCommonLayers(Report& report, const CommonLayerData& data,
                      const std::vector<double>& probe_s,
                      const std::vector<double>& sort_probe_s);
void EmitSimLayers(Report& report, const std::string& sched,
                   const SimLayerData& data, double native_s);
void EmitServiceLayers(Report& report, const std::string& sched,
                       const ServiceLayerData& data);
void EmitServiceRunLayers(Report& report, const ServiceRunData& data);

/// Run one workload; fills `report` with the mode's metrics and `context`
/// with raw host figures printed beside them.
Outcome RunSimWorkload(const Args& args, Report& report, Report& context,
                       SpanLog* spans);
Outcome RunServiceWorkload(const Args& args, Report& report, Report& context,
                           SpanLog* spans);

}  // namespace perfbench
