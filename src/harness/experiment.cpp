#include "harness/experiment.h"

#include <cstdio>

#include "trace/analysis.h"
#include "trace/chrome_trace.h"
#include "util/assert.h"
#include "util/stats.h"
#include "verify/invariants.h"

namespace sbs::harness {

std::string WithPathSuffix(const std::string& path,
                           const std::string& suffix) {
  const auto dot = path.rfind('.');
  const auto slash = path.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + "." + suffix;
  return path.substr(0, dot) + "." + suffix + path.substr(dot);
}

std::vector<CellResult> RunExperiment(const ExperimentSpec& spec,
                                      bool progress) {
  const machine::Topology topo(machine::Preset(spec.machine));
  const int total_sockets =
      static_cast<int>(topo.nodes_at_depth(1).size());

  std::vector<int> sweep = spec.bandwidth_sockets;
  if (sweep.empty()) sweep.push_back(total_sockets);

  auto kernel = kernels::MakeKernel(spec.kernel, spec.params);
  kernel->prepare(spec.seed);

  const std::size_t total_cells = sweep.size() * spec.schedulers.size();

  std::vector<CellResult> results;
  for (int sockets : sweep) {
    SBS_CHECK(sockets >= 1 && sockets <= total_sockets);
    for (const auto& sched_name : spec.schedulers) {
      sim::SimParams sim_params;
      sim_params.num_threads = spec.num_threads;
      for (int s = 0; s < sockets; ++s)
        sim_params.memory.allowed_sockets.push_back(s);
      sim::SimEngine engine(topo, sim_params);

      const bool tracing =
          !spec.trace_path.empty() || !spec.metrics_path.empty();
      if (tracing) engine.enable_tracing();
      const std::string cell_label =
          (spec.label_prefix.empty() ? "" : spec.label_prefix + "/") +
          spec.kernel + "@" + spec.machine + "/" + sched_name + "/" +
          std::to_string(sockets) + "bw";

      CellResult cell;
      cell.scheduler = sched_name;
      cell.bw_sockets = sockets;
      cell.total_sockets = total_sockets;

      std::vector<double> active, overhead, empty, wall, misses, hits, reads,
          queue;
      for (int rep = 0; rep < spec.repetitions; ++rep) {
        sched::SchedulerSpec ss;
        ss.name = sched_name;
        ss.seed = spec.seed + static_cast<std::uint64_t>(rep);
        ss.sb = spec.sb;
        std::unique_ptr<runtime::Scheduler> sched = sched::MakeScheduler(ss);
        verify::VerifyingScheduler* checker = nullptr;
        if (spec.verify_invariants) {
          auto wrapped =
              std::make_unique<verify::VerifyingScheduler>(std::move(sched));
          checker = wrapped.get();
          sched = std::move(wrapped);
        }

        const sim::SimResult r = engine.run(*sched, kernel->make_root());
        if (checker != nullptr && !checker->ok()) {
          SBS_CHECK_MSG(false, checker->report().c_str());
        }
        if (tracing && rep == 0) {
          // Only the first repetition is exported: each run resets the rings.
          if (!spec.trace_path.empty()) {
            trace::TraceInfo info;
            info.engine = "sim";
            info.scheduler = sched_name;
            info.machine = spec.machine;
            info.label = cell_label;
            const std::string path =
                total_cells == 1
                    ? spec.trace_path
                    : WithPathSuffix(spec.trace_path,
                                     sched_name + "_" +
                                         std::to_string(sockets) + "bw");
            SBS_CHECK_MSG(
                trace::WriteChromeTrace(*engine.recorder(), path, info),
                "failed to write --trace output");
          }
          if (!spec.metrics_path.empty()) {
            trace::EngineOverheads ov;
            ov.windows_executed = r.counters.windows_executed;
            ov.window_merges = r.counters.window_merges;
            ov.pump_passes = r.counters.pump_passes;
            ov.fiber_switches = r.counters.fiber_switches;
            SBS_CHECK_MSG(
                trace::WriteMetricsJsonl(trace::Analyze(*engine.recorder()),
                                         spec.metrics_path, cell_label,
                                         /*truncate=*/false, &ov),
                "failed to write --metrics-json output");
          }
        }
        active.push_back(r.stats.avg_active_s());
        overhead.push_back(r.stats.avg_overhead_s());
        empty.push_back(r.stats.avg_empty_s());
        wall.push_back(r.stats.wall_s);
        misses.push_back(static_cast<double>(r.counters.llc_misses()));
        hits.push_back(static_cast<double>(r.counters.llc_hits()));
        reads.push_back(static_cast<double>(r.counters.dram_reads));
        queue.push_back(static_cast<double>(r.counters.queue_wait_cycles));
        cell.strands = r.stats.total_strands();
        cell.empty_wakeups = r.stats.total_empty_wakeups();
        cell.sched_stats = r.sched_stats;
        if (rep == 0) {
          cell.verified = kernel->verify();
          SBS_CHECK_MSG(cell.verified, "kernel verification failed");
        }
      }
      cell.active_s = trimmed_mean(active);
      cell.overhead_s = trimmed_mean(overhead);
      cell.empty_s = trimmed_mean(empty);
      cell.wall_s = trimmed_mean(wall);
      cell.llc_misses = trimmed_mean(misses);
      cell.llc_hits = trimmed_mean(hits);
      cell.dram_reads = trimmed_mean(reads);
      cell.queue_wait_cycles = trimmed_mean(queue);

      if (progress) {
        std::fprintf(stderr,
                     "  [%s] %d/%d sockets, %-6s: active %.4fs overhead "
                     "%.4fs L3-miss %.2fM%s\n",
                     spec.kernel.c_str(), sockets, total_sockets,
                     sched_name.c_str(), cell.active_s, cell.overhead_s,
                     cell.llc_misses / 1e6, cell.verified ? "" : "  UNVERIFIED");
      }
      results.push_back(std::move(cell));
    }
  }
  return results;
}

Table MakeFigureTable(const std::string& title,
                      const std::vector<CellResult>& results) {
  Table table(title);
  table.set_header({"bandwidth", "scheduler", "active(s)", "overhead(s)",
                    "empty(s)", "total(s)", "L3 misses"});
  for (const auto& cell : results) {
    table.add_row({fmt_percent(cell.bw_fraction(), 0) + " b/w",
                   cell.scheduler, fmt_double(cell.active_s, 4),
                   fmt_double(cell.overhead_s, 4),
                   fmt_double(cell.empty_s, 4),
                   fmt_double(cell.active_s + cell.overhead_s, 4),
                   fmt_millions(cell.llc_misses, 2)});
  }
  return table;
}

}  // namespace sbs::harness
