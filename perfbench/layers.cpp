// Per-layer metric emitters: the one place each layer's names and units
// are written. Calling an emitter with empty data reports the layer as
// zeros (a workload that does not exercise it).

#include "workloads.h"

namespace perfbench {
namespace {

std::uint64_t Size(const std::vector<double>& v) { return v.size(); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Count(std::uint64_t n) { return static_cast<double>(n); }

}  // namespace

void EmitCommonLayers(Report& r, const CommonLayerData& d,
                      const std::vector<double>& probe_s,
                      const std::vector<double>& sort_probe_s) {
  r.Set("machine.load_s", Median(d.load_s), "s", Size(d.load_s));
  r.Set("kernels.prepare_s", Median(d.prepare_s), "s", Size(d.prepare_s));
  r.Set("kernels.verify_s", Median(d.verify_s), "s", Size(d.verify_s));
  r.Set("kernels.native_s", Median(d.native_s), "s", Size(d.native_s));
  r.Set("sim.engine_init_s", Median(d.engine_init_s), "s",
        Size(d.engine_init_s));
  r.Set("host.probe_ms", Median(probe_s) * 1e3, "ms", Size(probe_s));
  r.Set("host.sort_probe_ms", Median(sort_probe_s) * 1e3, "ms",
        Size(sort_probe_s));
  r.Set("host.setup_s_raw", Median(d.setup_raw_s), "s", Size(d.setup_raw_s));
}

void EmitSimLayers(Report& r, const std::string& s, const SimLayerData& d,
                   double native_s) {
  const SchedCallStats& c = d.calls;
  r.Set("sched.add_n." + s, Count(c.add_n), "count");
  r.Set("sched.get_n." + s, Count(c.get_n), "count");
  r.Set("sched.done_n." + s, Count(c.done_n), "count");
  r.Set("sched.get_hit_frac." + s, Ratio(Count(c.get_hits), Count(c.get_n)),
        "ratio");
  const double sched_s = Median(d.sched_host_s);
  r.Set("sched.host_s." + s, sched_s, "s", Size(d.sched_host_s));
  const double wrapper_s = Median(d.wrapper_s);
  r.Set("sched.wrapper_s." + s, wrapper_s, "s", Size(d.wrapper_s));
  r.Set("sched.ops." + s, Count(c.ops), "count");

  const sbs::sim::Counters& k = d.counters;
  r.Set("sim.fiber_switches." + s, Count(k.fiber_switches), "count");
  r.Set("sim.windows." + s, Count(k.windows_executed), "count");
  r.Set("sim.merges." + s, Count(k.window_merges), "count");
  r.Set("sim.pump_passes." + s, Count(k.pump_passes), "count");
  r.Set("sim.inline_strands." + s, Count(k.inline_strands), "count");
  r.Set("sim.makespan_mcy." + s, Count(d.makespan) / 1e6, "Mcycles");
  // Wrapped ops less the wrapper's own timer cost: the op as run unwrapped.
  const double op_s = d.op_raw_s.empty() ? 0 : Median(d.op_raw_s) - wrapper_s;
  r.Set("sim.model_s." + s, d.op_raw_s.empty() ? 0 : op_s - sched_s - native_s,
        "s", Size(d.op_raw_s));
  r.Set("sim.macc_per_s." + s, Ratio(Count(k.accesses), op_s) / 1e6, "Macc/s",
        Size(d.op_raw_s));

  r.Set("sim.mem.accesses." + s, Count(k.accesses), "count");
  std::uint64_t coh = 0, back = 0;
  for (int depth = 1; depth <= 4; ++depth) {
    const auto i = static_cast<std::size_t>(depth);
    const std::uint64_t misses = i < k.level.size() ? k.level[i].misses : 0;
    r.Set("sim.mem.miss_k.d" + std::to_string(depth) + "." + s,
          Count(misses) / 1e3, "thousands");
  }
  for (const sbs::sim::LevelCounters& level : k.level) {
    coh += level.coherence_invalidations;
    back += level.back_invalidations;
  }
  r.Set("sim.mem.filter_skips." + s, Count(k.filter_skips), "count");
  r.Set("sim.mem.dram_reads_k." + s, Count(k.dram_reads) / 1e3, "thousands");
  r.Set("sim.mem.remote_frac." + s,
        Ratio(Count(k.remote_dram_accesses), Count(k.dram_reads)), "ratio");
  r.Set("sim.mem.queue_wait_mcy." + s, Count(k.queue_wait_cycles) / 1e6,
        "Mcycles");
  r.Set("sim.mem.coh_inval_k." + s, Count(coh) / 1e3, "thousands");
  r.Set("sim.mem.back_inval_k." + s, Count(back) / 1e3, "thousands");

  using TB = sbs::runtime::ThreadBreakdown;
  const sbs::runtime::RunStats& st = d.stats;
  const double total = st.avg(&TB::active_s) + st.avg(&TB::add_s) +
                       st.avg(&TB::done_s) + st.avg(&TB::get_s) +
                       st.avg(&TB::empty_s);
  r.Set("runtime.active_frac." + s, Ratio(st.avg(&TB::active_s), total),
        "ratio");
  r.Set("runtime.add_frac." + s, Ratio(st.avg(&TB::add_s), total), "ratio");
  r.Set("runtime.done_frac." + s, Ratio(st.avg(&TB::done_s), total), "ratio");
  r.Set("runtime.get_frac." + s, Ratio(st.avg(&TB::get_s), total), "ratio");
  r.Set("runtime.empty_frac." + s, Ratio(st.avg(&TB::empty_s), total),
        "ratio");
  r.Set("runtime.imbalance." + s, st.imbalance(), "ratio");
  r.Set("runtime.strands." + s, Count(st.total_strands()), "count");
  r.Set("runtime.empty_wakeups." + s, Count(st.total_empty_wakeups()),
        "count");

  r.Set("trace.overhead_frac." + s,
        d.traced_raw_s.empty() || d.op_raw_s.empty()
            ? 0
            : (Median(d.traced_raw_s) - wrapper_s) / op_s - 1.0,
        "ratio", Size(d.traced_raw_s));
  r.Set("trace.events." + s, Count(d.trace_events), "count");
  r.Set("trace.dropped." + s, Count(d.trace_dropped), "count");
  if (s == "WS") {
    r.Set("trace.steal_success_frac.WS", d.steal_success, "ratio");
  } else {
    for (int depth = 0; depth <= 4; ++depth) {
      const auto i = static_cast<std::size_t>(depth);
      r.Set("trace.anchors.d" + std::to_string(depth) + ".SB",
            i < d.anchors_by_level.size() ? Count(d.anchors_by_level[i]) : 0,
            "count");
    }
  }
}

void EmitServiceLayers(Report& r, const std::string& s,
                       const ServiceLayerData& d) {
  r.Set("service.sojourn_ms.p99." + s, Quantile(d.sojourn_ms, 0.99), "ms",
        Size(d.sojourn_ms));
  r.Set("service.run_ms.p50." + s, Quantile(d.run_ms, 0.5), "ms",
        Size(d.run_ms));
  r.Set("service.run_ms.p99." + s, Quantile(d.run_ms, 0.99), "ms",
        Size(d.run_ms));
  r.Set("service.queue_ms.p50." + s, Quantile(d.queue_ms, 0.5), "ms",
        Size(d.queue_ms));
  r.Set("service.queue_ms.p99." + s, Quantile(d.queue_ms, 0.99), "ms",
        Size(d.queue_ms));
  r.Set("service.admit_frac." + s,
        Ratio(Count(d.admitted), Count(d.submitted)), "ratio");
  r.Set("service.reject_frac." + s,
        Ratio(Count(d.refused), Count(d.submitted)), "ratio");
  r.Set("service.slo_frac." + s, Ratio(Count(d.slo_met), Count(d.offered)),
        "ratio");
}

void EmitServiceRunLayers(Report& r, const ServiceRunData& d) {
  r.Set("service.backlog.max", Count(d.backlog_max), "count");
  r.Set("service.gen_late_ms.p99", Quantile(d.gen_late_ms, 0.99), "ms",
        Size(d.gen_late_ms));
  r.Set("service.submit_us.p50", Quantile(d.submit_us, 0.5), "us",
        Size(d.submit_us));
  r.Set("service.submit_us.p99", Quantile(d.submit_us, 0.99), "us",
        Size(d.submit_us));
}

}  // namespace perfbench
