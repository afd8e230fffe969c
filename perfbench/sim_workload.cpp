// sim-fig8 and sim-huge64: samplesort on the PMH simulator, WS and SB ops
// alternating within the run so host drift hits both schedulers alike.
//
// Untraced: K set-ups (config, topology, engine, kernel input, one plain
// warm-up op per scheduler), then timed plain ops, each bracketed by host
// probes. Every op's output is verified and its makespan and counters must
// equal the warm-up op's of the same scheduler.
//
// Traced: one set-up, the kernel on a 1-worker ThreadPool, then ops on a
// fresh engine each, through the timing wrapper, with the engine's
// recorder off and on in turn. Every traced op must reproduce the plain
// warm-up op exactly.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "kernels/kernel.h"
#include "machine/config.h"
#include "machine/topology.h"
#include "probe.h"
#include "runtime/thread_pool.h"
#include "sched/registry.h"
#include "sim/engine.h"
#include "timed_scheduler.h"
#include "trace/analysis.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sbs;

struct SimSpec {
  const char* preset;  ///< machine preset, or nullptr for `file`
  const char* file;    ///< config file relative to the checkout root
  std::size_t n;
  std::size_t smoke_n;
  int machine_scale;  ///< the preset's cache-size divisor (kernel cutoffs)
};

SimSpec SpecOf(const std::string& workload) {
  if (workload == "sim-fig8") {
    return {"xeon7560_s8", nullptr, 1'000'000, 50'000, 8};
  }
  return {nullptr, "configs/huge64_4level.cfg", 250'000, 20'000, 1};
}

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
constexpr int kNativeRuns = 3;
/// Empty wrapper callbacks timed per calibration; the median of five
/// calibrations is used.
constexpr int kTimerCalls = 1 << 18;

/// The wrapper's timer cost: the calibration with the median total of five.
TimerCost MeasureTimerCost() {
  std::vector<TimerCost> runs;
  for (int i = 0; i < 5; ++i) {
    runs.push_back(TimedScheduler::Calibrate(kTimerCalls));
  }
  std::sort(runs.begin(), runs.end(),
            [](const TimerCost& a, const TimerCost& b) {
              return a.total_s < b.total_s;
            });
  return runs[2];
}

std::unique_ptr<runtime::Scheduler> MakeSched(const char* name,
                                              std::uint64_t seed) {
  sched::SchedulerSpec spec;
  spec.name = name;
  spec.seed = seed;
  return sched::MakeScheduler(spec);
}

bool SameResult(const sim::SimResult& a, const sim::SimResult& b) {
  const sim::Counters& x = a.counters;
  const sim::Counters& y = b.counters;
  if (a.makespan_cycles != b.makespan_cycles ||
      x.level.size() != y.level.size()) {
    return false;
  }
  for (std::size_t i = 0; i < x.level.size(); ++i) {
    const sim::LevelCounters& p = x.level[i];
    const sim::LevelCounters& q = y.level[i];
    if (p.hits != q.hits || p.misses != q.misses ||
        p.evictions != q.evictions ||
        p.back_invalidations != q.back_invalidations ||
        p.coherence_invalidations != q.coherence_invalidations) {
      return false;
    }
  }
  return x.dram_reads == y.dram_reads &&
         x.dram_writebacks == y.dram_writebacks &&
         x.remote_dram_accesses == y.remote_dram_accesses &&
         x.queue_wait_cycles == y.queue_wait_cycles &&
         x.accesses == y.accesses && x.writes == y.writes &&
         x.filter_skips == y.filter_skips &&
         x.fiber_switches == y.fiber_switches &&
         x.windows_executed == y.windows_executed &&
         x.window_merges == y.window_merges &&
         x.pump_passes == y.pump_passes &&
         x.inline_strands == y.inline_strands;
}

/// Everything one set-up builds. Members are declared in dependency order:
/// the engine refers to the topology and is destroyed first.
struct SimSetup {
  std::unique_ptr<machine::Topology> topo;
  std::unique_ptr<sim::SimEngine> engine;
  std::unique_ptr<kernels::Kernel> kernel;
  sim::SimResult ref[2];  ///< warm-up op per scheduler
  bool verified[2] = {false, false};  ///< its kernel output checked out

  /// Free everything, the engine before the topology it refers to.
  void Release() {
    engine.reset();
    kernel.reset();
    topo.reset();
  }
};

class SimRun {
 public:
  SimRun(const Args& args, SpanLog* spans)
      : args_(args), spec_(SpecOf(args.workload)), spans_(spans) {}

  Outcome Run(Report& report, Report& context);

 private:
  /// Verify the kernel output and check `r` against the scheduler's
  /// reference; records the op in the outcome.
  void Check(const sim::SimResult& r, int s, int parent, std::uint64_t op);
  SimSetup SetUp(std::uint64_t request);
  /// Record the set-up's warm-up ops in the outcome; with `previous`, they
  /// must also equal the previous set-up's.
  void CheckWarmup(const SimSetup& su, const sim::SimResult* previous);
  std::unique_ptr<sim::SimEngine> MakeEngine(const machine::Topology& topo);
  void RunUntraced(Report& report, Report& context);
  void RunTraced(Report& report, Report& context);

  const Args& args_;
  const SimSpec spec_;
  SpanLog* spans_;
  HostProbe probe_;
  Outcome outcome_;
  CommonLayerData common_;
  SimSetup setup_;
  std::uint64_t next_request_ = 1;
};

std::unique_ptr<sim::SimEngine> SimRun::MakeEngine(
    const machine::Topology& topo) {
  ScopedSpan span(spans_, "sim.engine_init");
  auto engine = std::make_unique<sim::SimEngine>(topo);
  common_.engine_init_s.push_back(span.Close());
  return engine;
}

void SimRun::Check(const sim::SimResult& r, int s, int parent,
                   std::uint64_t op) {
  bool verified = false;
  {
    ScopedSpan span(spans_, "kernels.verify", parent, op);
    verified = setup_.kernel->verify();
    common_.verify_s.push_back(span.Close());
  }
  const bool same = SameResult(r, setup_.ref[s]);
  if (!verified || !same) {
    std::fprintf(stderr, "op %llu (%s): %s\n",
                 static_cast<unsigned long long>(op), kScheds[static_cast<std::size_t>(s)],
                 !verified ? "kernel output wrong"
                           : "simulated counters differ from the warm-up op");
    outcome_.Wrong();
  }
  outcome_.Op(verified && same);
}

SimSetup SimRun::SetUp(std::uint64_t request) {
  ScopedSpan setup_span(spans_, "setup", -1, request);
  SimSetup su;
  {
    ScopedSpan span(spans_, "machine.load", setup_span.id(), request);
    const machine::MachineConfig cfg =
        spec_.preset != nullptr ? machine::Preset(spec_.preset)
                                : machine::LoadConfigFile(spec_.file);
    su.topo = std::make_unique<machine::Topology>(cfg);
    common_.load_s.push_back(span.Close());
  }
  su.engine = MakeEngine(*su.topo);
  {
    ScopedSpan span(spans_, "kernels.prepare", setup_span.id(), request);
    kernels::KernelParams params;
    params.n = args_.smoke ? spec_.smoke_n : spec_.n;
    params.machine_scale = spec_.machine_scale;
    su.kernel = kernels::MakeKernel("samplesort", params);
    su.kernel->prepare(args_.seed);
    common_.prepare_s.push_back(span.Close());
  }
  for (int s = 0; s < 2; ++s) {
    ScopedSpan span(spans_, "op.warmup", setup_span.id(), request);
    auto sched = MakeSched(kScheds[static_cast<std::size_t>(s)], args_.seed);
    su.ref[s] = su.engine->run(*sched, su.kernel->make_root());
    span.Close();
    su.verified[s] = su.kernel->verify();
  }
  return su;
}

void SimRun::CheckWarmup(const SimSetup& su, const sim::SimResult* previous) {
  for (int s = 0; s < 2; ++s) {
    const char* name = kScheds[static_cast<std::size_t>(s)];
    // Every set-up builds the same simulation: its warm-up ops must match.
    const bool same = previous == nullptr || SameResult(su.ref[s], previous[s]);
    if (!su.verified[s] || !same) {
      std::fprintf(stderr, "warm-up op (%s): %s\n", name,
                   !su.verified[s] ? "kernel output wrong"
                                   : "differs from the previous set-up's");
      outcome_.Wrong();
    }
    outcome_.Op(su.verified[s] && same);
  }
}

void SimRun::RunUntraced(Report& report, Report& context) {
  const int setups = args_.smoke ? 1 : kSetups;
  std::vector<double> setup_s;
  sim::SimResult previous[2];
  for (int k = 0; k < setups; ++k) {
    setup_.Release();  // one set-up in memory at a time
    const double before = probe_.run();
    const double t0 = NowS();
    setup_ = SetUp(next_request_++);
    const double raw = NowS() - t0;
    const double after = probe_.run();
    setup_s.push_back(Corrected(raw, before, after));
    common_.setup_raw_s.push_back(raw);
    CheckWarmup(setup_, k == 0 ? nullptr : previous);
    previous[0] = setup_.ref[0];
    previous[1] = setup_.ref[1];
  }

  std::vector<double> raw[2], corrected[2];
  double probe_before = probe_.run();
  const double start = NowS();
  for (int pair = 0;; ++pair) {
    const double pair_start = NowS();
    for (int j = 0; j < 2; ++j) {
      const int s = pair % 2 == 0 ? j : 1 - j;  // WS SB SB WS ...
      const std::uint64_t op = next_request_++;
      auto sched = MakeSched(kScheds[static_cast<std::size_t>(s)], args_.seed);
      const double t0 = NowS();
      const sim::SimResult r =
          setup_.engine->run(*sched, setup_.kernel->make_root());
      const double dt = NowS() - t0;
      const double probe_after = probe_.run();
      raw[s].push_back(dt);
      corrected[s].push_back(Corrected(dt, probe_before, probe_after));
      std::printf("# op %s raw_s=%.6f probe_ms=%.3f,%.3f\n",
                  kScheds[static_cast<std::size_t>(s)], dt,
                  probe_before * 1e3, probe_after * 1e3);
      Check(r, s, -1, op);
      probe_before = probe_after;
    }
    const double now = NowS();
    if (now - start + (now - pair_start) > args_.seconds) break;
  }

  report.Set("setup_s", Median(setup_s), "s", setup_s.size());
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("ok_frac", outcome_.ok_frac(), "ratio", outcome_.attempted);
  const double ghz = setup_.topo->config().ghz;
  for (int s = 0; s < 2; ++s) {
    const std::string name = kScheds[static_cast<std::size_t>(s)];
    const auto n = corrected[s].size();
    report.Set("op_s.p50." + name, Median(corrected[s]), "s", n);
    // Every op of a scheduler has the same simulated makespan (checked).
    const double makespan_ms =
        static_cast<double>(setup_.ref[s].makespan_cycles) / (ghz * 1e6);
    report.Set("latency_ms.p50." + name, makespan_ms, "ms", n);
    report.Set("latency_ms.p95." + name, makespan_ms, "ms", n);
    context.Set("host.op_s_raw.p50." + name, Median(raw[s]), "s", n);
    context.Set("sim.makespan_mcy." + name,
                static_cast<double>(setup_.ref[s].makespan_cycles) / 1e6,
                "Mcycles");
    context.Set("sim.llc_miss_k." + name,
                static_cast<double>(setup_.ref[s].counters.llc_misses()) / 1e3,
                "thousands");
  }
  context.Set("host.setup_s_raw", Median(common_.setup_raw_s), "s",
              common_.setup_raw_s.size());
  context.Set("host.probe_ms", Median(probe_.samples()) * 1e3, "ms",
              probe_.samples().size());
}

void SimRun::RunTraced(Report& report, Report& context) {
  {
    const double before = probe_.run();
    const double t0 = NowS();
    setup_ = SetUp(next_request_++);
    const double raw = NowS() - t0;
    CheckWarmup(setup_, nullptr);
    common_.setup_raw_s.push_back(raw);
    context.Set("setup_s", Corrected(raw, before, probe_.run()), "s");
  }
  // The engine is rebuilt for every traced op; keep one at a time.
  setup_.engine.reset();

  for (int i = 0; i < kNativeRuns; ++i) {
    const std::uint64_t op = next_request_++;
    runtime::ThreadPool pool(*setup_.topo, 1);
    auto sched = MakeSched("WS", args_.seed);
    ScopedSpan span(spans_, "kernels.native", -1, op);
    pool.run(*sched, setup_.kernel->make_root());
    common_.native_s.push_back(span.Close());
    const bool verified = setup_.kernel->verify();
    if (!verified) {
      std::fprintf(stderr, "native op: kernel output wrong\n");
      outcome_.Wrong();
    }
    outcome_.Op(verified);
  }
  const double native_s = Median(common_.native_s);
  const TimerCost timer = MeasureTimerCost();

  // About 2M recorder events in all (~100 MB), split over the workers.
  const int threads = setup_.topo->num_threads();
  const std::size_t ring = std::bit_floor(
      static_cast<std::size_t>((1 << 21) / std::max(threads, 1)));
  SimLayerData layers[2];
  const double start = NowS();
  for (int round = 0;; ++round) {
    const double round_start = NowS();
    for (int j = 0; j < 2; ++j) {
      const int s = round % 2 == 0 ? j : 1 - j;
      SimLayerData& d = layers[s];
      for (const bool recorder : {false, true}) {
        const std::uint64_t op = next_request_++;
        std::unique_ptr<sim::SimEngine> engine = MakeEngine(*setup_.topo);
        if (recorder) engine->enable_tracing(ring);
        TimedScheduler sched(
            MakeSched(kScheds[static_cast<std::size_t>(s)], args_.seed));
        ScopedSpan span(spans_, recorder ? "op.recorded" : "op.wrapped", -1,
                        op);
        const sim::SimResult r =
            engine->run(sched, setup_.kernel->make_root());
        const double dt = span.Close();
        Check(r, s, span.id(), op);
        d.calls = sched.stats();  // the counts repeat exactly op to op
        if (recorder) {
          d.traced_raw_s.push_back(dt);
          const trace::TraceAnalysis a = trace::Analyze(*engine->recorder());
          const trace::WorkerProfile totals = a.totals();
          d.trace_events = totals.events;
          d.trace_dropped = totals.dropped;
          d.steal_success = a.steal_success_rate();
          d.anchors_by_level = a.anchors_by_level;
        } else {
          // Recorder-off ops only: the recorder's emit hooks run inside
          // the scheduler callbacks and would inflate their host time.
          const auto calls = static_cast<double>(sched.stats().calls());
          d.op_raw_s.push_back(dt);
          d.sched_host_s.push_back(sched.stats().host_s -
                                   calls * timer.inside_s);
          d.wrapper_s.push_back(calls * timer.total_s);
        }
      }
    }
    const double now = NowS();
    if (now - start + (now - round_start) > args_.seconds) break;
  }

  EmitCommonLayers(report, common_, probe_.samples(), {});
  for (int s = 0; s < 2; ++s) {
    const std::string name = kScheds[static_cast<std::size_t>(s)];
    SimLayerData& d = layers[s];
    d.makespan = setup_.ref[s].makespan_cycles;
    d.counters = setup_.ref[s].counters;
    d.stats = setup_.ref[s].stats;
    EmitSimLayers(report, name, d, native_s);
    EmitServiceLayers(report, name, ServiceLayerData{});
    report.Set("host.op_s_raw.p50." + name, Median(d.op_raw_s), "s",
               d.op_raw_s.size());
  }
  EmitServiceRunLayers(report, ServiceRunData{});
}

Outcome SimRun::Run(Report& report, Report& context) {
  if (args_.trace) {
    RunTraced(report, context);
  } else {
    RunUntraced(report, context);
  }
  return outcome_;
}

}  // namespace

Outcome RunSimWorkload(const Args& args, Report& report, Report& context,
                       SpanLog* spans) {
  SimRun run(args, spans);
  return run.Run(report, context);
}

}  // namespace perfbench
