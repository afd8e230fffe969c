// Simulator throughput: simulated accesses per host-second on the paper's
// xeon7560_fig4 machine (samplesort, WS), with adaptive and fixed-quantum
// windows, plus a huge-machine configuration that exercises the sharded
// memory system at scale.
//
// Writes BENCH_sim_throughput.json. Every simulated run here is
// deterministic: for a given (machine, kernel, n, skew_quantum), the
// makespan and counters are bit-identical across repetitions and for
// adaptive vs fixed-quantum windows (see src/sim/engine.h); the bench
// asserts both before reporting, the latter across all four schedulers.
//
//   ./sim_throughput             # full matrix (n=1M, huge64 scaling)
//   ./sim_throughput --smoke     # CI: small n, still asserts equivalences
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernel.h"
#include "machine/config.h"
#include "machine/topology.h"
#include "sched/registry.h"
#include "sim/engine.h"
#include "util/assert.h"
#include "util/json.h"

namespace {

using namespace sbs;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Measurement {
  double best_wall_s = 1e300;
  std::uint64_t accesses = 0;
  std::uint64_t makespan = 0;
  double acc_per_sec = 0;
  sim::Counters counters;
};

/// Run `kernel_name` under `sched_name` on `cfg` with the given engine
/// knobs `reps` times; keep the best wall time. The SimResult is identical
/// across reps (the engine guarantees it), so counters come from the last
/// run.
Measurement measure(const machine::MachineConfig& cfg,
                    const std::string& kernel_name, std::size_t n,
                    std::uint64_t quantum, int reps, bool adaptive = true,
                    const std::string& sched_name = "WS") {
  machine::Topology topo(cfg);
  sim::SimParams sp;
  sp.skew_quantum = quantum;
  sp.adaptive_window = adaptive;
  sim::SimEngine eng(topo, sp);

  kernels::KernelParams kp;
  kp.n = n;
  Measurement m;
  for (int rep = 0; rep < reps; ++rep) {
    auto kernel = kernels::MakeKernel(kernel_name, kp);
    kernel->prepare(1);
    sched::SchedulerSpec spec;
    spec.name = sched_name;
    auto sched = sched::MakeScheduler(spec);
    const double t0 = now_s();
    const sim::SimResult r = eng.run(*sched, kernel->make_root());
    const double dt = now_s() - t0;
    SBS_CHECK_MSG(kernel->verify(), "bench kernel verify failed");
    SBS_CHECK_MSG(m.makespan == 0 || m.makespan == r.makespan_cycles,
                  "simulator nondeterministic across repetitions");
    m.makespan = r.makespan_cycles;
    m.accesses = r.counters.accesses;
    m.counters = r.counters;
    m.best_wall_s = std::min(m.best_wall_s, dt);
  }
  m.acc_per_sec = static_cast<double>(m.accesses) / m.best_wall_s;
  return m;
}

/// Adaptive windows only elide merge barriers; everything else — timing,
/// traffic, even the fiber-switch count — must match the fixed-quantum run
/// exactly. (window_merges is the one counter allowed to differ: dropping
/// merges is the optimization.)
void check_adaptive_identical(const Measurement& fixed, const Measurement& ad,
                              const char* what) {
  const sim::Counters& f = fixed.counters;
  const sim::Counters& a = ad.counters;
  SBS_CHECK_MSG(fixed.makespan == ad.makespan && f.accesses == a.accesses &&
                    f.writes == a.writes && f.dram_reads == a.dram_reads &&
                    f.dram_writebacks == a.dram_writebacks &&
                    f.remote_dram_accesses == a.remote_dram_accesses &&
                    f.queue_wait_cycles == a.queue_wait_cycles &&
                    f.fiber_switches == a.fiber_switches &&
                    f.filter_skips == a.filter_skips &&
                    f.windows_executed == a.windows_executed &&
                    f.pump_passes == a.pump_passes &&
                    f.inline_strands == a.inline_strands,
                what);
  SBS_CHECK_MSG(a.window_merges <= f.window_merges,
                "adaptive windows increased merge count");
}

void emit(JsonWriter& w, const char* key, const Measurement& m) {
  w.key(key).begin_object();
  w.kv("accesses", m.accesses);
  w.kv("best_wall_s", m.best_wall_s);
  w.kv("accesses_per_sec", m.acc_per_sec);
  w.kv("makespan_cycles", m.makespan);
  w.kv("filter_skips", m.counters.filter_skips);
  w.key("engine").begin_object();
  w.kv("windows_executed", m.counters.windows_executed);
  w.kv("window_merges", m.counters.window_merges);
  w.kv("pump_passes", m.counters.pump_passes);
  w.kv("fiber_switches", m.counters.fiber_switches);
  w.kv("inline_strands", m.counters.inline_strands);
  w.end_object();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool xeon_only = false;
  std::size_t n_override = 0;
  int reps_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--n=", 4) == 0)
      n_override = static_cast<std::size_t>(std::atoll(argv[i] + 4));
    if (std::strncmp(argv[i], "--reps=", 7) == 0)
      reps_override = std::atoi(argv[i] + 7);
    if (std::strcmp(argv[i], "--xeon-only") == 0) xeon_only = true;
  }

  const std::size_t n = n_override != 0 ? n_override : (smoke ? 100000 : 1000000);
  const int reps = reps_override != 0 ? reps_override : (smoke ? 1 : 3);
  const std::uint64_t quantum = 10000;

  const machine::MachineConfig xeon =
      machine::LoadConfigFile("configs/xeon7560_fig4.cfg");

  const Measurement serial = measure(xeon, "samplesort", n, quantum, reps);
  std::printf("xeon7560 samplesort n=%zu: %.1fM acc/s (makespan %llu)\n", n,
              serial.acc_per_sec / 1e6,
              static_cast<unsigned long long>(serial.makespan));

  // Fixed-quantum control cell: adaptive window coalescing must be a pure
  // host-side optimization.
  const Measurement fixed_q =
      measure(xeon, "samplesort", n, quantum, reps, /*adaptive=*/false);
  check_adaptive_identical(fixed_q, serial,
                           "adaptive windows diverged from fixed quantum");
  std::printf("  fixed-quantum control: %.1fM acc/s, %llu merges vs %llu "
              "adaptive\n",
              fixed_q.acc_per_sec / 1e6,
              static_cast<unsigned long long>(fixed_q.counters.window_merges),
              static_cast<unsigned long long>(serial.counters.window_merges));

  // Fixed-vs-adaptive equivalence across every scheduler family (smaller n:
  // these cells are correctness gates, not throughput measurements).
  const std::size_t eq_n = std::min<std::size_t>(n, 100000);
  for (const char* sched : {"WS", "PWS", "SB", "SB-D"}) {
    const Measurement f = measure(xeon, "samplesort", eq_n, quantum, 1,
                                  /*adaptive=*/false, sched);
    const Measurement a = measure(xeon, "samplesort", eq_n, quantum, 1,
                                  /*adaptive=*/true, sched);
    check_adaptive_identical(f, a, "adaptive windows diverged from fixed");
    std::printf("  adaptive==fixed under %s (makespan %llu)\n", sched,
                static_cast<unsigned long long>(f.makespan));
  }

  if (xeon_only) return 0;

  // The huge sharded configuration: 64 sockets, 4 cache levels, 512
  // threads.
  const machine::MachineConfig huge =
      machine::LoadConfigFile("configs/huge64_4level.cfg");
  const std::size_t huge_n = smoke ? 100000 : 1000000;
  const Measurement huge1 = measure(huge, "samplesort", huge_n, quantum, reps);
  std::printf("huge64 samplesort n=%zu: %.1fM acc/s (makespan %llu)\n",
              huge_n, huge1.acc_per_sec / 1e6,
              static_cast<unsigned long long>(huge1.makespan));

  JsonWriter w;
  w.begin_object();
  w.kv("bench", "sim_throughput");
  w.kv("schema_version", 4);
  w.kv("smoke", smoke);
  w.kv("kernel", "samplesort");
  w.kv("sched", "WS");
  w.kv("n", n);
  w.kv("skew_quantum", quantum);
  w.kv("adaptive_window", true);
  w.kv("inline_strands", true);
  w.kv("host_cpus",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  // Cache-representation defaults in effect (CacheOptions, cache.h).
  w.key("cache_rep").begin_object();
  w.kv("presence_filter", sim::CacheOptions{}.presence_filter);
  w.end_object();
  // Measured at the seed of this change series (commit 00f9302, same
  // machine/kernel/n/quantum): 9.2M simulated accesses per host-second.
  w.kv("baseline_accesses_per_sec_at_00f9302", 9200000);
  w.key("xeon7560_fig4").begin_object();
  emit(w, "serial", serial);
  emit(w, "fixed_quantum", fixed_q);
  w.kv("adaptive_equals_fixed", true);
  w.kv("adaptive_equals_fixed_schedulers", "WS,PWS,SB,SB-D");
  w.end_object();
  w.key("huge64_4level").begin_object();
  w.kv("n", huge_n);
  emit(w, "serial", huge1);
  w.end_object();
  w.end_object();

  const char* path = "BENCH_sim_throughput.json";
  if (!smoke) {
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fprintf(f, "%s\n", w.str().c_str());
      std::fclose(f);
      std::printf("wrote %s\n", path);
    } else {
      std::fprintf(stderr, "failed to write %s\n", path);
      return 1;
    }
  }
  return 0;
}
