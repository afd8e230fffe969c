// Simulator throughput: simulated accesses per host-second on the paper's
// xeon7560_fig4 machine (samplesort, WS), plus a huge-machine
// configuration that exercises the sharded memory system at scale.
//
// Writes BENCH_sim_throughput.json. Every simulated run here is
// deterministic: for a given (machine, kernel, scheduler, n,
// skew_quantum), the makespan and every counter are bit-identical across
// repetitions, and the bench asserts it before reporting — on every timed
// cell, and on two runs each under WS, PWS, SB and SB-D.
//
// Host time drifts with load, frequency and neighbours, so each repetition
// is bracketed by runs of perfbench's HostProbe (perfbench/probe.h), a fixed
// unit of simulator-like work. A cell reports its raw best acc/s and its
// probe-corrected acc/s: the best time rescaled to the probe's reference
// host speed by the median of the cell's probe runs. The corrected figure
// is the one to compare across hosts and runs. (Correcting each repetition
// by its own two probes and keeping the best spread wider: the minimum
// picks whichever repetition a slow probe over-corrected.)
//
//   ./sim_throughput             # full matrix (n=1M, huge64 scaling)
//   ./sim_throughput --smoke     # CI: small n, still asserts determinism
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernels/kernel.h"
#include "machine/config.h"
#include "probe.h"
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
  double corrected_wall_s = 0;  ///< best_wall_s at the probe's reference
  double probe_s = 0;           ///< median HostProbe time of the cell
  std::uint64_t accesses = 0;
  std::uint64_t makespan = 0;
  double acc_per_sec = 0;
  double corrected_acc_per_sec = 0;
  sim::Counters counters;
};

/// Run `kernel_name` under `sched_name` on `cfg` `reps` times, each run
/// bracketed by HostProbe runs; keep the best wall time. Every rep must
/// return exactly the SimResult the first one did: makespan, every counter,
/// every core's time split and the scheduler's stats.
Measurement measure(const machine::MachineConfig& cfg,
                    const std::string& kernel_name, std::size_t n,
                    std::uint64_t quantum, int reps,
                    const std::string& sched_name = "WS") {
  machine::Topology topo(cfg);
  sim::SimParams sp;
  sp.skew_quantum = quantum;
  sim::SimEngine eng(topo, sp);
  perfbench::HostProbe probe;

  kernels::KernelParams kp;
  kp.n = n;
  Measurement m;
  sim::SimResult first;
  probe.run();
  for (int rep = 0; rep < reps; ++rep) {
    auto kernel = kernels::MakeKernel(kernel_name, kp);
    kernel->prepare(1);
    sched::SchedulerSpec spec;
    spec.name = sched_name;
    auto sched = sched::MakeScheduler(spec);
    const double t0 = now_s();
    sim::SimResult r = eng.run(*sched, kernel->make_root());
    const double dt = now_s() - t0;
    probe.run();
    SBS_CHECK_MSG(kernel->verify(), "bench kernel verify failed");
    if (rep == 0) {
      first = std::move(r);
    } else if (!(r == first)) {
      const std::string diff = "nondeterministic: rep 0 " +
                               first.counters.summary() + " | rep " +
                               std::to_string(rep) + " " + r.counters.summary();
      SBS_CHECK_MSG(false, diff.c_str());
    }
    m.best_wall_s = std::min(m.best_wall_s, dt);
  }
  m.makespan = first.makespan_cycles;
  m.accesses = first.counters.accesses;
  m.counters = first.counters;
  std::vector<double> probes = probe.samples();
  std::sort(probes.begin(), probes.end());
  m.probe_s = probes[probes.size() / 2];
  m.corrected_wall_s = m.best_wall_s * perfbench::kProbeRefS / m.probe_s;
  m.acc_per_sec = static_cast<double>(m.accesses) / m.best_wall_s;
  m.corrected_acc_per_sec =
      static_cast<double>(m.accesses) / m.corrected_wall_s;
  return m;
}

void emit(JsonWriter& w, const char* key, const Measurement& m) {
  w.key(key).begin_object();
  w.kv("accesses", m.accesses);
  w.kv("best_wall_s", m.best_wall_s);
  w.kv("accesses_per_sec", m.acc_per_sec);
  w.kv("probe_s", m.probe_s);
  w.kv("corrected_wall_s", m.corrected_wall_s);
  w.kv("corrected_accesses_per_sec", m.corrected_acc_per_sec);
  w.kv("makespan_cycles", m.makespan);
  w.kv("filter_skips", m.counters.filter_skips);
  w.key("engine").begin_object();
  w.kv("windows_executed", m.counters.windows_executed);
  w.kv("window_merges", m.counters.window_merges);
  w.kv("pump_passes", m.counters.pump_passes);
  w.kv("fiber_switches", m.counters.fiber_switches);
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
  std::printf("xeon7560 samplesort n=%zu: %.1fM acc/s raw, %.1fM corrected "
              "(probe %.1f ms, makespan %llu)\n",
              n, serial.acc_per_sec / 1e6, serial.corrected_acc_per_sec / 1e6,
              serial.probe_s * 1e3,
              static_cast<unsigned long long>(serial.makespan));

  // Determinism across every scheduler family: two runs each (smaller n:
  // these cells are correctness gates, not throughput measurements).
  const std::size_t det_n = std::min<std::size_t>(n, 100000);
  for (const char* sched : {"WS", "PWS", "SB", "SB-D"}) {
    const Measurement d =
        measure(xeon, "samplesort", det_n, quantum, /*reps=*/2, sched);
    std::printf("  deterministic under %s (makespan %llu)\n", sched,
                static_cast<unsigned long long>(d.makespan));
  }

  if (xeon_only) return 0;

  // The huge sharded configuration: 64 sockets, 4 cache levels, 512
  // threads.
  const machine::MachineConfig huge =
      machine::LoadConfigFile("configs/huge64_4level.cfg");
  const std::size_t huge_n = smoke ? 100000 : 1000000;
  const Measurement huge1 = measure(huge, "samplesort", huge_n, quantum, reps);
  std::printf("huge64 samplesort n=%zu: %.1fM acc/s raw, %.1fM corrected "
              "(probe %.1f ms, makespan %llu)\n",
              huge_n, huge1.acc_per_sec / 1e6,
              huge1.corrected_acc_per_sec / 1e6, huge1.probe_s * 1e3,
              static_cast<unsigned long long>(huge1.makespan));

  JsonWriter w;
  w.begin_object();
  w.kv("bench", "sim_throughput");
  w.kv("schema_version", 6);
  w.kv("smoke", smoke);
  w.kv("kernel", "samplesort");
  w.kv("sched", "WS");
  w.kv("n", n);
  w.kv("skew_quantum", quantum);
  w.kv("host_cpus",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  // Cache-representation defaults in effect (CacheOptions, cache.h).
  w.key("cache_rep").begin_object();
  w.kv("presence_filter", sim::CacheOptions{}.presence_filter);
  w.end_object();
  // Measured at the seed of this change series (commit 00f9302, same
  // machine/kernel/n/quantum): 9.2M simulated accesses per host-second.
  w.kv("baseline_accesses_per_sec_at_00f9302", 9200000);
  // HostProbe time on the host the corrected figures are rescaled to.
  w.kv("probe_ref_s", perfbench::kProbeRefS);
  w.key("xeon7560_fig4").begin_object();
  emit(w, "serial", serial);
  w.kv("deterministic_schedulers", "WS,PWS,SB,SB-D");
  w.end_object();
  w.key("huge64_4level").begin_object();
  w.kv("n", huge_n);
  emit(w, "serial", huge1);
  w.end_object();
  w.end_object();

  const char* path = "BENCH_sim_throughput.json";
  if (!smoke) {
    if (!WriteJsonLine(path, w.str())) {
      std::fprintf(stderr, "failed to write %s\n", path);
      return 1;
    }
    std::printf("wrote %s\n", path);
  }
  return 0;
}
