// Raw scheduler-callback overhead on real threads (google-benchmark).
//
// Complements the simulated figures: measures the wall-clock cost per
// strand of each scheduler's add/get/done path by running a synthetic
// fork-join tree on the real thread-pool engine. This is the engineering
// quantity behind the paper's §3.3 overhead breakdown — work stealing's
// Chase-Lev deque should be several times cheaper per strand than the
// space-bounded tree walk.
//
// After the google-benchmark suite, a set of JSON cells is written to
// BENCH_micro_overheads.json:
//   - recorder_overhead: cost of the tracing subsystem (traced vs untraced
//     fork-tree samples, alternated)
//   - deque_add_get / deque_steal: the seed's locked std::deque scheduler
//     queue (kept here as the baseline) vs the Chase-Lev deque that now
//     backs WS/PWS, same binary so the delta is directly comparable
//   - cache_presence_filter: the guaranteed-miss probe cost of the
//     simulated cache (sim/cache.h) with and without its per-set presence
//     filter
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <deque>
#include <thread>
#include <vector>

#include "machine/topology.h"
#include "runtime/jobs.h"
#include "runtime/thread_pool.h"
#include "sched/chase_lev.h"
#include "sched/ops.h"
#include "sched/registry.h"
#include "sim/cache.h"
#include "sim/fiber.h"
#include "util/json.h"

namespace {

using namespace sbs;
using runtime::Job;
using runtime::Strand;
using runtime::make_job;
using runtime::make_nop;

/// A binary fork tree of the given depth with trivial leaf work. The tree
/// has 2^depth leaves and ~2^(depth+1) strands in total.
Job* fork_tree(int depth) {
  const std::uint64_t bytes = 64ull << depth;  // nominal footprint
  if (depth == 0) {
    return make_job([](Strand&) { benchmark::DoNotOptimize(0); }, 64);
  }
  return make_job(
      [depth](Strand& strand) {
        strand.fork2(fork_tree(depth - 1), fork_tree(depth - 1), make_nop());
      },
      bytes, 64);
}

void BM_SchedulerStrandCost(benchmark::State& state,
                            const std::string& sched_name) {
  const machine::Topology topo(machine::Preset("mini"));
  runtime::ThreadPool pool(topo);
  constexpr int kDepth = 10;  // 1K leaves, ~4K scheduler interactions
  std::uint64_t strands = 0;
  for (auto _ : state) {
    auto sched = sched::MakeScheduler(sched_name);
    const runtime::RunStats stats = pool.run(*sched, fork_tree(kDepth));
    strands += stats.total_strands();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(strands));
  state.counters["strands_per_run"] =
      static_cast<double>(strands) / static_cast<double>(state.iterations());
}

void BM_ForkJoinThroughput(benchmark::State& state) {
  // Single-thread baseline: pure framework cost (job alloc, join counters,
  // settle) without scheduler contention.
  const machine::Topology topo(machine::Preset("mini"));
  runtime::ThreadPool pool(topo, 1);
  for (auto _ : state) {
    auto sched = sched::MakeScheduler("WS");
    pool.run(*sched, fork_tree(10));
  }
}

/// The recorder_overhead cell's workload: samples of kRecorderTrees fork
/// trees of this depth under WS on one worker, timed in process CPU
/// seconds. One worker and CPU time keep host scheduling out of the
/// figure: on a shared 4-vCPU host, wall time on four workers read
/// −0.4% to +18% from run to run. Each tree's run resets the rings, so
/// none overflows. Traced and untraced samples alternate so host drift
/// hits both sides alike, and the slowdown is the median of the per-pair
/// traced/untraced ratios.
constexpr int kRecorderDepth = 15;
constexpr int kRecorderTrees = 4;
constexpr int kRecorderPairs = 31;

/// Process CPU seconds, every thread's.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time of one recorder-cell sample on `pool`.
double fork_tree_sample_s(runtime::ThreadPool& pool) {
  const double t0 = process_cpu_s();
  for (int t = 0; t < kRecorderTrees; ++t) {
    auto sched = sched::MakeScheduler("WS");
    pool.run(*sched, fork_tree(kRecorderDepth));
  }
  return process_cpu_s() - t0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The scheduler queue WS/PWS shipped with before the Chase-Lev switch:
/// one spinlock in front of a std::deque. Retained verbatim as the bench
/// baseline so the two hot paths are always measured in the same binary.
struct LockedDeque {
  sched::Spinlock lock;
  std::deque<Job*> jobs;

  void add(Job* job) {
    sched::SpinGuard guard(lock);
    sched::count_op();
    jobs.push_back(job);
  }
  Job* get() {  // owner: LIFO
    sched::SpinGuard guard(lock);
    sched::count_op();
    if (jobs.empty()) return nullptr;
    Job* job = jobs.back();
    jobs.pop_back();
    return job;
  }
  Job* steal() {  // thief: FIFO
    sched::SpinGuard guard(lock);
    sched::count_op();
    if (jobs.empty()) return nullptr;
    Job* job = jobs.front();
    jobs.pop_front();
    return job;
  }
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fake job pointers: the queues never dereference their payload.
inline Job* fake_job(std::size_t i) {
  return reinterpret_cast<Job*>((i + 1) << 4);
}

constexpr std::size_t kQueueBatch = 128;
constexpr std::size_t kQueuePairs = std::size_t{1} << 20;
constexpr int kQueueReps = 5;

/// Owner-side add+get throughput (ops/sec; one push or one pop = one op)
/// of the locked baseline, single-threaded — the uncontended fast path the
/// scheduler pays on every strand.
double locked_add_get_ops_per_sec() {
  LockedDeque dq;
  double best = 1e300;
  for (int rep = 0; rep < kQueueReps; ++rep) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < kQueuePairs; i += kQueueBatch) {
      for (std::size_t k = 0; k < kQueueBatch; ++k) dq.add(fake_job(i + k));
      for (std::size_t k = 0; k < kQueueBatch; ++k)
        benchmark::DoNotOptimize(dq.get());
    }
    best = std::min(best, now_s() - t0);
  }
  return 2.0 * static_cast<double>(kQueuePairs) / best;
}

double chase_lev_add_get_ops_per_sec() {
  sched::ChaseLevDeque<Job*> dq;
  double best = 1e300;
  for (int rep = 0; rep < kQueueReps; ++rep) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < kQueuePairs; i += kQueueBatch) {
      for (std::size_t k = 0; k < kQueueBatch; ++k)
        dq.push_bottom(fake_job(i + k));
      Job* out = nullptr;
      for (std::size_t k = 0; k < kQueueBatch; ++k) {
        benchmark::DoNotOptimize(dq.pop_bottom(&out));
      }
    }
    best = std::min(best, now_s() - t0);
  }
  return 2.0 * static_cast<double>(kQueuePairs) / best;
}

/// Thief-side throughput: victim pre-fills, a single thief drains FIFO.
/// (Uncontended: measures the per-steal instruction cost, not cache
/// ping-pong, which test_chase_lev stresses separately.)
double locked_steal_ops_per_sec() {
  LockedDeque dq;
  double best = 1e300;
  for (int rep = 0; rep < kQueueReps; ++rep) {
    for (std::size_t i = 0; i < kQueuePairs; ++i) dq.add(fake_job(i));
    const double t0 = now_s();
    for (std::size_t i = 0; i < kQueuePairs; ++i)
      benchmark::DoNotOptimize(dq.steal());
    best = std::min(best, now_s() - t0);
  }
  return static_cast<double>(kQueuePairs) / best;
}

double chase_lev_steal_ops_per_sec() {
  sched::ChaseLevDeque<Job*> dq;
  double best = 1e300;
  for (int rep = 0; rep < kQueueReps; ++rep) {
    for (std::size_t i = 0; i < kQueuePairs; ++i)
      dq.push_bottom(fake_job(i));
    const double t0 = now_s();
    Job* out = nullptr;
    for (std::size_t i = 0; i < kQueuePairs; ++i)
      benchmark::DoNotOptimize(dq.steal_top(&out));
    best = std::min(best, now_s() - t0);
  }
  return static_cast<double>(kQueuePairs) / best;
}

/// Contended steal: the owner keeps pushing while `kThieves` thieves drain
/// concurrently — the cache-line ping-pong regime the uncontended cells
/// deliberately avoid. Returns items consumed per second across all
/// thieves; the owner stops once it has pushed its quota, thieves stop
/// when their quota is drained.
constexpr int kThieves = 3;
constexpr std::size_t kContendedItems = std::size_t{1} << 20;

template <class PushFn, class StealFn>
double contended_steal_items_per_sec(PushFn push, StealFn steal) {
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  const std::uint64_t quota = kContendedItems / 2;
  for (int th = 0; th < kThieves; ++th) {
    thieves.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      while (consumed.load(std::memory_order_relaxed) < quota) {
        const std::uint64_t got = steal();
        if (got != 0) consumed.fetch_add(got, std::memory_order_relaxed);
      }
    });
  }
  const double t0 = now_s();
  go.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < kContendedItems; ++i) push(fake_job(i));
  while (consumed.load(std::memory_order_relaxed) < quota) {
  }
  const double dt = now_s() - t0;
  for (auto& t : thieves) t.join();
  return static_cast<double>(consumed.load(std::memory_order_relaxed)) / dt;
}

double locked_contended_steal_items_per_sec() {
  LockedDeque dq;
  return contended_steal_items_per_sec(
      [&dq](Job* j) { dq.add(j); },
      [&dq]() -> std::uint64_t { return dq.steal() != nullptr ? 1 : 0; });
}

double chase_lev_contended_steal_items_per_sec() {
  sched::ChaseLevDeque<Job*> dq;
  return contended_steal_items_per_sec(
      [&dq](Job* j) { dq.push_bottom(j); }, [&dq]() -> std::uint64_t {
        Job* out = nullptr;
        return dq.steal_top(&out) ? 1 : 0;
      });
}

constexpr std::size_t kFiberSwitches = std::size_t{1} << 22;
constexpr int kFiberReps = 5;

/// Raw fiber-switch round trips per second: one resume() into a fiber that
/// immediately yields back, repeated. This is the unit cost the simulator
/// pays to suspend/continue a strand at a window boundary — the quantity
/// the engine's strand batching and inline-strand execution exist to
/// avoid. One op = resume + yield (two context switches).
double fiber_switch_ops_per_sec() {
  double best = 1e300;
  for (int rep = 0; rep < kFiberReps; ++rep) {
    sim::Fiber fiber(
        [] {
          for (;;) sim::Fiber::yield();
        },
        1u << 16);
    const double t0 = now_s();
    for (std::size_t i = 0; i < kFiberSwitches; ++i) fiber.resume();
    best = std::min(best, now_s() - t0);
    benchmark::DoNotOptimize(fiber.resumes());
    fiber.abandon();
  }
  return static_cast<double>(kFiberSwitches) / best;
}

// --- simulated-cache probe cell (sim/cache.h) ---

constexpr int kProbeReps = 5;
constexpr std::size_t kProbeTarget = std::size_t{1} << 21;

/// huge64's L3 geometry (32 MB, 16-way: 4 MB of tags, far past the host
/// cache and the default filter threshold) with default options, filled
/// with 4x its capacity.
sim::Cache filled_probe_cache(bool filter) {
  constexpr std::uint64_t kSets = 32768;
  constexpr std::uint32_t kAssoc = 16;
  sim::CacheOptions o;
  o.presence_filter = filter;
  sim::Cache c(kSets * kAssoc * 64, 64, kAssoc, o);
  SBS_CHECK(c.filter_enabled() == filter);
  for (std::uint64_t i = 0; i < kSets * kAssoc * 4; ++i) {
    if (!c.probe_and_touch(i, false)) c.fill(i, false);
  }
  return c;
}

/// ns per guaranteed-miss probe_and_touch() on `c` — the outer-level
/// coherence sweep case the presence filter exists for. With the filter
/// on most probes end at a zero filter bucket; off, every probe scans the
/// full set.
double miss_probe_ns(sim::Cache& c) {
  const std::uint64_t absent_base = std::uint64_t{1} << 40;  // never filled
  const double t0 = now_s();
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < kProbeTarget; ++i) {
    hits += c.probe_and_touch(absent_base + i, false) ? 1 : 0;
  }
  SBS_CHECK_MSG(hits == 0, "absent probe stream hit the cache");
  return (now_s() - t0) * 1e9 / static_cast<double>(kProbeTarget);
}

/// Writes BENCH_micro_overheads.json: the recorder's traced-vs-untraced
/// cost (acceptance bar: <1% slowdown with tracing disabled), the locked
/// vs Chase-Lev queue cells, the fiber switch and the presence filter.
void write_bench_cells() {
  const machine::Topology topo(machine::Preset("mini"));
  runtime::ThreadPool plain(topo, 1);
  runtime::ThreadPool traced(topo, 1);
  traced.enable_tracing(1u << 20);  // one tree's ~557K events, no drops
  std::vector<double> untraced, traced_v, ratio;
  for (int pair = 0; pair < kRecorderPairs; ++pair) {
    untraced.push_back(fork_tree_sample_s(plain) / kRecorderTrees);
    traced_v.push_back(fork_tree_sample_s(traced) / kRecorderTrees);
    ratio.push_back(traced_v.back() / untraced.back());
  }
  const double untraced_s = median(untraced);
  const double traced_s = median(traced_v);
  const std::uint64_t events = traced.recorder()->total_recorded();
  const std::uint64_t dropped = traced.recorder()->total_dropped();

  const double slowdown_pct = 100.0 * (median(ratio) - 1.0);
  const double events_per_sec = static_cast<double>(events) / traced_s;

  // Queue hot-path cells (same binary, same flags, so the
  // locked-baseline vs lock-free delta is an apples-to-apples figure).
  const double locked_ag = locked_add_get_ops_per_sec();
  const double cl_ag = chase_lev_add_get_ops_per_sec();
  const double locked_st = locked_steal_ops_per_sec();
  const double cl_st = chase_lev_steal_ops_per_sec();
  const double locked_cont = locked_contended_steal_items_per_sec();
  const double cl_cont = chase_lev_contended_steal_items_per_sec();
  const double fiber_ops = fiber_switch_ops_per_sec();

  // Alternated like the recorder cell, best of each.
  sim::Cache scan_cache = filled_probe_cache(/*filter=*/false);
  sim::Cache filter_cache = filled_probe_cache(/*filter=*/true);
  double miss_scan_ns = 1e300, miss_filter_ns = 1e300;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    miss_scan_ns = std::min(miss_scan_ns, miss_probe_ns(scan_cache));
    miss_filter_ns = std::min(miss_filter_ns, miss_probe_ns(filter_cache));
  }
  const std::uint64_t filter_skips = filter_cache.filter_skips();

  JsonWriter w;
  w.begin_object();
  w.kv("bench", "micro_overheads");
  w.kv("schema_version", 7);
  w.key("recorder_overhead").begin_object();
  w.kv("machine", "mini");
  char workload[160];
  std::snprintf(workload, sizeof workload,
                "%d fork_tree(%d) runs under WS on 1 worker per sample, "
                "process CPU time, traced/untraced samples alternated, "
                "median of %d pairs",
                kRecorderTrees, kRecorderDepth, kRecorderPairs);
  w.kv("workload", workload);
  w.kv("untraced_s", untraced_s);
  w.kv("traced_s", traced_s);
  w.kv("slowdown_pct", slowdown_pct);
  w.kv("events", events);
  w.kv("dropped_events", dropped);
  w.kv("events_per_sec", events_per_sec);
  w.end_object();
  w.key("deque_add_get").begin_object();
  w.kv("workload", "owner push+pop, batches of 128, best of 5");
  w.kv("locked_deque_ops_per_sec", locked_ag);
  w.kv("chase_lev_ops_per_sec", cl_ag);
  w.kv("speedup", cl_ag / locked_ag);
  w.end_object();
  w.key("deque_steal").begin_object();
  w.kv("workload", "single thief drains prefilled deque, best of 5");
  w.kv("locked_deque_ops_per_sec", locked_st);
  w.kv("chase_lev_ops_per_sec", cl_st);
  // steal_top is the path WS::get() takes. Uncontended, its fence+CAS per
  // item loses to a spinlock by design; the contended cell below is where
  // the lock-free deque pays.
  w.kv("speedup", cl_st / locked_st);
  w.end_object();
  w.key("deque_steal_contended").begin_object();
  w.kv("workload", "owner pushes 1M while 3 thieves drain, items/s");
  w.kv("locked_deque_items_per_sec", locked_cont);
  w.kv("chase_lev_items_per_sec", cl_cont);
  w.kv("speedup", cl_cont / locked_cont);
  w.end_object();
  w.key("fiber_switch").begin_object();
  w.kv("workload", "resume+yield round trip, 4M switches, best of 5");
  w.kv("impl", SBS_ASM_FIBERS ? "asm" : "ucontext");
  w.kv("round_trips_per_sec", fiber_ops);
  w.kv("ns_per_round_trip", 1e9 / fiber_ops);
  w.end_object();
  w.key("cache_presence_filter").begin_object();
  w.kv("workload",
       "guaranteed-miss probe_and_touch, 32768 sets x 16 ways, filtered "
       "and unfiltered alternated, best of 5");
  w.kv("scan_ns_per_probe", miss_scan_ns);
  w.kv("filtered_ns_per_probe", miss_filter_ns);
  w.kv("filter_skips", filter_skips);
  w.kv("speedup", miss_scan_ns / miss_filter_ns);
  w.end_object();
  w.end_object();

  const char* path = "BENCH_micro_overheads.json";
  if (!WriteJsonLine(path, w.str()))
    std::fprintf(stderr, "failed to write %s\n", path);
  std::printf(
      "recorder overhead: untraced %.4fs, traced %.4fs (%+.2f%%), "
      "%llu events (%.1fM events/s) -> %s\n",
      untraced_s, traced_s, slowdown_pct,
      static_cast<unsigned long long>(events), events_per_sec / 1e6, path);
  std::printf("deque add+get: locked %.1fM ops/s, chase-lev %.1fM ops/s (%.2fx)\n",
              locked_ag / 1e6, cl_ag / 1e6, cl_ag / locked_ag);
  std::printf(
      "deque steal:   locked %.1fM ops/s, chase-lev %.1fM ops/s (%.2fx)\n",
      locked_st / 1e6, cl_st / 1e6, cl_st / locked_st);
  std::printf(
      "contended steal: locked %.1fM items/s, chase-lev %.1fM items/s "
      "(%.2fx)\n",
      locked_cont / 1e6, cl_cont / 1e6, cl_cont / locked_cont);
  std::printf("fiber switch:  %.1fM round trips/s (%.1f ns each, %s)\n",
              fiber_ops / 1e6, 1e9 / fiber_ops,
              SBS_ASM_FIBERS ? "asm" : "ucontext");
  std::printf(
      "cache miss probe assoc 16: scan %.1f ns, filtered %.1f ns (%.2fx)\n",
      miss_scan_ns, miss_filter_ns, miss_scan_ns / miss_filter_ns);
}

}  // namespace

BENCHMARK_CAPTURE(BM_SchedulerStrandCost, WS, std::string("WS"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerStrandCost, PWS, std::string("PWS"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerStrandCost, CilkWS, std::string("CilkWS"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerStrandCost, SB, std::string("SB"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerStrandCost, SB_D, std::string("SB-D"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ForkJoinThroughput)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_bench_cells();
  return 0;
}
