// Raw scheduler-callback overhead on real threads (google-benchmark).
//
// Complements the simulated figures: measures the wall-clock cost per
// strand of each scheduler's add/get/done path by running a synthetic
// fork-join tree on the real thread-pool engine. This is the engineering
// quantity behind the paper's §3.3 overhead breakdown — work stealing's
// two-lock deque should be several times cheaper per strand than the
// space-bounded tree walk.
//
// After the google-benchmark suite, a set of JSON cells is written to
// BENCH_micro_overheads.json:
//   - recorder_overhead: cost of the tracing subsystem (traced vs untraced)
//   - deque_add_get / deque_steal: the seed's locked std::deque scheduler
//     queue (kept here as the baseline) vs the Chase-Lev deque that now
//     backs WS/PWS, same binary so the delta is directly comparable
//   - fork_alloc: heap operator new vs the per-worker JobArena for
//     Job-sized allocations
//   - cache_find_way / cache_presence_filter / cache_lru_touch: the
//     simulated-cache probe representations (sim/cache.h) — scalar vs SIMD
//     tag scans, the guaranteed-miss cost with and without the per-set
//     presence filter, and rotate vs packed recency maintenance under the
//     MRU-repeat (rotate's best case) and LRU-cycle (rotate's worst case)
//     probe patterns
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <thread>
#include <vector>

#include "machine/topology.h"
#include "runtime/job_arena.h"
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

/// Best-of-reps wall time of a depth-11 fork tree under WS on `pool`.
double best_wall_s(runtime::ThreadPool& pool, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto sched = sched::MakeScheduler("WS");
    const runtime::RunStats stats = pool.run(*sched, fork_tree(11));
    best = std::min(best, stats.wall_s);
  }
  return best;
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

constexpr std::size_t kAllocBatch = 64;
constexpr std::size_t kAllocTotal = std::size_t{1} << 20;
constexpr int kAllocReps = 5;

/// Fork-allocation throughput (allocate + free of a LambdaJob = one op),
/// in batches of 64 live jobs — the lifetime shape of a fork's children.
/// With no arena scope installed, ArenaBacked falls through to the heap;
/// that fallback is exactly the "heap" cell.
double job_alloc_ops_per_sec(runtime::JobArena* arena) {
  runtime::JobArena::Scope scope(arena);
  Job* live[kAllocBatch];
  double best = 1e300;
  for (int rep = 0; rep < kAllocReps; ++rep) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < kAllocTotal; i += kAllocBatch) {
      for (std::size_t k = 0; k < kAllocBatch; ++k) {
        live[k] = make_job([](Strand&) {}, 64);
      }
      benchmark::DoNotOptimize(live[0]);
      for (std::size_t k = 0; k < kAllocBatch; ++k) delete live[k];
    }
    best = std::min(best, now_s() - t0);
  }
  return static_cast<double>(kAllocTotal) / best;
}

// --- simulated-cache probe cells (sim/cache.h representations) ---

constexpr int kProbeReps = 3;
constexpr std::size_t kProbeTarget = std::size_t{1} << 21;

/// ns per contains() over a mixed hit/miss probe stream on a 256-set cache
/// filled with 4x its capacity (so roughly 1 in 4 probes hits). Packed LRU
/// keeps slots fixed, making the scan depth independent of fill history;
/// the filter is off so every probe really scans the tags.
double find_way_ns(std::uint32_t assoc, bool simd) {
  const std::uint64_t sets = 256;
  sim::CacheOptions o;
  o.simd_probes = simd;
  o.presence_filter = false;
  o.packed_lru = true;
  sim::Cache c(sets * assoc * 64, 64, assoc, o);
  const std::uint64_t stream = sets * assoc * 4;
  for (std::uint64_t i = 0; i < stream; ++i) {
    sim::Cache::Evicted ev;
    c.fill_if_absent(i, false, &ev);
  }
  const std::size_t passes =
      std::max<std::size_t>(1, kProbeTarget / stream);
  double best = 1e300;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const double t0 = now_s();
    std::uint64_t found = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (std::uint64_t i = 0; i < stream; ++i) {
        found += c.contains(i) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(found);
    best = std::min(best, now_s() - t0);
  }
  return best * 1e9 /
         (static_cast<double>(stream) * static_cast<double>(passes));
}

/// ns per guaranteed-miss probe_and_touch() — the outer-level coherence
/// sweep case the presence filter exists for. With the filter forced on
/// (filter_min_tag_bytes = 0) most probes end at a zero filter bucket; off,
/// every probe scans the full set.
double miss_probe_ns(std::uint32_t assoc, bool filter,
                     std::uint64_t* skips_out) {
  const std::uint64_t sets = 256;
  sim::CacheOptions o;
  o.presence_filter = filter;
  o.filter_min_tag_bytes = 0;
  o.packed_lru = true;
  sim::Cache c(sets * assoc * 64, 64, assoc, o);
  const std::uint64_t lines = sets * assoc;
  for (std::uint64_t i = 0; i < lines * 4; ++i) {
    sim::Cache::Evicted ev;
    c.fill_if_absent(i, false, &ev);
  }
  const std::uint64_t absent_base = lines * 16;  // never filled
  double best = 1e300;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const double t0 = now_s();
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < kProbeTarget; ++i) {
      hits += c.probe_and_touch(absent_base + i, false) ? 1 : 0;
    }
    SBS_CHECK_MSG(hits == 0, "absent probe stream hit the cache");
    best = std::min(best, now_s() - t0);
  }
  if (skips_out != nullptr) *skips_out = c.filter_skips();
  return best * 1e9 / static_cast<double>(kProbeTarget);
}

/// ns per probe_and_touch() on a single fully-associative set, under the
/// two extreme hit patterns: `cycle` round-robins the set's lines (every
/// probe hits the current LRU way — rotate's O(assoc) worst case), else
/// the same line repeats (the MRU fast path in every representation).
double touch_ns(std::uint32_t assoc, bool packed, bool cycle) {
  sim::CacheOptions o;
  o.presence_filter = false;
  o.packed_lru = packed;
  sim::Cache c(assoc * 64, 64, assoc, o);
  for (std::uint64_t l = 1; l <= assoc; ++l) c.fill(l, false);
  double best = 1e300;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const double t0 = now_s();
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < kProbeTarget; ++i) {
      const std::uint64_t line = cycle ? 1 + i % assoc : 1;
      hits += c.probe_and_touch(line, false) ? 1 : 0;
    }
    SBS_CHECK_MSG(hits == kProbeTarget, "resident probe stream missed");
    best = std::min(best, now_s() - t0);
  }
  return best * 1e9 / static_cast<double>(kProbeTarget);
}

/// Writes BENCH_micro_overheads.json: the recorder's traced-vs-untraced
/// cost (acceptance bar: <1% slowdown with tracing disabled), the locked
/// vs Chase-Lev queue cells, and the heap vs arena allocation cells.
void write_bench_cells() {
  const machine::Topology topo(machine::Preset("mini"));
  constexpr int kReps = 5;

  runtime::ThreadPool plain(topo);
  const double untraced_s = best_wall_s(plain, kReps);

  runtime::ThreadPool traced(topo);
  traced.enable_tracing(1u << 18);
  const double traced_s = best_wall_s(traced, kReps);
  const std::uint64_t events = traced.recorder()->total_recorded();
  const std::uint64_t dropped = traced.recorder()->total_dropped();

  const double slowdown_pct = 100.0 * (traced_s / untraced_s - 1.0);
  const double events_per_sec = static_cast<double>(events) / traced_s;

  // Queue and allocator hot-path cells (same binary, same flags, so the
  // locked-baseline vs lock-free delta is an apples-to-apples figure).
  const double locked_ag = locked_add_get_ops_per_sec();
  const double cl_ag = chase_lev_add_get_ops_per_sec();
  const double locked_st = locked_steal_ops_per_sec();
  const double cl_st = chase_lev_steal_ops_per_sec();
  const double locked_cont = locked_contended_steal_items_per_sec();
  const double cl_cont = chase_lev_contended_steal_items_per_sec();
  const double heap_alloc = job_alloc_ops_per_sec(nullptr);
  runtime::JobArena arena;
  const double arena_alloc = job_alloc_ops_per_sec(&arena);
  const double fiber_ops = fiber_switch_ops_per_sec();

  // Simulated-cache probe cells.
  const std::uint32_t kFindWayAssocs[] = {8, 24, 32};
  double scalar_ns[3], simd_ns[3];
  for (int i = 0; i < 3; ++i) {
    scalar_ns[i] = find_way_ns(kFindWayAssocs[i], /*simd=*/false);
    simd_ns[i] = find_way_ns(kFindWayAssocs[i], /*simd=*/true);
  }
  std::uint64_t filter_skips = 0;
  const double miss_scan_ns = miss_probe_ns(16, /*filter=*/false, nullptr);
  const double miss_filter_ns = miss_probe_ns(16, /*filter=*/true,
                                              &filter_skips);
  const std::uint32_t kTouchAssocs[] = {8, 24};  // order-word / stamp mode
  double rot_mru_ns[2], rot_cyc_ns[2], pak_mru_ns[2], pak_cyc_ns[2];
  for (int i = 0; i < 2; ++i) {
    rot_mru_ns[i] = touch_ns(kTouchAssocs[i], /*packed=*/false, false);
    rot_cyc_ns[i] = touch_ns(kTouchAssocs[i], /*packed=*/false, true);
    pak_mru_ns[i] = touch_ns(kTouchAssocs[i], /*packed=*/true, false);
    pak_cyc_ns[i] = touch_ns(kTouchAssocs[i], /*packed=*/true, true);
  }

  JsonWriter w;
  w.begin_object();
  w.kv("bench", "micro_overheads");
  w.kv("schema_version", 5);
  w.key("recorder_overhead").begin_object();
  w.kv("machine", "mini");
  w.kv("workload", "fork_tree(11) under WS, best of 5");
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
  w.key("fork_alloc").begin_object();
  w.kv("workload", "LambdaJob new+delete, 64 live, best of 5");
  w.kv("heap_ops_per_sec", heap_alloc);
  w.kv("arena_ops_per_sec", arena_alloc);
  w.kv("speedup", arena_alloc / heap_alloc);
  w.end_object();
  w.key("fiber_switch").begin_object();
  w.kv("workload", "resume+yield round trip, 4M switches, best of 5");
  w.kv("impl", SBS_ASM_FIBERS ? "asm" : "ucontext");
  w.kv("round_trips_per_sec", fiber_ops);
  w.kv("ns_per_round_trip", 1e9 / fiber_ops);
  w.end_object();
  w.key("cache_find_way").begin_object();
  w.kv("workload", "contains() mixed hit/miss, 256 sets, best of 3");
  for (int i = 0; i < 3; ++i) {
    // Report the impl a cache of this associativity actually selects
    // (narrow sets demote AVX2 to inline SSE2 — cache.cpp).
    const sim::Cache probe_cache(256 * kFindWayAssocs[i] * 64, 64,
                                 kFindWayAssocs[i]);
    char cell[32];
    std::snprintf(cell, sizeof cell, "assoc_%u", kFindWayAssocs[i]);
    w.key(cell).begin_object();
    w.kv("simd_impl", sim::simd::probe_impl_name(probe_cache.probe_impl()));
    w.kv("scalar_ns_per_probe", scalar_ns[i]);
    w.kv("simd_ns_per_probe", simd_ns[i]);
    w.kv("speedup", scalar_ns[i] / simd_ns[i]);
    w.end_object();
  }
  w.end_object();
  w.key("cache_presence_filter").begin_object();
  w.kv("workload", "guaranteed-miss probe_and_touch, assoc 16, best of 3");
  w.kv("scan_ns_per_probe", miss_scan_ns);
  w.kv("filtered_ns_per_probe", miss_filter_ns);
  w.kv("filter_skips", filter_skips);
  w.kv("speedup", miss_scan_ns / miss_filter_ns);
  w.end_object();
  w.key("cache_lru_touch").begin_object();
  w.kv("workload",
       "probe_and_touch on one fully-assoc set, MRU-repeat vs LRU-cycle");
  for (int i = 0; i < 2; ++i) {
    char cell[32];
    std::snprintf(cell, sizeof cell, "assoc_%u", kTouchAssocs[i]);
    w.key(cell).begin_object();
    w.kv("rotate_mru_ns", rot_mru_ns[i]);
    w.kv("rotate_lru_cycle_ns", rot_cyc_ns[i]);
    w.kv("packed_mru_ns", pak_mru_ns[i]);
    w.kv("packed_lru_cycle_ns", pak_cyc_ns[i]);
    w.kv("lru_cycle_speedup", rot_cyc_ns[i] / pak_cyc_ns[i]);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  const char* path = "BENCH_micro_overheads.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "%s\n", w.str().c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
  }
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
  std::printf("fork alloc:    heap %.1fM ops/s, arena %.1fM ops/s (%.2fx)\n",
              heap_alloc / 1e6, arena_alloc / 1e6, arena_alloc / heap_alloc);
  std::printf("fiber switch:  %.1fM round trips/s (%.1f ns each, %s)\n",
              fiber_ops / 1e6, 1e9 / fiber_ops,
              SBS_ASM_FIBERS ? "asm" : "ucontext");
  for (int i = 0; i < 3; ++i) {
    std::printf(
        "cache find_way assoc %-2u: scalar %.1f ns, simd %.1f ns (%.2fx)\n",
        kFindWayAssocs[i], scalar_ns[i], simd_ns[i],
        scalar_ns[i] / simd_ns[i]);
  }
  std::printf(
      "cache miss probe assoc 16: scan %.1f ns, filtered %.1f ns (%.2fx)\n",
      miss_scan_ns, miss_filter_ns, miss_scan_ns / miss_filter_ns);
  for (int i = 0; i < 2; ++i) {
    std::printf(
        "cache touch assoc %-2u: rotate mru/cycle %.1f/%.1f ns, packed "
        "%.1f/%.1f ns\n",
        kTouchAssocs[i], rot_mru_ns[i], rot_cyc_ns[i], pak_mru_ns[i],
        pak_cyc_ns[i]);
  }
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
