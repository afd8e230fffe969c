// Integration tests for the PMH simulation engine: correctness of executed
// programs, determinism, overhead accounting, and the paper's headline
// qualitative effect — space-bounded scheduling reduces shared-cache misses
// relative to work stealing on a memory-intensive recursive workload.
#include <gtest/gtest.h>

#include <cstring>

#include "machine/topology.h"
#include "runtime/jobs.h"
#include "runtime/mem.h"
#include "sched/registry.h"
#include "sim/engine.h"

namespace sbs::sim {
namespace {

using machine::Preset;
using machine::Topology;
using runtime::Job;
using runtime::Strand;
using runtime::kNoSize;
using runtime::make_job;
using runtime::make_nop;
using sched::MakeScheduler;

/// A miniature RRM (paper §5.1): repeat a map A->B r times over [lo,hi),
/// then recurse on the two halves, down to `base` elements.
struct MiniRrm {
  mem::Array<double>* a;
  mem::Array<double>* b;
  int repeats;
  std::size_t base;

  Job* make(std::size_t lo, std::size_t hi) const {
    const std::uint64_t bytes = 2 * (hi - lo) * sizeof(double);
    MiniRrm self = *this;
    return make_job(
        [self, lo, hi](Strand& strand) {
          for (int r = 0; r < self.repeats; ++r) {
            self.a->touch_range(lo, hi, false);
            for (std::size_t i = lo; i < hi; ++i)
              (*self.b)[i] = (*self.a)[i] + 1.0;
            self.b->touch_range(lo, hi, true);
            mem::work(2 * (hi - lo));
          }
          if (hi - lo > self.base) {
            const std::size_t mid = lo + (hi - lo) / 2;
            strand.fork2(self.make(lo, mid), self.make(mid, hi), make_nop());
          }
        },
        bytes, bytes);
  }
};

SimResult run_rrm(const Topology& topo, const std::string& sched_name,
                  std::size_t n, SimParams params = SimParams()) {
  mem::Array<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<double>(i);
  std::memset(b.data(), 0, n * sizeof(double));

  MiniRrm rrm{&a, &b, /*repeats=*/3, /*base=*/64};
  auto sched = MakeScheduler(sched_name);
  SimEngine engine(topo, params);
  SimResult result = engine.run(*sched, rrm.make(0, n));

  // The program really ran: B = A + 1 everywhere.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(b[i], static_cast<double>(i) + 1.0) << i;
    if (b[i] != static_cast<double>(i) + 1.0) break;
  }
  return result;
}

class SimEverySched : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(Schedulers, SimEverySched,
                         ::testing::Values("WS", "PWS", "CilkWS", "SB",
                                           "SB-D"));

TEST_P(SimEverySched, ExecutesCorrectlyAndCounts) {
  const Topology topo(Preset("mini"));
  const SimResult result = run_rrm(topo, GetParam(), 1 << 14);
  EXPECT_GT(result.makespan_cycles, 0u);
  EXPECT_GT(result.counters.accesses, 0u);
  EXPECT_GT(result.counters.llc_misses(), 0u);
  EXPECT_EQ(result.stats.per_thread.size(), 4u);
  EXPECT_GT(result.stats.avg_active_s(), 0.0);
  // Every strand was executed by some core.
  EXPECT_GT(result.stats.total_strands(), 100u);
}

TEST_P(SimEverySched, DeterministicAcrossRuns) {
  const Topology topo(Preset("mini"));
  const SimResult r1 = run_rrm(topo, GetParam(), 1 << 13);
  const SimResult r2 = run_rrm(topo, GetParam(), 1 << 13);
  EXPECT_EQ(r1.makespan_cycles, r2.makespan_cycles);
  EXPECT_EQ(r1.counters.llc_misses(), r2.counters.llc_misses());
  EXPECT_EQ(r1.counters.accesses, r2.counters.accesses);
  EXPECT_EQ(r1.stats.total_strands(), r2.stats.total_strands());
}

TEST(SimEngine, SpaceBoundedReducesSharedCacheMisses) {
  // The paper's central observation (Figs. 5-7): on a memory-intensive
  // divide-and-conquer workload whose working set exceeds the shared cache,
  // the space-bounded scheduler incurs substantially fewer shared-cache
  // misses than work stealing, because it anchors befitting subtrees
  // instead of letting many unrelated subtrees thrash the cache. The effect
  // scales with cores-per-shared-cache (Fig. 7), so use the paper's 8.
  machine::MachineConfig cfg = machine::ParseConfig(R"(
    int num_levels = 3;
    int fan_outs[3]  = {2, 8, 1};
    long long int sizes[3] = {0, 1<<18, 1<<12};  // 256 KB shared, 4 KB L1
    int block_sizes[3] = {64, 64, 64};
    int assoc[3] = {0, 16, 4};
    int dram_latency = 100;
    int page_bytes = 1<<12;
  )");
  const Topology topo(cfg);
  const std::size_t n = 1 << 17;  // 1 MB per array vs 256 KB shared caches
  const SimResult ws = run_rrm(topo, "WS", n);
  const SimResult sb = run_rrm(topo, "SB", n);
  EXPECT_LT(static_cast<double>(sb.counters.llc_misses()),
            0.85 * static_cast<double>(ws.counters.llc_misses()))
      << "WS misses=" << ws.counters.llc_misses()
      << " SB misses=" << sb.counters.llc_misses();
}

TEST(SimEngine, ThrottledBandwidthSlowsMemoryBoundRun) {
  // Slow the links (0.5 B/cycle vs the preset's 8) so the streaming map is
  // genuinely bandwidth-bound. With fast links the run is latency-bound and
  // restricting pages to socket 0 mostly creates a locality asymmetry: an
  // efficient work stealer shifts strands toward the cores local to the one
  // home socket and can finish *sooner* than the all-sockets run.
  machine::MachineConfig cfg = Preset("mini");
  cfg.socket_bytes_per_cycle = 0.5;
  const Topology topo(cfg);
  SimParams full;
  SimParams quarter;
  quarter.memory.allowed_sockets = {0};  // half the links on mini
  const SimResult fast = run_rrm(topo, "WS", 1 << 15, full);
  const SimResult slow = run_rrm(topo, "WS", 1 << 15, quarter);
  EXPECT_GT(slow.makespan_cycles, fast.makespan_cycles);
  EXPECT_GT(slow.counters.queue_wait_cycles,
            fast.counters.queue_wait_cycles);
  // Miss counts should be (nearly) bandwidth-independent (paper §5.3).
  const double ratio = static_cast<double>(slow.counters.llc_misses()) /
                       static_cast<double>(fast.counters.llc_misses());
  EXPECT_NEAR(ratio, 1.0, 0.15);
}

TEST(SimEngine, SingleCoreMachineStillCompletes) {
  machine::MachineConfig cfg = Preset("mini");
  cfg.levels[0].fanout = 1;  // one socket
  cfg.levels[1].fanout = 1;  // one core
  const Topology topo(cfg);
  const SimResult result = run_rrm(topo, "WS", 1 << 12);
  EXPECT_EQ(result.stats.per_thread.size(), 1u);
  EXPECT_GT(result.makespan_cycles, 0u);
}

TEST(SimEngine, ReusableAcrossRuns) {
  const Topology topo(Preset("mini"));
  SimEngine engine(topo);
  auto sched = MakeScheduler("WS");
  for (int round = 0; round < 3; ++round) {
    const std::size_t n = 1 << 12;
    mem::Array<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) a[i] = 1.0;
    MiniRrm rrm{&a, &b, 2, 256};
    const SimResult result = engine.run(*sched, rrm.make(0, n));
    EXPECT_GT(result.makespan_cycles, 0u);
  }
}

TEST(SimEngine, OverheadBreakdownAccountsCallbacks) {
  const Topology topo(Preset("mini"));
  const SimResult result = run_rrm(topo, "WS", 1 << 14);
  double add = 0, done = 0, get = 0;
  for (const auto& t : result.stats.per_thread) {
    add += t.add_s;
    done += t.done_s;
    get += t.get_s;
  }
  EXPECT_GT(add, 0.0);  // every fork charged
  EXPECT_GT(get, 0.0);  // every strand delivery charged
  // WS::done is a no-op: zero instrumented operations.
  EXPECT_EQ(done, 0.0);
}

TEST(SimEngine, SchedulerOverheadEmergesFromOps) {
  // SB walks a lock-protected tree; WS touches one deque. The simulator
  // charges overhead from instrumented op counts, so SB's scheduling
  // overhead must come out strictly higher for the same program.
  const Topology topo(Preset("mini"));
  const SimResult ws = run_rrm(topo, "WS", 1 << 14);
  const SimResult sb = run_rrm(topo, "SB", 1 << 14);
  const double ws_sched =
      ws.stats.avg(&runtime::ThreadBreakdown::add_s) +
      ws.stats.avg(&runtime::ThreadBreakdown::get_s) +
      ws.stats.avg(&runtime::ThreadBreakdown::done_s);
  const double sb_sched =
      sb.stats.avg(&runtime::ThreadBreakdown::add_s) +
      sb.stats.avg(&runtime::ThreadBreakdown::get_s) +
      sb.stats.avg(&runtime::ThreadBreakdown::done_s);
  EXPECT_GT(sb_sched, ws_sched);
}

// huge128 and huge256 have 2048 virtual cores, and each core allocates
// mid-strand arrays from its own arena stream (mem.h).
TEST(SimEngine, ArenaHasAStreamForEveryCoreOfTheLargestConfig) {
  struct LastCore final : mem::AccessSink {
    void touch(std::uintptr_t, std::uint64_t, bool) override {}
    void work(std::uint64_t) override {}
    int stream_id() const override { return 2047; }
  } sink;
  mem::SinkScope scope(&sink);
  mem::Array<double> array(1 << 10);
  array[0] = 1.0;
  array[(1 << 10) - 1] = 2.0;
  EXPECT_EQ(array[0] + array[(1 << 10) - 1], 3.0);
}

TEST(SimEngine, MoreCoresThanArenaStreamsFailsAtConstruction) {
  machine::MachineConfig cfg = Preset("mini");
  cfg.levels[0].fanout = static_cast<std::uint32_t>(mem::arena::kStreams);
  cfg.levels[1].fanout = 2;
  const Topology topo(cfg);
  EXPECT_DEATH({ SimEngine engine(topo); }, "more virtual cores than arena");
}

}  // namespace
}  // namespace sbs::sim
