// Integration tests: fork/join semantics, parallel_for, and the real
// thread-pool engine, under every scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "machine/topology.h"
#include "runtime/jobs.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "sched/registry.h"

namespace sbs::runtime {
namespace {

using machine::Preset;
using machine::Topology;
using sched::MakeScheduler;

/// Recursive fork-join sum over [lo, hi): returns the job; writes the result
/// into out[slot]. Every task is annotated with its range footprint.
Job* make_sum_job(const std::vector<std::int64_t>& data, std::size_t lo,
                  std::size_t hi, std::int64_t* out) {
  const std::uint64_t bytes = (hi - lo) * sizeof(std::int64_t);
  if (hi - lo <= 64) {
    return make_job(
        [&data, lo, hi, out](Strand&) {
          *out = std::accumulate(data.begin() + static_cast<std::ptrdiff_t>(lo),
                                 data.begin() + static_cast<std::ptrdiff_t>(hi),
                                 std::int64_t{0});
        },
        bytes);
  }
  return make_job(
      [&data, lo, hi, out](Strand& strand) {
        const std::size_t mid = lo + (hi - lo) / 2;
        auto* partial = new std::int64_t[2]();
        strand.fork2(make_sum_job(data, lo, mid, &partial[0]),
                     make_sum_job(data, mid, hi, &partial[1]),
                     make_job(
                         [partial, out](Strand&) {
                           *out = partial[0] + partial[1];
                           delete[] partial;
                         },
                         kNoSize, /*strand_bytes=*/64));
      },
      bytes, /*strand_bytes=*/64);
}

class EverySched : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Schedulers, EverySched,
                         ::testing::Values("WS", "PWS", "CilkWS", "SB",
                                           "SB-D"));

TEST_P(EverySched, ForkJoinSumIsCorrect) {
  const Topology topo(Preset("mini"));
  std::vector<std::int64_t> data(10000);
  std::iota(data.begin(), data.end(), 1);
  const std::int64_t expect = 10000LL * 10001 / 2;

  auto sched = MakeScheduler(GetParam());
  ThreadPool pool(topo);
  std::int64_t result = 0;
  RunStats stats = pool.run(*sched, make_sum_job(data, 0, data.size(), &result));
  EXPECT_EQ(result, expect);
  EXPECT_GT(stats.total_strands(), 100u);  // the tree actually unfolded
}

TEST_P(EverySched, ParallelForCoversEveryIndexOnce) {
  const Topology topo(Preset("mini_deep"));
  constexpr std::size_t kN = 20000;
  std::vector<std::atomic<int>> hits(kN);

  auto sched = MakeScheduler(GetParam());
  ThreadPool pool(topo);
  Job* root = make_job(
      [&hits](Strand& strand) {
        strand.fork({ParallelFor::make_flat(
                        0, kN, /*grain=*/128, sizeof(int),
                        [&hits](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i)
                            hits[i].fetch_add(1, std::memory_order_relaxed);
                        })},
                    make_nop());
      },
      kN * sizeof(int), 64);
  pool.run(*sched, root);
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_P(EverySched, DeepSerialChainOfForks) {
  // A degenerate chain: each level forks a single child; exercises join
  // counters of width 1 and continuation ordering.
  const Topology topo(Preset("mini"));
  std::vector<int> order;

  std::function<Job*(int)> chain = [&](int depth) -> Job* {
    if (depth == 0) {
      return make_job([&order](Strand&) { order.push_back(0); }, 64);
    }
    return make_job(
        [&order, depth, &chain](Strand& strand) {
          strand.fork({chain(depth - 1)},
                      make_job([&order, depth](Strand&) {
                        order.push_back(depth);
                      }, kNoSize, 64));
        },
        64, 64);
  };
  auto sched = MakeScheduler(GetParam());
  ThreadPool pool(topo, 1);  // single worker => deterministic order
  pool.run(*sched, chain(50));
  ASSERT_EQ(order.size(), 51u);
  for (int d = 0; d <= 50; ++d) EXPECT_EQ(order[static_cast<std::size_t>(d)], d);
}

TEST_P(EverySched, WideFork) {
  const Topology topo(Preset("mini"));
  constexpr int kWidth = 200;
  std::atomic<int> ran{0};
  Job* root = make_job(
      [&ran](Strand& strand) {
        std::vector<Job*> children;
        children.reserve(kWidth);
        for (int i = 0; i < kWidth; ++i) {
          children.push_back(make_job(
              [&ran](Strand&) { ran.fetch_add(1); }, 64));
        }
        strand.fork(std::move(children), make_nop());
      },
      64 * kWidth, 64);
  auto sched = MakeScheduler(GetParam());
  ThreadPool pool(topo);
  pool.run(*sched, root);
  EXPECT_EQ(ran.load(), kWidth);
}

TEST_P(EverySched, TimerBreakdownIsPopulated) {
  const Topology topo(Preset("mini"));
  std::vector<std::int64_t> data(5000, 1);
  std::int64_t result = 0;
  auto sched = MakeScheduler(GetParam());
  ThreadPool pool(topo);
  RunStats stats = pool.run(*sched, make_sum_job(data, 0, data.size(), &result));
  EXPECT_EQ(stats.per_thread.size(), 4u);
  EXPECT_GT(stats.wall_s, 0.0);
  double active = 0;
  for (const auto& t : stats.per_thread) active += t.active_s;
  EXPECT_GT(active, 0.0);
  EXPECT_FALSE(stats.summary().empty());
}

TEST(Runtime, NestedParallelForsCompose) {
  const Topology topo(Preset("mini"));
  constexpr std::size_t kRows = 40, kCols = 500;
  std::vector<std::atomic<int>> cells(kRows * kCols);
  auto sched = MakeScheduler("WS");
  ThreadPool pool(topo);
  Job* root = make_job(
      [&cells](Strand& strand) {
        strand.fork(
            {ParallelFor::make_flat(
                0, kRows, 1, kCols * sizeof(int),
                [&cells](std::size_t rlo, std::size_t rhi) {
                  // Leaf of the outer loop touches its whole row range.
                  for (std::size_t r = rlo; r < rhi; ++r)
                    for (std::size_t c = 0; c < kCols; ++c)
                      cells[r * kCols + c].fetch_add(1);
                })},
            make_nop());
      },
      kRows * kCols * sizeof(int), 64);
  pool.run(*sched, root);
  for (auto& cell : cells) ASSERT_EQ(cell.load(), 1);
}

TEST(Runtime, RunStatsAveragesAreConsistent) {
  RunStats stats;
  stats.per_thread.resize(2);
  stats.per_thread[0] = {1.0, 0.1, 0.1, 0.1, 0.1, 10};
  stats.per_thread[1] = {3.0, 0.3, 0.1, 0.1, 0.1, 30};
  EXPECT_DOUBLE_EQ(stats.avg_active_s(), 2.0);
  EXPECT_NEAR(stats.avg_overhead_s(), 0.5, 1e-12);
  EXPECT_EQ(stats.total_strands(), 40u);
}

TEST(Runtime, RunStatsAveragesIncludeIdleWorkers) {
  // The documented convention (§3.3): idle workers contribute 0 to the
  // numerator but still count in the denominator.
  RunStats stats;
  stats.per_thread.resize(4);
  stats.per_thread[0] = {4.0, 0.4, 0, 0, 0, 8};
  stats.per_thread[1] = {2.0, 0, 0, 0, 0, 4};
  // Threads 2 and 3 never ran a strand.
  EXPECT_DOUBLE_EQ(stats.avg_active_s(), 1.5);  // 6.0 / 4, not 6.0 / 2
  EXPECT_NEAR(stats.avg_overhead_s(), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(stats.max_active_s(), 4.0);
  EXPECT_DOUBLE_EQ(stats.max(&ThreadBreakdown::add_s), 0.4);
  EXPECT_NEAR(stats.imbalance(), 4.0 / 1.5, 1e-12);
}

TEST(Runtime, RunStatsEmptyAndAllIdleEdgeCases) {
  RunStats stats;
  EXPECT_DOUBLE_EQ(stats.avg_active_s(), 0.0);
  EXPECT_DOUBLE_EQ(stats.imbalance(), 0.0);
  stats.per_thread.resize(3);  // all idle
  EXPECT_DOUBLE_EQ(stats.avg_active_s(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max_active_s(), 0.0);
  EXPECT_DOUBLE_EQ(stats.imbalance(), 0.0);  // no division by zero
}

TEST(Runtime, SBRefusesUnannotatedRoot) {
  const Topology topo(Preset("mini"));
  auto sched = MakeScheduler("SB");
  ThreadPool pool(topo, 1);
  // The job is made inside the death statement: the child process that
  // dies owns it, and the parent allocates nothing it would leak.
  EXPECT_DEATH({ pool.run(*sched, make_job([](Strand&) {})); }, "size");
}

}  // namespace
}  // namespace sbs::runtime
