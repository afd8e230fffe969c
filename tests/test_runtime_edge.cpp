// Edge cases of the fork-join runtime: strand/fork contracts, parallel_for
// boundary ranges, SBJob size rounding, config file loading.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>

#include "machine/config.h"
#include "machine/topology.h"
#include "runtime/jobs.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "sched/registry.h"

namespace sbs::runtime {
namespace {

using machine::Preset;
using machine::Topology;

// No engine runs these strands, so their jobs live on the stack.
TEST(StrandContract, DoubleForkAborts) {
  NopJob child(64), cont(64);
  Strand strand(0, 1);
  strand.fork({&child}, &cont);
  EXPECT_DEATH({ strand.fork({&child}, &cont); }, "at most once");
}

TEST(StrandContract, EmptyChildrenAborts) {
  NopJob cont(64);
  Strand strand(0, 1);
  EXPECT_DEATH({ strand.fork({}, &cont); }, "at least one child");
}

TEST(StrandContract, NullContinuationAborts) {
  NopJob child(64);
  Strand strand(0, 1);
  EXPECT_DEATH({ strand.fork({&child}, nullptr); }, "continuation");
}

TEST(SBJobSizes, RoundToLines) {
  EXPECT_EQ(SBJob::round_to_lines(0, 64), 0u);
  EXPECT_EQ(SBJob::round_to_lines(1, 64), 64u);
  EXPECT_EQ(SBJob::round_to_lines(64, 64), 64u);
  EXPECT_EQ(SBJob::round_to_lines(65, 64), 128u);
  EXPECT_EQ(SBJob::round_to_lines(kNoSize, 64), kNoSize);
}

TEST(SBJobSizes, StrandDefaultsToTaskSize) {
  class Annotated final : public SBJob {
   public:
    using SBJob::SBJob;
    void execute(Strand&) override {}
  };
  Annotated job(1000);
  EXPECT_EQ(job.size(64), 1024u);
  EXPECT_EQ(job.strand_size(64), 1024u);  // paper footnote 1 default
}

class PforRange : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

INSTANTIATE_TEST_SUITE_P(
    Ranges, PforRange,
    ::testing::Values(std::make_tuple(0, 1, 1),      // single element
                      std::make_tuple(0, 1, 100),    // grain > range
                      std::make_tuple(5, 6, 1),      // offset single
                      std::make_tuple(0, 97, 10),    // uneven split
                      std::make_tuple(100, 228, 1),  // grain 1
                      std::make_tuple(0, 1024, 1024)));  // exactly one leaf

TEST_P(PforRange, EveryIndexOnce) {
  const auto& [lo, hi, grain] = GetParam();
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(hi));
  const Topology topo(Preset("mini"));
  auto sched = sched::MakeScheduler("WS");
  ThreadPool pool(topo);
  Job* root = make_job(
      [&, lo = lo, hi = hi, grain = grain](Strand& strand) {
        strand.fork({ParallelFor::make_flat(
                        static_cast<std::size_t>(lo),
                        static_cast<std::size_t>(hi),
                        static_cast<std::size_t>(grain), 8,
                        [&hits](std::size_t i0, std::size_t i1) {
                          for (std::size_t i = i0; i < i1; ++i)
                            hits[i].fetch_add(1);
                        })},
                    make_nop());
      },
      1 << 20, 64);
  pool.run(*sched, root);
  for (int i = 0; i < hi; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), i >= lo ? 1 : 0) << i;
  }
}

TEST(ConfigFile, LoadsFig4Artifact) {
  // Locate the artifact relative to this source file (cwd-independent).
  std::string path = __FILE__;
  path = path.substr(0, path.find_last_of('/'));
  path += "/../configs/xeon7560_fig4.cfg";
  const machine::MachineConfig cfg = machine::LoadConfigFile(path);
  EXPECT_EQ(cfg.num_threads(), 32);
  EXPECT_EQ(cfg.levels[1].size, 3ull * (1ull << 22));
  const Topology topo(cfg);
  EXPECT_EQ(topo.nodes_at_depth(1).size(), 4u);
}

TEST(ConfigFile, MissingFileAborts) {
  EXPECT_DEATH({ machine::LoadConfigFile("/nonexistent/x.cfg"); },
               "cannot open");
}

TEST(ThreadPool, SingleWorkerExecutesEverything) {
  const Topology topo(Preset("mini"));
  auto sched = sched::MakeScheduler("CilkWS");
  ThreadPool pool(topo, 1);
  std::atomic<int> count{0};
  Job* root = make_job(
      [&count](Strand& strand) {
        std::vector<Job*> children;
        for (int i = 0; i < 50; ++i)
          children.push_back(
              make_job([&count](Strand&) { count.fetch_add(1); }, 64));
        strand.fork(std::move(children), make_nop());
      },
      1 << 12, 64);
  const RunStats stats = pool.run(*sched, root);
  EXPECT_EQ(count.load(), 50);
  EXPECT_EQ(stats.per_thread.size(), 1u);
}

}  // namespace
}  // namespace sbs::runtime
