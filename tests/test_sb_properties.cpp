// Property tests for the space-bounded schedulers (paper §4.1): the
// anchored and bounded properties, the σ and µ parameters, and drain-clean
// termination — swept across machine shapes and parameter values.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "kernels/kernel.h"
#include "machine/config.h"
#include "machine/topology.h"
#include "runtime/jobs.h"
#include "runtime/strand_ops.h"
#include "runtime/thread_pool.h"
#include "sched/ops.h"
#include "sched/registry.h"
#include "sched/sb.h"
#include "sim/engine.h"

namespace sbs::sched {
namespace {

using machine::Preset;
using machine::Topology;
using runtime::Job;
using runtime::Strand;
using runtime::StrandOps;
using runtime::make_job;
using runtime::make_nop;

/// A fork-join tree of annotated tasks with known footprints.
Job* tree(std::uint64_t bytes, int depth) {
  if (depth == 0) return make_job([](Strand&) {}, bytes);
  return make_job(
      [bytes, depth](Strand& strand) {
        strand.fork2(tree(bytes / 2, depth - 1), tree(bytes / 2, depth - 1),
                     make_nop());
      },
      bytes, 64);
}

class SigmaMu
    : public ::testing::TestWithParam<std::tuple<double, double, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, SigmaMu,
    ::testing::Combine(::testing::Values(0.3, 0.5, 0.9, 1.0),  // sigma
                       ::testing::Values(0.1, 0.2, 1.0),       // mu
                       ::testing::Bool()));                    // distributed

TEST_P(SigmaMu, BoundedPropertyHoldsThroughoutRun) {
  const auto& [sigma, mu, distributed] = GetParam();
  const Topology topo(Preset("mini_deep"));

  SpaceBounded::Options options;
  options.sigma = sigma;
  options.mu = mu;
  options.distributed_top = distributed;
  SpaceBounded sched(options);

  sim::SimEngine engine(topo);
  // Root footprint spans several cache levels of mini_deep (L3 256 KB).
  engine.run(sched, tree(1u << 20, 10));

  // The bounded property (§4.1): anchored-task bytes plus µ-capped strand
  // bytes never exceeded any cache's capacity. Occupancy is tracked
  // exactly by the scheduler; check its high-water mark per cache node.
  // Strand charges are bounded by one per hardware thread below the node.
  for (int id = 0; id < topo.num_nodes(); ++id) {
    const auto& node = topo.node(id);
    if (node.depth < 1 || node.depth >= topo.leaf_depth()) continue;
    const std::uint64_t capacity = topo.level_of(id).size;
    const std::uint64_t strand_allowance =
        static_cast<std::uint64_t>(
            mu * static_cast<double>(capacity)) *
        static_cast<std::uint64_t>(node.num_leaves);
    EXPECT_LE(sched.max_occupied(id), capacity + strand_allowance)
        << "node " << id << " depth " << node.depth;
    // And after the run everything must have been released.
    EXPECT_EQ(sched.occupied(id), 0u) << "node " << id;
  }
}

TEST_P(SigmaMu, KernelRunsVerifyAcrossParameters) {
  const auto& [sigma, mu, distributed] = GetParam();
  kernels::KernelParams params;
  params.n = 60000;
  params.base = 512;
  auto kernel = kernels::MakeKernel("rrm", params);
  kernel->prepare(11);

  SpaceBounded::Options options;
  options.sigma = sigma;
  options.mu = mu;
  options.distributed_top = distributed;
  SpaceBounded sched(options);

  const Topology topo(Preset("mini"));
  sim::SimEngine engine(topo);
  engine.run(sched, kernel->make_root());
  EXPECT_TRUE(kernel->verify());
}

TEST(SpaceBounded, TasksAnchorAtBefittingLevels) {
  // A task of ~half-L2 footprint on mini (L2 64 KB shared, σ=0.5) must
  // anchor at the L2 level, and its small subtasks must not re-anchor.
  const Topology topo(Preset("mini"));
  SpaceBounded sched(SpaceBounded::Options{});
  sim::SimEngine engine(topo);
  engine.run(sched, tree(/*bytes=*/48 * 1024, /*depth=*/6));
  const std::string stats = sched.stats_string();
  // Root (96K... wait: tree(48K) root task = 48K bytes > σ64K/2=32K →
  // anchors at root; children 24K ≤ 32K → anchor at L2 (depth 1).
  EXPECT_NE(stats.find("anchors="), std::string::npos);
  EXPECT_GT(sched.max_occupied(1), 0u);  // some depth-1 cache was charged
}

TEST(SpaceBounded, RejectsInvalidParameters) {
  SpaceBounded::Options bad;
  bad.sigma = 0.0;
  EXPECT_DEATH({ SpaceBounded s(bad); }, "sigma");
  bad.sigma = 1.5;
  EXPECT_DEATH({ SpaceBounded s(bad); }, "sigma");
  SpaceBounded::Options bad_mu;
  bad_mu.mu = 0.0;
  EXPECT_DEATH({ SpaceBounded s(bad_mu); }, "mu");
}

TEST(SpaceBounded, HigherSigmaAnchorsFewerTasksConcurrently) {
  // σ=1.0 lets a single befitting task consume a whole cache, so admission
  // failures should be at least as common as with σ=0.5 (Fig. 10's cause).
  const Topology topo(Preset("mini"));

  auto run_with_sigma = [&](double sigma) {
    SpaceBounded::Options options;
    options.sigma = sigma;
    SpaceBounded sched(options);
    sim::SimEngine engine(topo);
    kernels::KernelParams params;
    params.n = 120000;
    params.base = 512;
    auto kernel = kernels::MakeKernel("rrm", params);
    kernel->prepare(17);
    const auto result = engine.run(sched, kernel->make_root());
    return result.stats.avg_empty_s();
  };
  // Not strictly monotone in general, but σ=1.0 should not load-balance
  // better than σ=0.5 on this memory-bound recursion.
  EXPECT_GE(run_with_sigma(1.0) * 1.05, run_with_sigma(0.5));
}

// An empty poll — by far the most common get() on a many-core machine —
// must return nothing and charge exactly one instrumented op per queue on
// the thread's probe path: the local queue and every bucket of each cache
// from the innermost outwards, with SB-D's top bucket split into one queue
// per child cache. Counted here from the topology alone.
std::uint64_t expected_probe_ops(const Topology& topo, int thread_id,
                                 bool distributed) {
  const int max_depth = topo.num_cache_levels();
  std::uint64_t n = 0;
  for (int id = topo.node(topo.leaf_of_thread(thread_id)).parent; id != -1;
       id = topo.node(id).parent) {
    const int depth = topo.node(id).depth;
    n += 1;  // local queue
    for (int b = depth + 1; b <= max_depth; ++b) {
      n += distributed && b == depth + 1
               ? static_cast<std::uint64_t>(topo.node(id).num_children)
               : 1;
    }
  }
  return n;
}

class EmptyPoll
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    Machines, EmptyPoll,
    ::testing::Combine(::testing::Values("xeon7560_s8", "huge64"),
                       ::testing::Bool()),  // distributed (SB-D)
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_SBD" : "_SB");
    });

TEST_P(EmptyPoll, ChargesOneOpPerQueueOnThePath) {
  const auto& [machine_name, distributed] = GetParam();
  machine::MachineConfig cfg;
  if (machine_name == "huge64") {
    // Located relative to this source file (ctest runs from the build tree).
    std::string path = __FILE__;
    path = path.substr(0, path.find_last_of('/'));
    cfg = machine::LoadConfigFile(path + "/../configs/huge64_4level.cfg");
  } else {
    cfg = Preset(machine_name);
  }
  const Topology topo(cfg);
  SpaceBounded::Options options;
  options.distributed_top = distributed;
  SpaceBounded sched(options);
  sched.start(topo, topo.num_threads());

  std::vector<int> push_log;
  EXPECT_TRUE(sched.set_push_log(&push_log));

  std::uint64_t total = 0;
  for (int t = 0; t < topo.num_threads(); ++t) {
    // The simulator's idle fast-forward charges a quiet core this many ops
    // per poll instead of calling get(); asking must cost nothing.
    std::uint64_t ops0 = ops_snapshot();
    const std::int64_t predicted = sched.idle_poll_ops(t);
    EXPECT_EQ(ops_snapshot(), ops0) << "thread " << t;
    ops0 = ops_snapshot();
    EXPECT_EQ(sched.get(t), nullptr) << "thread " << t;
    const std::uint64_t ops = ops_snapshot() - ops0;
    EXPECT_EQ(ops, expected_probe_ops(topo, t, distributed)) << "thread " << t;
    EXPECT_EQ(predicted, static_cast<std::int64_t>(ops)) << "thread " << t;
    total += ops;
  }
  EXPECT_TRUE(push_log.empty());

  // Once the root job is queued at the root node, which is on every
  // thread's probe path, no poll is certain to come back empty.
  Job* root_job = make_job([](Strand&) {}, 64);
  const StrandOps::Root root = StrandOps::make_root(root_job);
  sched.add(root_job, 0);
  EXPECT_EQ(push_log, std::vector<int>{topo.root()});
  for (int t = 0; t < topo.num_threads(); ++t)
    EXPECT_EQ(sched.idle_poll_ops(t), -1) << "thread " << t;
  sched.set_push_log(nullptr);

  // Run the root to completion, as an engine would, so the scheduler drains.
  Job* job = sched.get(0);
  ASSERT_EQ(job, root_job);
  Strand strand(0, topo.num_threads());
  job->execute(strand);
  sched.done(job, 0, /*task_completed=*/true);
  std::vector<Job*> to_add;
  bool root_completed = false;
  StrandOps::settle(job, strand, to_add, root_completed);
  EXPECT_TRUE(root_completed);
  EXPECT_TRUE(to_add.empty());
  EXPECT_EQ(push_log.size(), 1u);  // cleared: no longer written
  delete root.sentinel;
  sched.finish();
  // Spot-check the count itself on huge64 (4 cache levels, fan-outs
  // 64/2/4/1): SB walks 1+2+3+4+5 queues; SB-D's top buckets hold
  // 64/2/4/1 child queues, so 68+5+6+2+1.
  if (machine_name == "huge64") {
    EXPECT_EQ(total, static_cast<std::uint64_t>(topo.num_threads()) *
                         (distributed ? 82u : 15u));
  }
}

TEST(SpaceBounded, WorksOnRealThreadsToo) {
  const Topology topo(Preset("mini_deep"));
  SpaceBounded sched{SpaceBounded::Options{}};
  runtime::ThreadPool pool(topo);
  pool.run(sched, tree(1u << 18, 8));
  for (int id = 0; id < topo.num_nodes(); ++id) {
    EXPECT_EQ(sched.occupied(id), 0u);
  }
}

}  // namespace
}  // namespace sbs::sched
