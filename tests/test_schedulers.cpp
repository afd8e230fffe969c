// Unit tests for scheduler implementations through the add/get/done
// interface (no engine): queueing disciplines, steal behavior, victim
// distributions, and the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "machine/topology.h"
#include "runtime/jobs.h"
#include "runtime/strand_ops.h"
#include "sched/pws.h"
#include "sched/registry.h"
#include "sched/ws.h"

namespace sbs::sched {
namespace {

using machine::Preset;
using machine::Topology;
using runtime::Job;
using runtime::StrandOps;
using runtime::make_job;

/// Trivial annotated jobs whose task plumbing is initialized (schedulers
/// may dereference job->task()). The fixture owns the jobs: no engine runs
/// them, so nothing else frees them.
struct JobFixture {
  Job* make(std::uint64_t bytes = 64) {
    Job* job = make_job([](runtime::Strand&) {}, bytes);
    jobs.emplace_back(job);
    roots.push_back(StrandOps::make_root(job));
    return job;
  }
  ~JobFixture() {
    for (auto& r : roots) {
      delete r.task;
      delete r.sentinel;
    }
  }
  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<StrandOps::Root> roots;
};

TEST(WS, LocalLifoRemoteFifo) {
  const Topology topo(Preset("mini"));
  WorkStealing ws(1);
  ws.start(topo, 4);
  JobFixture fx;
  Job* a = fx.make();
  Job* b = fx.make();
  Job* c = fx.make();
  ws.add(a, 0);
  ws.add(b, 0);
  ws.add(c, 0);
  // Owner pops LIFO.
  EXPECT_EQ(ws.get(0), c);
  // A thief (any other thread) must see the OLDEST job first. Victim
  // selection is random; retry gets until thread 1 steals from thread 0.
  Job* stolen = nullptr;
  for (int attempt = 0; attempt < 1000 && stolen == nullptr; ++attempt)
    stolen = ws.get(1);
  ASSERT_NE(stolen, nullptr);
  EXPECT_EQ(stolen, a);  // FIFO end
  // Drain for finish()'s invariant.
  while (ws.get(0) == nullptr) {
  }
  ws.done(a, 1, true);
  ws.finish();
}

TEST(WS, GetReturnsNullWhenEverythingEmpty) {
  const Topology topo(Preset("mini"));
  WorkStealing ws(7);
  ws.start(topo, 4);
  for (int t = 0; t < 4; ++t) EXPECT_EQ(ws.get(t), nullptr);
  EXPECT_NE(ws.stats_string().find("failed_steals"), std::string::npos);
}

// The simulator's idle fast-forward (sim/engine.h) charges a WS/PWS
// thread's empty polls without calling get() only while idle_poll_ops()
// certifies them: a push log is registered and every deque is empty.
// Every add() must log the root, since any thread may steal the job.
TEST(WS, IdlePollOpsNeedLogAndEmptyDeques) {
  const Topology topo(Preset("mini"));
  for (const char* name : {"WS", "PWS", "CilkWS"}) {
    // One failed pop and a failed steal per attempt: CilkWS tries four
    // victims.
    const std::int64_t idle_ops = std::string(name) == "CilkWS" ? 5 : 2;
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      auto sched = MakeScheduler(name);
      sched->start(topo, threads);
      for (int t = 0; t < threads; ++t) EXPECT_EQ(sched->idle_poll_ops(t), -1);

      std::vector<int> log;
      EXPECT_TRUE(sched->set_push_log(&log));
      for (int t = 0; t < threads; ++t) {
        std::uint64_t ops0 = ops_snapshot();
        const std::int64_t predicted = sched->idle_poll_ops(t);
        EXPECT_EQ(ops_snapshot(), ops0);
        EXPECT_EQ(predicted, threads < 2 ? 1 : idle_ops);
        ops0 = ops_snapshot();
        EXPECT_EQ(sched->get(t), nullptr);
        EXPECT_EQ(static_cast<std::int64_t>(ops_snapshot() - ops0), predicted);
      }
      EXPECT_TRUE(log.empty());

      JobFixture fx;
      Job* job = fx.make();
      sched->add(job, threads - 1);
      EXPECT_EQ(log, std::vector<int>{topo.root()});
      for (int t = 0; t < threads; ++t) EXPECT_EQ(sched->idle_poll_ops(t), -1);
      // Taking the job, by a pop or (two threads: thread 1 is thread 0's
      // only victim) by a steal, empties the deques again.
      EXPECT_EQ(sched->get(threads == 2 ? 0 : threads - 1), job);
      EXPECT_EQ(sched->idle_poll_ops(0), threads < 2 ? 1 : idle_ops);
      sched->set_push_log(nullptr);
      for (int t = 0; t < threads; ++t) EXPECT_EQ(sched->idle_poll_ops(t), -1);
      sched->finish();
    }
  }
}

// A charge of k certified polls refunded j must leave the thread where
// k - j real failed get()s leave its twin: the same failed_steals, and the
// victim RNG at the same point, so that the next steal takes the same
// victim's job. PWS draws one or two numbers per attempt, local or remote;
// CilkWS makes four attempts per poll.
TEST(WS, IdleChargeEqualsFailedPolls) {
  const Topology topo(Preset("xeon7560_s8"));
  const int threads = topo.num_threads();
  const int tid = 5;
  for (const char* name : {"WS", "PWS", "CilkWS"}) {
    for (const auto& [k, j] : {std::pair{1, 0}, {1, 1}, {37, 0}, {37, 12},
                               {37, 37}, {500, 499}}) {
      SCOPED_TRACE(std::string(name) + " k=" + std::to_string(k) +
                   " j=" + std::to_string(j));
      auto charged = MakeScheduler(name);
      auto twin = MakeScheduler(name);
      std::vector<int> charged_log;
      std::vector<int> twin_log;
      charged->start(topo, threads);
      twin->start(topo, threads);
      ASSERT_TRUE(charged->set_push_log(&charged_log));
      ASSERT_TRUE(twin->set_push_log(&twin_log));

      const std::uint64_t ops0 = ops_snapshot();
      charged->charge_idle_polls(tid, k);
      if (j != 0) charged->charge_idle_polls(tid, -j);
      EXPECT_EQ(ops_snapshot(), ops0);
      for (int p = 0; p < k - j; ++p) EXPECT_EQ(twin->get(tid), nullptr);
      EXPECT_EQ(charged->stats_string(), twin->stats_string());

      // One job on every other thread: the next draw finds a job wherever
      // it lands.
      JobFixture fx;
      std::vector<Job*> charged_jobs(static_cast<std::size_t>(threads));
      std::vector<Job*> twin_jobs(static_cast<std::size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        if (t == tid) continue;
        charged_jobs[static_cast<std::size_t>(t)] = fx.make();
        twin_jobs[static_cast<std::size_t>(t)] = fx.make();
        charged->add(charged_jobs[static_cast<std::size_t>(t)], t);
        twin->add(twin_jobs[static_cast<std::size_t>(t)], t);
      }
      const auto victim = [](const std::vector<Job*>& jobs, Job* job) {
        return job == nullptr ? -1
                              : static_cast<int>(
                                    std::find(jobs.begin(), jobs.end(), job) -
                                    jobs.begin());
      };
      const int charged_victim = victim(charged_jobs, charged->get(tid));
      EXPECT_NE(charged_victim, -1);
      EXPECT_EQ(charged_victim, victim(twin_jobs, twin->get(tid)));
      EXPECT_EQ(charged->stats_string(), twin->stats_string());

      for (auto* sched : {charged.get(), twin.get()}) {
        sched->set_push_log(nullptr);
        for (int t = 0; t < threads; ++t) {
          while (sched->get(t) != nullptr) {
          }
        }
        sched->finish();
      }
    }
  }
}

TEST(PWS, VictimChoiceFavorsOwnSocket) {
  // mini: threads {0,1} on socket 0, {2,3} on socket 1. Give every other
  // thread one job; count where thread 0's steals land over many trials.
  const Topology topo(Preset("mini"));
  std::map<int, int> hits;  // victim thread -> count
  for (int trial = 0; trial < 3000; ++trial) {
    PriorityWorkStealing pws(static_cast<std::uint64_t>(trial));
    pws.start(topo, 4);
    JobFixture fx;
    Job* j1 = fx.make();
    Job* j2 = fx.make();
    Job* j3 = fx.make();
    pws.add(j1, 1);
    pws.add(j2, 2);
    pws.add(j3, 3);
    Job* got = pws.get(0);
    if (got == j1) ++hits[1];
    if (got == j2) ++hits[2];
    if (got == j3) ++hits[3];
    // Drain the rest so finish() sees empty deques.
    for (int t = 0; t < 4; ++t) {
      while (pws.get(t) != nullptr) {
      }
    }
    pws.finish();
  }
  // Intra-socket victim (thread 1) weight 10 vs 1 for each remote thread;
  // successful steals should come from thread 1 the vast majority of the
  // time (self-steals fail and return null, reducing the total).
  const int local = hits[1];
  const int remote = hits[2] + hits[3];
  EXPECT_GT(local, remote * 2) << "local=" << local << " remote=" << remote;
}

TEST(Registry, BuildsEverySchedulerWithCorrectName) {
  for (const auto& name : SchedulerNames()) {
    auto sched = MakeScheduler(name);
    ASSERT_NE(sched, nullptr);
    EXPECT_EQ(sched->name(), name);
    EXPECT_EQ(sched->needs_size_annotations(),
              name == "SB" || name == "SB-D");
  }
}

TEST(Registry, UnknownNameAborts) {
  EXPECT_DEATH({ MakeScheduler("nonsense"); }, "unknown scheduler");
}

TEST(Registry, SbOptionsPropagate) {
  SchedulerSpec spec;
  spec.name = "SB-D";
  spec.sb.sigma = 0.7;
  spec.sb.mu = 0.3;
  auto sched = MakeScheduler(spec);
  auto* sb = dynamic_cast<SpaceBounded*>(sched.get());
  ASSERT_NE(sb, nullptr);
  EXPECT_DOUBLE_EQ(sb->options().sigma, 0.7);
  EXPECT_DOUBLE_EQ(sb->options().mu, 0.3);
  EXPECT_TRUE(sb->options().distributed_top);
}

TEST(Ops, SpinlockCountsOperations) {
  const std::uint64_t before = ops_snapshot();
  Spinlock lock;
  {
    SpinGuard guard(lock);
  }
  count_op(3);
  EXPECT_EQ(ops_snapshot() - before, 4u);  // 1 lock + 3 explicit
}

}  // namespace
}  // namespace sbs::sched
