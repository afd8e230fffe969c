// Idle-backoff tests for the real thread pool: idle workers fall back
// through the spin -> yield -> sleep tiers without missing work or delaying
// run termination, and the engines surface the empty_wakeups statistic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "machine/topology.h"
#include "runtime/jobs.h"
#include "runtime/mem.h"
#include "runtime/scheduler.h"
#include "runtime/thread_pool.h"
#include "sched/registry.h"
#include "sim/engine.h"

namespace sbs::runtime {
namespace {

using machine::Preset;
using machine::Topology;

/// Forwards every callback to `inner` and counts the get() calls that
/// returned nothing.
class CountEmptyGets final : public Scheduler {
 public:
  explicit CountEmptyGets(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}
  void start(const machine::Topology& topo, int num_threads) override {
    inner_->start(topo, num_threads);
  }
  void finish() override { inner_->finish(); }
  void add(Job* job, int thread_id) override { inner_->add(job, thread_id); }
  Job* get(int thread_id) override {
    Job* job = inner_->get(thread_id);
    // Relaxed: a counter; the root strand only waits for it to grow.
    if (job == nullptr) empty_gets_.fetch_add(1, std::memory_order_relaxed);
    return job;
  }
  void done(Job* job, int thread_id, bool task_completed) override {
    inner_->done(job, thread_id, task_completed);
  }
  std::string name() const override { return inner_->name(); }

  std::uint64_t empty_gets() const {
    return empty_gets_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  std::atomic<std::uint64_t> empty_gets_{0};
};

TEST(IdleBackoff, SleepingWorkersObserveFinishPromptly) {
  const Topology topo(Preset("mini"));  // 4 workers
  ThreadPool pool(topo);
  CountEmptyGets sched(sched::MakeScheduler("WS"));

  // One strand that spins for at least 10ms, and until the scheduler has
  // answered more than 3 empty polls: on a quiet host the three idle
  // workers reach the 50us-sleep tier long before that, and on a loaded
  // one the strand waits for them to be scheduled at all. The wait is
  // capped at 3s, inside the 5s bound below, so a hang still fails it.
  Job* root = make_job([&sched](Strand&) {
    using std::chrono::steady_clock;
    const auto start = steady_clock::now();
    while (true) {
      const auto spun = steady_clock::now() - start;
      if (spun >= std::chrono::seconds(3)) break;
      if (spun >= std::chrono::milliseconds(10) && sched.empty_gets() > 3) {
        break;
      }
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  const RunStats stats = pool.run(sched, root);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Termination latency is bounded by one sleep quantum per worker, not by
  // how deep the backoff went. Allow very generous CI slack.
  EXPECT_LT(wall_s, 5.0);
  EXPECT_LT(stats.wall_s, 5.0);
  EXPECT_EQ(stats.total_strands(), 1u);
  // The idle workers polled an empty scheduler more than 3 times in all.
  EXPECT_GT(stats.total_empty_wakeups(), 3u);
}

TEST(IdleBackoff, BackoffDoesNotLoseLateWork) {
  // Fork after a delay: workers that have already backed off to the sleep
  // tier must still pick up the late-released children.
  const Topology topo(Preset("mini"));
  ThreadPool pool(topo);
  auto sched = sched::MakeScheduler("WS");

  std::atomic<int> executed{0};
  Job* root = make_job([&executed](Strand& strand) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(5);
    while (std::chrono::steady_clock::now() < until) {
    }
    std::vector<Job*> children;
    for (int i = 0; i < 8; ++i) {
      children.push_back(
          make_job([&executed](Strand&) { ++executed; }));
    }
    strand.fork(std::move(children), make_nop());
  });
  const RunStats stats = pool.run(*sched, root);
  EXPECT_EQ(executed.load(), 8);
  EXPECT_EQ(stats.total_strands(), 10u);  // root + 8 children + nop
}

TEST(IdleBackoff, SimEngineCountsEmptyWakeups) {
  // The simulator reports the analogous statistic: polls of an empty
  // scheduler while another virtual core still runs.
  const Topology topo(Preset("mini"));
  auto sched = sched::MakeScheduler("WS");
  sim::SimEngine engine(topo);

  mem::Array<double> data(1 << 12);
  Job* root = make_job(
      [&data](Strand&) { data.touch_range(0, 1 << 12, true); },
      2 * (1 << 12) * sizeof(double));
  const sim::SimResult result = engine.run(*sched, root);
  EXPECT_EQ(result.stats.total_strands(), 1u);
  // Three of the four virtual cores only ever poll an empty scheduler.
  EXPECT_GT(result.stats.total_empty_wakeups(), 0u);
}

}  // namespace
}  // namespace sbs::runtime
