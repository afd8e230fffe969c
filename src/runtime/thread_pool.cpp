#include "runtime/thread_pool.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/idle_backoff.h"
#include "runtime/strand_ops.h"
#include "util/assert.h"

namespace sbs::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

struct alignas(64) WorkerSlot {
  ThreadBreakdown times;
};

}  // namespace

ThreadPool::ThreadPool(const machine::Topology& topo, int num_threads)
    : topo_(topo),
      num_threads_(num_threads < 0 ? topo.num_threads() : num_threads) {
  SBS_CHECK(num_threads_ >= 1 && num_threads_ <= topo.num_threads());
}

void ThreadPool::enable_tracing(std::size_t events_per_worker) {
  recorder_ =
      std::make_unique<trace::Recorder>(num_threads_, events_per_worker);
}

RunStats ThreadPool::run(Scheduler& sched, Job* root_job) {
  sched.start(topo_, num_threads_);

  if (recorder_) recorder_->begin_run(/*virtual_time=*/false, 1e9);
  trace::Scope trace_scope(recorder_.get());
  trace::Recorder* const rec = recorder_.get();

  StrandOps::Root root = StrandOps::make_root(root_job);
  std::atomic<bool> finished{false};
  std::vector<WorkerSlot> slots(static_cast<std::size_t>(num_threads_));

  const auto wall_start = Clock::now();
  sched.add(root_job, /*thread_id=*/0);

  auto worker = [&](int tid) {
    pin_worker(tid);
    ThreadBreakdown& bd = slots[static_cast<std::size_t>(tid)].times;
    std::vector<Job*> to_add;
    int idle_streak = 0;
    using trace::EventKind;
    // Acquire pairs with the release store below: a worker that sees
    // `finished` also sees the root job's results.
    while (!finished.load(std::memory_order_acquire)) {
      auto t0 = Clock::now();
      if (rec) rec->record(tid, EventKind::kGetBegin, rec->ticks_of(t0));
      Job* job = sched.get(tid);
      auto t1 = Clock::now();
      bd.get_s += seconds_between(t0, t1);
      if (rec) {
        rec->record(tid, EventKind::kGetEnd, rec->ticks_of(t1), 0,
                    job != nullptr ? 1 : 0);
      }
      if (job == nullptr) {
        ++bd.empty_wakeups;
        idle_backoff(idle_streak++);
        auto t2 = Clock::now();
        bd.empty_s += seconds_between(t1, t2);
        if (rec) {
          rec->record(tid, EventKind::kEmpty, rec->ticks_of(t1),
                      rec->ticks_of(t2) - rec->ticks_of(t1));
        }
        continue;
      }
      idle_streak = 0;

      Strand strand(tid, num_threads_);
      auto t2 = Clock::now();
      job->execute(strand);
      auto t3 = Clock::now();
      bd.active_s += seconds_between(t2, t3);
      ++bd.strands;
      if (rec) {
        rec->record(tid, EventKind::kStrand, rec->ticks_of(t2),
                    rec->ticks_of(t3) - rec->ticks_of(t2));
      }

      const bool completed = !strand.forked();
      sched.done(job, tid, completed);
      auto t4 = Clock::now();
      bd.done_s += seconds_between(t3, t4);
      if (rec) {
        rec->record(tid, EventKind::kDone, rec->ticks_of(t3),
                    rec->ticks_of(t4) - rec->ticks_of(t3));
      }

      to_add.clear();
      bool root_completed = false;
      StrandOps::settle(job, strand, to_add, root_completed);
      if (rec) {
        if (strand.forked()) {
          rec->record_now(tid, EventKind::kFork, to_add.size());
        } else if (!to_add.empty()) {
          rec->record_now(tid, EventKind::kJoin);
        }
      }

      auto t5 = Clock::now();
      for (Job* a : to_add) sched.add(a, tid);
      auto t6 = Clock::now();
      bd.add_s += seconds_between(t5, t6);
      if (rec) {
        rec->record(tid, EventKind::kAdd, rec->ticks_of(t5),
                    rec->ticks_of(t6) - rec->ticks_of(t5));
      }

      // Release publishes the completed root's writes to every worker's
      // acquire load at the top of the loop.
      if (root_completed) finished.store(true, std::memory_order_release);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int tid = 1; tid < num_threads_; ++tid)
    threads.emplace_back(worker, tid);
  worker(0);
  for (auto& t : threads) t.join();

  RunStats stats;
  stats.wall_s = seconds_since(wall_start);
  stats.per_thread.reserve(slots.size());
  for (const auto& s : slots) stats.per_thread.push_back(s.times);

  sched.finish();
  delete root.sentinel;
  return stats;
}

}  // namespace sbs::runtime
