// Engine-shared mechanics for executing strands and wiring forks/joins.
//
// Both engines (the real thread pool and the PMH simulator) drive the same
// sequence for every strand, so the fork/join bookkeeping lives here:
//
//   Job* j = sched.get(tid);                 // timed as "get"
//   Strand s(tid, P);
//   j->execute(s);                           // timed as "active"
//   bool completed = !s.forked();
//   sched.done(j, tid, completed);           // timed as "done"
//   StrandOps::settle(j, s, to_add, root_completed);
//   for (Job* a : to_add) sched.add(a, tid); // timed as "add"
//   (settle deleted j, its task if completed, and any spent JoinCounter)
//
// settle() performs, per paper §3.1: on a fork, creation of the join counter
// and of one fresh Task per child; on a strand end, join-counter notification
// releasing the continuation strand of the enclosing task.
//
// A job may be freed by a different worker than the one that allocated it
// (a stolen continuation settles on the thief).
#pragma once

#include <vector>

#include "runtime/job.h"

namespace sbs::runtime {

class StrandOps {
 public:
  /// Prepare a job to serve as the computation root. Returns the sentinel
  /// counter whose trigger marks the end of the whole computation; the
  /// caller owns the sentinel and frees it after the run (the root Task,
  /// like every task, is freed by settle() when it completes).
  struct Root {
    Task* task;
    JoinCounter* sentinel;
  };
  static Root make_root(Job* root_job) {
    Task* task = new Task(nullptr);
    auto* sentinel = new JoinCounter(1, nullptr);
    root_job->task_ = task;
    root_job->on_complete_ = sentinel;
    root_job->starts_task_ = true;
    return {task, sentinel};
  }

  /// Service-mode submission (src/service/): wire `user_root` as a fresh
  /// root task whose completion releases `completion` — a service-owned job
  /// that is itself a root task, so a scheduler can host many concurrent
  /// submissions. When `completion`'s strand ends, settle() triggers the
  /// returned sentinel and reports root_completed; the service runtime maps
  /// that back to the submission (via state `completion` stashed during its
  /// execute()) instead of stopping the engine, and frees the sentinel.
  static JoinCounter* make_submission(Job* user_root, Job* completion) {
    completion->task_ = new Task(nullptr);
    auto* sentinel = new JoinCounter(1, nullptr);
    completion->on_complete_ = sentinel;
    completion->starts_task_ = true;
    user_root->task_ = new Task(nullptr);
    user_root->on_complete_ = new JoinCounter(1, completion);
    user_root->starts_task_ = true;
    return sentinel;
  }

  /// Post-execution bookkeeping. Appends to `to_add` the jobs the engine
  /// must pass to Scheduler::add (fork children, or a released continuation).
  /// Sets `root_completed` when the sentinel counter triggers. Deletes the
  /// job, and — when its task completed — the Task.
  static void settle(Job* job, Strand& strand, std::vector<Job*>& to_add,
                     bool& root_completed) {
    root_completed = false;
    if (strand.forked()) {
      Task* task = job->task_;
      Job* cont = strand.continuation();
      auto* jc = new JoinCounter(static_cast<int>(strand.children().size()),
                                 cont);
      // The continuation is the next strand of the same task.
      cont->task_ = task;
      cont->on_complete_ = job->on_complete_;
      cont->starts_task_ = false;
      for (Job* child : strand.children()) {
        child->task_ = new Task(task);
        child->on_complete_ = jc;
        child->starts_task_ = true;
        to_add.push_back(child);
      }
    } else {
      // Strand ended: its task is complete. Notify the enclosing join.
      JoinCounter* jc = job->on_complete_;
      Task* task = job->task_;
      SBS_ASSERT(jc != nullptr);
      // acq_rel: release publishes this strand's writes to whoever takes
      // the counter to zero; acquire makes the last decrementer see every
      // sibling's writes before running/deleting the continuation.
      if (jc->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (jc->continuation != nullptr) {
          to_add.push_back(jc->continuation);
          delete jc;
        } else {
          root_completed = true;  // sentinel is freed by the engine
        }
      }
      delete task;
    }
    delete job;
  }
};

}  // namespace sbs::runtime
