// The scheduler interface: exactly the three callbacks of paper §3.1
// (add / get / done) plus lifecycle and introspection hooks.
//
// Schedulers are concurrent modules — add/get/done may be called from any
// worker thread (real engine) or from the event loop on behalf of any
// virtual core (simulator). A scheduler must not block inside a callback.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/topology.h"
#include "runtime/job.h"

namespace sbs::runtime {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Called once before execution with the machine the program will run on
  /// and the number of worker threads (≤ topology thread count).
  virtual void start(const machine::Topology& topo, int num_threads) = 0;

  /// Called after the root task completes; a scheduler may verify that its
  /// internal state drained (all queues empty, occupancy zero).
  virtual void finish() {}

  /// A fork spawned `job` (once per new child task, and once for the
  /// continuation when a join triggers). Decides where the job is queued.
  virtual void add(Job* job, int thread_id) = 0;

  /// Worker `thread_id` is idle and asks for a strand to run. May return
  /// nullptr (the "empty queue" case, charged as load-imbalance overhead).
  virtual Job* get(int thread_id) = 0;

  /// Worker `thread_id` finished executing `job`'s strand.
  /// `task_completed` is true when the strand ended without forking, i.e.
  /// the job's task (and possibly, by nesting, some of its ancestors whose
  /// joins this completion triggers) is finished.
  virtual void done(Job* job, int thread_id, bool task_completed) = 0;

  virtual std::string name() const = 0;

  /// True for space-bounded schedulers, which refuse unannotated jobs.
  virtual bool needs_size_annotations() const { return false; }

  /// One-line diagnostic (steal counts, max occupancy, ...) for reports.
  virtual std::string stats_string() const { return ""; }

  // --- Simulator idle fast-forward (sim/engine.h) ---
  // Both hooks are called only from the simulator's single-threaded pump.
  // A scheduler that keeps the defaults has every idle poll executed as a
  // real get() call; wrappers keep them too, so a wrapped scheduler's
  // callbacks all stay visible to the wrapper.

  /// If get(thread_id) is certain to return nullptr and change nothing,
  /// the exact number of instrumented ops (sched/ops.h) that call would
  /// count; otherwise -1. Counts no ops itself.
  virtual std::int64_t idle_poll_ops(int thread_id) const {
    (void)thread_id;
    return -1;
  }

  /// Register (non-null) or clear (nullptr) a log that receives the cache
  /// node id of every queue push until it is cleared: a push can only
  /// change idle_poll_ops() for the threads under that node. Returns true
  /// if the scheduler implements idle_poll_ops() and the log; the default
  /// ignores `log` and returns false.
  virtual bool set_push_log(std::vector<int>* log) {
    (void)log;
    return false;
  }
};

}  // namespace sbs::runtime
