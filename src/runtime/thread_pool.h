// The real-threads execution engine (paper §3.2): one POSIX thread pinned
// per core, each repeatedly asking the scheduler for strands.
//
// On machines smaller than the described topology the pool oversubscribes
// (pinning becomes best-effort); results stay correct — this engine is the
// correctness/validation vehicle, while the PMH simulator is the
// measurement vehicle.
#pragma once

#include <memory>

#include "machine/topology.h"
#include "runtime/job.h"
#include "runtime/run_stats.h"
#include "runtime/scheduler.h"
#include "trace/recorder.h"

namespace sbs::runtime {

class ThreadPool {
 public:
  /// num_threads <= topo.num_threads(); -1 means all of them.
  explicit ThreadPool(const machine::Topology& topo, int num_threads = -1);

  /// Execute the computation rooted at `root_job` under `sched`. Takes
  /// ownership of the job tree. Blocks until the root task completes.
  RunStats run(Scheduler& sched, Job* root_job);

  int num_threads() const { return num_threads_; }

  /// Own a trace recorder: subsequent run()s record scheduler lifecycle
  /// events with real (nanosecond) timestamps. Each run resets the rings,
  /// so export (trace::WriteChromeTrace / Analyze) before the next run.
  void enable_tracing(
      std::size_t events_per_worker = trace::Recorder::kDefaultCapacity);
  /// The pool's recorder; nullptr unless enable_tracing() was called.
  trace::Recorder* recorder() { return recorder_.get(); }

 private:
  const machine::Topology& topo_;
  int num_threads_;
  std::unique_ptr<trace::Recorder> recorder_;
};

}  // namespace sbs::runtime
