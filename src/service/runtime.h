// Scheduler-as-a-service runtime: a resident worker pool hosting many
// concurrent job-graph submissions over one scheduler instance.
//
// The one-shot harness (runtime/thread_pool.h) runs exactly one root job
// and tears the pool down when its sentinel triggers. The service Runtime
// keeps the same engine loop (get → execute → done → settle → add, with
// the same tiered idle backoff) but decouples job lifetime from engine
// lifetime:
//
//   - submit() is callable from any client thread and never blocks. The
//     admission controller (admission.h) decides against the remaining σM
//     budget; admitted submissions land on an *injection queue*, because
//     scheduler callbacks may only run on worker threads (the Chase-Lev
//     deques require owner-thread pushes, and add() may take node locks
//     workers expect to contend on).
//   - a worker drains the injection queue at the top of its loop: it wires
//     the submission via StrandOps::make_submission — the user's root job
//     becomes a fresh root task whose join releases a service-owned
//     CompletionJob — and calls sched.add() from worker context.
//   - when the CompletionJob's strand settles, root_completed fires *for
//     that submission only*. The worker maps it back through a per-worker
//     slot the CompletionJob filled during execute(), releases the σM
//     reservation, records latency, and keeps looping.
//
// Policy mechanics (admission.h): kReject fails over-budget submissions
// immediately; kQueue parks them FIFO with a deadline (re-admitted as
// completions release budget, timed out lazily by idle workers and
// waiters); kDegrade routes them unreserved to a plain work-stealing
// fallback through the DegradeMux when the primary scheduler is
// space-bounded.
//
// Every submission reaching a terminal state has its latency folded into
// ServiceMetrics. Root-job ownership passes to the Runtime at submit();
// rejected/timed-out roots are freed without running.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "machine/topology.h"
#include "runtime/scheduler.h"
#include "sched/registry.h"
#include "service/admission.h"
#include "service/metrics.h"
#include "util/thread_safety.h"
#include "verify/invariants.h"

namespace sbs::service {

/// Lifecycle of one submission.
enum class JobState {
  kQueued,    ///< parked: waiting for budget (kQueue) or for dispatch
  kRunning,   ///< wired into the scheduler, strands executing
  kRejected,  ///< failed admission (policy kReject, or larger than any cache)
  kTimedOut,  ///< policy kQueue: budget never freed before the deadline
  kDone,      ///< completed; latency recorded
};

const char* JobStateName(JobState state);

struct RuntimeOptions {
  sched::SchedulerSpec scheduler;  ///< primary scheduler (WS/PWS/SB/SB-D...)
  AdmissionOptions admission;
  int num_threads = -1;  ///< workers; -1 = topology thread count
  int num_tenants = 8;   ///< metrics breakdown width
  bool verify = false;   ///< wrap the scheduler in verify::VerifyingScheduler
};

class Runtime;

/// Shared handle to one submission; cheap to copy, outlives the job.
class JobHandle {
 public:
  JobHandle() = default;
  bool valid() const { return ticket_ != nullptr; }
  JobState state() const;
  bool terminal() const;
  int tenant() const;
  std::uint64_t id() const;
  /// Latencies in seconds; 0 until the submission reaches kDone.
  double sojourn_s() const;
  double queueing_s() const;
  double service_s() const;

 private:
  friend class Runtime;
  struct Ticket;
  explicit JobHandle(std::shared_ptr<Ticket> ticket)
      : ticket_(std::move(ticket)) {}
  std::shared_ptr<Ticket> ticket_;
};

class Runtime {
 public:
  /// Starts the scheduler and the worker pool immediately. The topology is
  /// copied; the options' scheduler spec is instantiated via the registry,
  /// composed with the WS degrade fallback (policy kDegrade + a
  /// size-annotated primary) and the verify decorator as requested.
  Runtime(const machine::Topology& topo, const RuntimeOptions& options);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Submit a job graph. Never blocks; safe from any thread. Ownership of
  /// `root` passes to the runtime: it is executed or freed unrun. The
  /// declared footprint is what admission charges against σM — honest
  /// declarations keep the occupancy bound meaningful (over-declaration is
  /// safe but wastes budget; under-declaration re-creates the batch mode's
  /// reactive queueing inside the scheduler).
  JobHandle submit(runtime::Job* root, std::uint64_t declared_bytes,
                   int tenant = 0);

  /// Block until the submission reaches a terminal state; returns it.
  JobState wait(const JobHandle& handle);

  /// Block until every submission so far is terminal.
  void drain();

  /// drain(), stop the workers, finish() the scheduler. Idempotent; the
  /// destructor calls it.
  void shutdown();

  ServiceMetrics& metrics() { return metrics_; }
  const AdmissionController& admission() const { return admission_; }
  runtime::Scheduler& scheduler() { return *sched_; }
  /// Non-null iff options.verify: read violations after shutdown().
  const verify::VerifyingScheduler* verifier() const { return verifier_; }
  int num_threads() const { return num_threads_; }
  /// Seconds since the runtime started (timestamps use the same clock).
  double uptime_s() const;
  /// Submissions not yet terminal.
  std::uint64_t live_jobs() const {
    return live_.load(std::memory_order_acquire);
  }

 private:
  using Clock = std::chrono::steady_clock;
  friend class JobHandle;
  class CompletionJob;

  void worker_loop(int tid);
  /// Wire + sched.add() every injected submission. Worker context only.
  bool drain_injection(int tid);
  void dispatch(int tid, const std::shared_ptr<JobHandle::Ticket>& ticket);
  /// Retry parked submissions against freed budget; fail expired ones.
  /// Never blocks; callable from any thread (admits go via injection).
  void pump_parked();
  void finalize_completion(const std::shared_ptr<JobHandle::Ticket>& ticket);
  void finish_terminal(const std::shared_ptr<JobHandle::Ticket>& ticket,
                       JobState state);
  void enqueue_injection(const std::shared_ptr<JobHandle::Ticket>& ticket);

  const RuntimeOptions options_;
  machine::Topology topo_ SBS_INIT_ONLY;
  // lint:allow(guarded-by) internally synchronized (atomic reservations)
  AdmissionController admission_;
  // lint:allow(guarded-by) internally synchronized (own mutex)
  ServiceMetrics metrics_;
  std::unique_ptr<runtime::Scheduler> sched_ SBS_INIT_ONLY;  ///< pointee
                                                             ///< self-syncing
  verify::VerifyingScheduler* verifier_ SBS_INIT_ONLY =
      nullptr;  ///< borrowed from sched_
  bool has_degrade_mux_ SBS_INIT_ONLY = false;
  int num_threads_ SBS_INIT_ONLY = 0;
  Clock::time_point epoch_ SBS_INIT_ONLY;

  std::vector<std::thread> workers_ SBS_CONFINED(control thread);
  bool shut_down_ SBS_CONFINED(control thread) =
      false;  ///< shutdown() is sequential, not thread-safe
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> live_{0};
  std::atomic<std::uint64_t> next_id_{1};

  util::Mutex inject_mutex_;
  std::deque<std::shared_ptr<JobHandle::Ticket>> injected_
      SBS_GUARDED_BY(inject_mutex_);
  std::atomic<std::size_t> inject_count_{0};

  util::Mutex parked_mutex_;
  std::deque<std::shared_ptr<JobHandle::Ticket>> parked_
      SBS_GUARDED_BY(parked_mutex_);
  std::atomic<std::size_t> parked_count_{0};

  /// Woken on every terminal transition; waiters poll with a short timeout
  /// (which also gives parked-deadline enforcement a heartbeat).
  util::Mutex wait_mutex_;
  std::condition_variable_any wait_cv_;

  /// Per-worker slot: the ticket whose CompletionJob this worker is
  /// currently settling. The CompletionJob copies its shared_ptr here in
  /// execute(), because settle() frees the job itself before the engine
  /// loop observes root_completed.
  struct alignas(64) CompletionSlot {
    std::shared_ptr<JobHandle::Ticket> ticket;
  };
  std::vector<CompletionSlot> completion_slots_ SBS_CONFINED(slot owner);
};

}  // namespace sbs::service
