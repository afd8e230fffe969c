#include "service/runtime.h"

#include "runtime/idle_backoff.h"
#include "runtime/strand_ops.h"
#include "service/degrade.h"
#include "util/assert.h"

namespace sbs::service {

namespace {

bool is_terminal(JobState s) {
  return s == JobState::kRejected || s == JobState::kTimedOut ||
         s == JobState::kDone;
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kRejected:
      return "rejected";
    case JobState::kTimedOut:
      return "timed_out";
    case JobState::kDone:
      return "done";
  }
  return "?";
}

/// One submission's whole lifecycle. Timestamps are plain fields written by
/// the thread that performs the transition and published by the
/// release-store of `state`; readers load `state` (acquire) first, so a
/// terminal state licenses reading every field below it.
struct JobHandle::Ticket {
  std::uint64_t id = 0;
  int tenant = 0;
  std::uint64_t declared_bytes = 0;
  runtime::Job* root = nullptr;  ///< owned until dispatch or terminal free
  runtime::JoinCounter* sentinel = nullptr;
  bool degraded = false;
  int reserved_node = -1;  ///< σM reservation to release; -1 = none
  std::atomic<JobState> state{JobState::kQueued};
  Runtime::Clock::time_point submit_time;
  Runtime::Clock::time_point deadline;  ///< kQueue policy only
  Runtime::Clock::time_point dispatch_time;
  Runtime::Clock::time_point complete_time;
};

JobState JobHandle::state() const {
  // Acquire pairs with the release transitions in dispatch() and
  // finish_terminal(): a client that observes kDone also observes the
  // job's results and timing fields.
  return ticket_->state.load(std::memory_order_acquire);
}

bool JobHandle::terminal() const { return is_terminal(state()); }

int JobHandle::tenant() const { return ticket_->tenant; }

std::uint64_t JobHandle::id() const { return ticket_->id; }

double JobHandle::sojourn_s() const {
  if (state() != JobState::kDone) return 0;
  return std::chrono::duration<double>(ticket_->complete_time -
                                       ticket_->submit_time)
      .count();
}

double JobHandle::queueing_s() const {
  if (state() != JobState::kDone) return 0;
  return std::chrono::duration<double>(ticket_->dispatch_time -
                                       ticket_->submit_time)
      .count();
}

double JobHandle::service_s() const {
  if (state() != JobState::kDone) return 0;
  return std::chrono::duration<double>(ticket_->complete_time -
                                       ticket_->dispatch_time)
      .count();
}

/// Service-owned root job released by a submission's join: its execute()
/// only records which submission finished; the engine loop finalizes after
/// settle() reports root_completed. ~64B footprint so SB anchors it without
/// disturbing any budget (parentless tasks anchor at the unbounded root).
class Runtime::CompletionJob final : public runtime::SBJob {
 public:
  CompletionJob(Runtime* rt, std::shared_ptr<JobHandle::Ticket> ticket)
      : SBJob(/*task_bytes=*/64), rt_(rt), ticket_(std::move(ticket)) {}

  void execute(runtime::Strand& strand) override {
    rt_->completion_slots_[static_cast<std::size_t>(strand.thread_id())]
        .ticket = ticket_;
  }

 private:
  Runtime* rt_;
  std::shared_ptr<JobHandle::Ticket> ticket_;
};

Runtime::Runtime(const machine::Topology& topo, const RuntimeOptions& options)
    : options_(options),
      topo_(topo),
      admission_(topo_, options.admission),
      metrics_(options.num_tenants),
      num_threads_(options.num_threads < 0 ? topo_.num_threads()
                                           : options.num_threads),
      epoch_(Clock::now()) {
  SBS_CHECK_MSG(num_threads_ >= 1 && num_threads_ <= topo_.num_threads(),
                "service worker count out of range");

  auto primary = sched::MakeScheduler(options_.scheduler);
  if (options_.admission.policy == AdmissionPolicy::kDegrade &&
      primary->needs_size_annotations()) {
    // Degraded submissions bypass the σM reservation, so they must not flow
    // into the space-bounded scheduler (its own occupancy bound would just
    // park them — the reactive queueing admission exists to pre-empt).
    auto fallback =
        sched::MakeScheduler("WS", options_.scheduler.seed + 1);
    primary = std::make_unique<DegradeMux>(std::move(primary),
                                           std::move(fallback));
    has_degrade_mux_ = true;
  }
  if (options_.verify) {
    auto wrapped =
        std::make_unique<verify::VerifyingScheduler>(std::move(primary));
    verifier_ = wrapped.get();
    sched_ = std::move(wrapped);
  } else {
    sched_ = std::move(primary);
  }

  completion_slots_.resize(static_cast<std::size_t>(num_threads_));

  sched_->start(topo_, num_threads_);
  workers_.reserve(static_cast<std::size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

Runtime::~Runtime() { shutdown(); }

JobHandle Runtime::submit(runtime::Job* root, std::uint64_t declared_bytes,
                          int tenant) {
  SBS_CHECK_MSG(root != nullptr, "submit needs a root job");
  SBS_CHECK_MSG(tenant >= 0 && tenant < options_.num_tenants,
                "tenant id out of range");
  // Acquire: a submitter that races shutdown() must see the stores the
  // stopping thread made before raising stop_.
  SBS_CHECK_MSG(!shut_down_ && !stop_.load(std::memory_order_acquire),
                "submit after shutdown");

  auto ticket = std::make_shared<JobHandle::Ticket>();
  // Relaxed: id allocation needs uniqueness only, no ordering.
  ticket->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  ticket->tenant = tenant;
  ticket->declared_bytes = declared_bytes;
  ticket->root = root;
  ticket->submit_time = Clock::now();
  metrics_.on_submit(tenant);
  // acq_rel: live_ RMWs form one chain; drain()'s acquire load of zero
  // therefore happens-after every submission it counted (no lost jobs).
  live_.fetch_add(1, std::memory_order_acq_rel);

  const AdmissionPolicy policy = options_.admission.policy;
  const AdmissionDecision decision = admission_.try_admit(declared_bytes);
  switch (decision.kind) {
    case AdmissionDecision::Kind::kAdmitted:
      ticket->reserved_node = decision.node;
      metrics_.on_admit(tenant);
      enqueue_injection(ticket);
      break;

    case AdmissionDecision::Kind::kTooLarge:
      // Fits no cache, so no release can ever admit it: parking would wedge
      // the FIFO forever. Reject under every policy except best-effort.
      if (policy == AdmissionPolicy::kDegrade) {
        ticket->degraded = true;
        metrics_.on_degrade(tenant);
        enqueue_injection(ticket);
      } else {
        metrics_.on_reject(tenant);
        finish_terminal(ticket, JobState::kRejected);
      }
      break;

    case AdmissionDecision::Kind::kNoBudget:
      switch (policy) {
        case AdmissionPolicy::kReject:
          metrics_.on_reject(tenant);
          finish_terminal(ticket, JobState::kRejected);
          break;
        case AdmissionPolicy::kDegrade:
          ticket->degraded = true;
          metrics_.on_degrade(tenant);
          enqueue_injection(ticket);
          break;
        case AdmissionPolicy::kQueue: {
          bool parked = false;
          {
            util::MutexLock lock(parked_mutex_);
            if (parked_.size() < options_.admission.max_queue) {
              ticket->deadline =
                  ticket->submit_time +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          options_.admission.queue_timeout_s));
              parked_.push_back(ticket);
              // Release mirror of the locked deque size; pairs with
              // pump_parked()'s acquire probe that elides the lock.
              parked_count_.store(parked_.size(), std::memory_order_release);
              parked = true;
            }
          }
          if (parked) {
            metrics_.on_queue(tenant);
          } else {
            metrics_.on_reject(tenant);
            finish_terminal(ticket, JobState::kRejected);
          }
          break;
        }
      }
      break;
  }
  return JobHandle(ticket);
}

void Runtime::enqueue_injection(
    const std::shared_ptr<JobHandle::Ticket>& ticket) {
  util::MutexLock lock(inject_mutex_);
  injected_.push_back(ticket);
  // Release mirror of the locked deque size; pairs with the acquire
  // probe in drain_injection() that elides the lock when empty.
  inject_count_.store(injected_.size(), std::memory_order_release);
}

void Runtime::dispatch(int tid,
                       const std::shared_ptr<JobHandle::Ticket>& ticket) {
  // Wiring happens here, on a worker, not at submit time, so a rejected or
  // timed-out ticket never owns engine bookkeeping that would need
  // unwinding: pre-dispatch failure is a plain `delete root`.
  auto* completion = new CompletionJob(this, ticket);
  ticket->sentinel =
      runtime::StrandOps::make_submission(ticket->root, completion);
  if (ticket->degraded && has_degrade_mux_) {
    DegradeMux::MarkDegraded(ticket->root->task());
    DegradeMux::MarkDegraded(completion->task());
  }
  ticket->dispatch_time = Clock::now();
  runtime::Job* root = ticket->root;
  ticket->root = nullptr;  // ownership passes to the engine
  // Release: a client polling state() acquires the dispatch_time and
  // wiring written above once it reads kRunning.
  ticket->state.store(JobState::kRunning, std::memory_order_release);
  sched_->add(root, tid);
}

bool Runtime::drain_injection(int tid) {
  // Acquire probe of the release-mirrored size: lets idle workers skip
  // the mutex; a stale zero is re-checked on the next loop iteration.
  if (inject_count_.load(std::memory_order_acquire) == 0) return false;
  bool any = false;
  for (;;) {
    std::shared_ptr<JobHandle::Ticket> ticket;
    {
      util::MutexLock lock(inject_mutex_);
      if (injected_.empty()) break;
      ticket = std::move(injected_.front());
      injected_.pop_front();
      // Release mirror (see enqueue_injection).
      inject_count_.store(injected_.size(), std::memory_order_release);
    }
    dispatch(tid, ticket);
    any = true;
  }
  return any;
}

void Runtime::pump_parked() {
  // Acquire probe of the release-mirrored queue size; a stale zero is
  // retried by the idle-tier heartbeat, never lost.
  if (parked_count_.load(std::memory_order_acquire) == 0) return;
  std::vector<std::shared_ptr<JobHandle::Ticket>> expired;
  std::vector<std::shared_ptr<JobHandle::Ticket>> admitted;
  {
    util::MutexLock lock(parked_mutex_);
    const auto now = Clock::now();
    while (!parked_.empty()) {
      std::shared_ptr<JobHandle::Ticket>& head = parked_.front();
      if (now >= head->deadline) {
        expired.push_back(std::move(head));
        parked_.pop_front();
        continue;
      }
      const AdmissionDecision decision =
          admission_.try_admit(head->declared_bytes);
      if (decision.kind != AdmissionDecision::Kind::kAdmitted) {
        // Strict FIFO: stop at the first still-unadmittable head so large
        // submissions cannot be starved by a stream of small ones.
        // Deadlines are monotone in queue order (same timeout, FIFO
        // arrival), so nothing behind an unexpired head is expired.
        break;
      }
      head->reserved_node = decision.node;
      admitted.push_back(std::move(head));
      parked_.pop_front();
    }
    // Release mirror of the locked deque size (see submit()).
    parked_count_.store(parked_.size(), std::memory_order_release);
  }
  for (const auto& ticket : expired) {
    metrics_.on_timeout(ticket->tenant);
    finish_terminal(ticket, JobState::kTimedOut);
  }
  for (const auto& ticket : admitted) {
    metrics_.on_admit(ticket->tenant);
    enqueue_injection(ticket);
  }
}

void Runtime::finish_terminal(
    const std::shared_ptr<JobHandle::Ticket>& ticket, JobState state) {
  SBS_ASSERT(state == JobState::kRejected || state == JobState::kTimedOut);
  delete ticket->root;  // never dispatched, never ran
  ticket->root = nullptr;
  ticket->state.store(state, std::memory_order_release);
  live_.fetch_sub(1, std::memory_order_acq_rel);
  wait_cv_.notify_all();
}

void Runtime::finalize_completion(
    const std::shared_ptr<JobHandle::Ticket>& ticket) {
  ticket->complete_time = Clock::now();
  delete ticket->sentinel;
  ticket->sentinel = nullptr;
  if (ticket->reserved_node >= 0)
    admission_.release(ticket->reserved_node, ticket->declared_bytes);
  const double sojourn =
      std::chrono::duration<double>(ticket->complete_time -
                                    ticket->submit_time)
          .count();
  const double queueing =
      std::chrono::duration<double>(ticket->dispatch_time -
                                    ticket->submit_time)
          .count();
  metrics_.on_complete(ticket->tenant, sojourn, queueing, sojourn - queueing);
  // Release: publishes results/timing to JobHandle::state() acquirers.
  ticket->state.store(JobState::kDone, std::memory_order_release);
  // acq_rel: same live_ chain as submit(); lets drain() conclude no
  // jobs remain once it reads zero.
  live_.fetch_sub(1, std::memory_order_acq_rel);
  wait_cv_.notify_all();
  pump_parked();  // the release above may admit parked submissions
}

void Runtime::worker_loop(int tid) {
  runtime::pin_worker(tid);
  std::vector<runtime::Job*> to_add;
  int idle_streak = 0;
  for (;;) {
    const bool dispatched = drain_injection(tid);
    runtime::Job* job = sched_->get(tid);
    if (job == nullptr) {
      if (dispatched) {
        idle_streak = 0;
        continue;
      }
      // All acquire: the exit decision must observe everything that
      // preceded stop_ being raised and the final completion/injection.
      if (stop_.load(std::memory_order_acquire) &&
          live_.load(std::memory_order_acquire) == 0 &&
          inject_count_.load(std::memory_order_acquire) == 0) {
        break;
      }
      // Deep in the idle tiers, double as the timeout heartbeat: parked
      // deadlines must fire even when no completion ever frees budget.
      if (idle_streak >= runtime::kSleepStreak) pump_parked();
      runtime::idle_backoff(idle_streak++);
      continue;
    }
    idle_streak = 0;

    runtime::Strand strand(tid, num_threads_);
    job->execute(strand);
    const bool completed = !strand.forked();
    sched_->done(job, tid, completed);

    to_add.clear();
    bool root_completed = false;
    runtime::StrandOps::settle(job, strand, to_add, root_completed);
    for (runtime::Job* a : to_add) sched_->add(a, tid);

    if (root_completed) {
      std::shared_ptr<JobHandle::Ticket> ticket =
          std::move(completion_slots_[static_cast<std::size_t>(tid)].ticket);
      SBS_CHECK_MSG(ticket != nullptr,
                    "root_completed with no completion slot");
      finalize_completion(ticket);
    }
  }
}

JobState Runtime::wait(const JobHandle& handle) {
  SBS_CHECK_MSG(handle.valid(), "wait on an invalid handle");
  for (;;) {
    const JobState state = handle.state();
    if (is_terminal(state)) return state;
    pump_parked();  // enforce deadlines even if every worker is busy
    std::unique_lock<util::Mutex> lock(wait_mutex_);
    // Short timeout: the predicate reads an atomic outside the lock, so a
    // transition between check and sleep self-heals at the next tick.
    wait_cv_.wait_for(  // lint:allow(blocking-call) waiter, not submit path
        lock, std::chrono::milliseconds(10),
        [&] { return is_terminal(handle.state()); });
  }
}

void Runtime::drain() {
  // Acquire pairs with finish_terminal()'s acq_rel decrement: zero here
  // means every counted job's completion is visible.
  while (live_.load(std::memory_order_acquire) > 0) {
    pump_parked();
    std::unique_lock<util::Mutex> lock(wait_mutex_);
    wait_cv_.wait_for(  // lint:allow(blocking-call) waiter, not submit path
        lock, std::chrono::milliseconds(10),
        [&] { return live_.load(std::memory_order_acquire) == 0; });
  }
}

void Runtime::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  drain();
  // Release pairs with worker_loop()'s acquire: workers that see stop_
  // also see the drained state that justified it.
  stop_.store(true, std::memory_order_release);
  for (std::thread& w : workers_)
    w.join();  // lint:allow(blocking-call) teardown, not submit path
  workers_.clear();
  sched_->finish();
}

double Runtime::uptime_s() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

}  // namespace sbs::service
