#include "sched/ws.h"

#include <sstream>

#include "trace/recorder.h"
#include "util/assert.h"

namespace sbs::sched {

using runtime::Job;

void WorkStealing::start(const machine::Topology& topo, int num_threads) {
  topo_ = &topo;
  num_threads_ = num_threads;
  threads_.clear();
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads_.push_back(std::make_unique<PerThread>());
    threads_.back()->rng = Rng(seed_ * 0x9e37 + static_cast<std::uint64_t>(t));
  }
  idle_charges_.assign(static_cast<std::size_t>(num_threads), IdleCharge{});
}

void WorkStealing::finish() {
  for (const auto& t : threads_)
    SBS_CHECK_MSG(t->jobs.empty(), "WS: deque not drained at finish");
}

void WorkStealing::add(Job* job, int thread_id) {
  threads_[static_cast<std::size_t>(thread_id)]->jobs.push_bottom(job);
  if (push_log_ != nullptr) {
    ++queued_jobs_;
    push_log_->push_back(topo_->root());
  }
}

int WorkStealing::steal_choice(int thread_id) {
  if (num_threads_ < 2) return -1;
  PerThread& self = *threads_[static_cast<std::size_t>(thread_id)];
  // Uniform among the other workers: draw from [0, P-1) and skip self.
  int choice = static_cast<int>(
      self.rng.next_below(static_cast<std::uint64_t>(num_threads_ - 1)));
  if (choice >= thread_id) ++choice;
  return choice;
}

Job* WorkStealing::get(int thread_id) {
  PerThread& self = *threads_[static_cast<std::size_t>(thread_id)];
  Job* job = nullptr;
  if (self.jobs.pop_bottom(&job)) {
    if (push_log_ != nullptr) --queued_jobs_;
    return job;
  }

  // Local deque empty: steal from the top of random other victims' deques.
  for (int attempt = 0; attempt < steal_attempts_; ++attempt) {
    const int choice = steal_choice(thread_id);
    if (choice >= 0) {
      SBS_ASSERT(choice != thread_id);
      trace::emit(thread_id, trace::EventKind::kStealAttempt,
                  static_cast<std::uint64_t>(choice));
      PerThread& victim = *threads_[static_cast<std::size_t>(choice)];
      if (victim.jobs.steal_top(&job)) {
        if (push_log_ != nullptr) --queued_jobs_;
        ++self.steals;
        trace::emit(thread_id, trace::EventKind::kStealSuccess,
                    static_cast<std::uint64_t>(choice));
        return job;
      }
    }
    ++self.failed_steals;
  }
  return nullptr;
}

std::int64_t WorkStealing::idle_poll_ops(int thread_id) const {
  (void)thread_id;
  if (push_log_ == nullptr || queued_jobs_ != 0) return -1;
  return num_threads_ < 2 ? 1 : 1 + steal_attempts_;
}

void WorkStealing::charge_idle_polls(int thread_id, std::int64_t polls) {
  PerThread& self = *threads_[static_cast<std::size_t>(thread_id)];
  IdleCharge& charge = idle_charges_[static_cast<std::size_t>(thread_id)];
  const auto attempts = static_cast<std::uint64_t>(steal_attempts_);
  if (polls >= 0) {
    charge.rng_before = self.rng;
    charge.polls = static_cast<std::uint64_t>(polls);
    self.failed_steals += charge.polls * attempts;
  } else {
    const auto refund = static_cast<std::uint64_t>(-polls);
    SBS_CHECK_MSG(refund <= charge.polls,
                  "WS: refund exceeds the thread's last idle charge");
    charge.polls -= refund;
    self.failed_steals -= refund * attempts;
    self.rng = charge.rng_before;
  }
  // Every deque is empty, so each poll is exactly get()'s failed attempts:
  // a victim draw each and nothing else.
  for (std::uint64_t i = 0; i < charge.polls * attempts; ++i)
    steal_choice(thread_id);
}

bool WorkStealing::set_push_log(std::vector<int>* log) {
  if (log != nullptr) {
    for (const auto& t : threads_)
      SBS_CHECK_MSG(t->jobs.empty(),
                    "WS: push log registered over queued jobs");
  }
  push_log_ = log;
  queued_jobs_ = 0;
  return true;
}

void WorkStealing::done(Job* job, int thread_id, bool task_completed) {
  (void)job;
  (void)thread_id;
  (void)task_completed;
}

std::uint64_t WorkStealing::total_steals() const {
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->steals;
  return n;
}

std::uint64_t WorkStealing::total_failed_steals() const {
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->failed_steals;
  return n;
}

std::string WorkStealing::stats_string() const {
  std::ostringstream out;
  out << "steals=" << total_steals()
      << " failed_steals=" << total_failed_steals();
  return out.str();
}

}  // namespace sbs::sched
