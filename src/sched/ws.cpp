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
}

void WorkStealing::finish() {
  for (const auto& t : threads_)
    SBS_CHECK_MSG(t->jobs.empty(), "WS: deque not drained at finish");
}

void WorkStealing::add(Job* job, int thread_id) {
  threads_[static_cast<std::size_t>(thread_id)]->jobs.push_bottom(job);
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
  if (self.jobs.pop_bottom(&job)) return job;

  // Local deque empty: steal from the top of a random other victim's deque.
  const int choice = steal_choice(thread_id);
  if (choice < 0) {
    ++self.failed_steals;
    return nullptr;
  }
  SBS_ASSERT(choice != thread_id);
  trace::emit(thread_id, trace::EventKind::kStealAttempt,
              static_cast<std::uint64_t>(choice));
  PerThread& victim = *threads_[static_cast<std::size_t>(choice)];
  if (victim.jobs.steal_top(&job)) {
    ++self.steals;
    trace::emit(thread_id, trace::EventKind::kStealSuccess,
                static_cast<std::uint64_t>(choice));
    return job;
  }
  ++self.failed_steals;
  return nullptr;
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
