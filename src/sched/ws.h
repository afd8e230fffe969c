// WS — the basic work-stealing scheduler (paper §4.2 and Appendix A).
//
// One double-ended queue per worker. add() pushes to the bottom of the
// calling worker's deque; get() pops from the bottom, or — when the local
// deque is empty — picks a victim uniformly at random among the *other*
// workers and steals one job from the *top* of the victim's deque (the
// paper's WS, Appendix A, steals from other deques; a self-steal after the
// local-deque-empty check would be a guaranteed wasted attempt).
//
// The deques are lock-free Chase–Lev deques (sched/chase_lev.h): the owner
// fast path is a handful of plain loads/stores, a thief is one CAS. This
// replaces the paper's "two-locks-per-deque" variant, whose lock traffic
// showed up in exactly the add/get overheads the framework is trying to
// attribute to scheduling *policy* (cf. Gu et al., arXiv:2111.04994, and
// Cole & Ramachandran, arXiv:1103.4142, on scheduler-induced cache traffic).
// The locked seed path survives, measured side by side with this one, in
// bench/micro_overheads.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/scheduler.h"
#include "sched/chase_lev.h"
#include "sched/ops.h"
#include "util/rng.h"

namespace sbs::sched {

class WorkStealing : public runtime::Scheduler {
 public:
  /// seed controls victim selection (deterministic experiments).
  explicit WorkStealing(std::uint64_t seed = 1) : seed_(seed) {}

  void start(const machine::Topology& topo, int num_threads) override;
  void finish() override;
  void add(runtime::Job* job, int thread_id) override;
  runtime::Job* get(int thread_id) override;
  void done(runtime::Job* job, int thread_id, bool task_completed) override;
  std::string name() const override { return "WS"; }
  std::string stats_string() const override;

  std::uint64_t total_steals() const;
  std::uint64_t total_failed_steals() const;

 protected:
  /// Victim choice; never the caller itself. Returns -1 when there is no
  /// eligible victim (single-worker runs). Subclasses (PWS) override to
  /// bias by topology distance.
  virtual int steal_choice(int thread_id);

  struct alignas(64) PerThread {
    ChaseLevDeque<runtime::Job*> jobs;
    Rng rng{0};
    std::uint64_t steals = 0;
    std::uint64_t failed_steals = 0;
  };

  int num_threads_ = 0;
  const machine::Topology* topo_ = nullptr;
  std::vector<std::unique_ptr<PerThread>> threads_;

 private:
  std::uint64_t seed_;
};

}  // namespace sbs::sched
