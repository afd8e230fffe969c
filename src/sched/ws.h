// WS — the basic work-stealing scheduler (paper §4.2 and Appendix A).
//
// One double-ended queue per worker. add() pushes to the bottom of the
// calling worker's deque; get() pops from the bottom, or — when the local
// deque is empty — picks a victim uniformly at random among the *other*
// workers and steals one job from the *top* of the victim's deque (the
// paper's WS, Appendix A, steals from other deques; a self-steal after the
// local-deque-empty check would be a guaranteed wasted attempt). WS and
// PWS make one steal attempt per get(); CilkWS makes a burst of four.
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
  explicit WorkStealing(std::uint64_t seed = 1) : WorkStealing(seed, 1) {}

  void start(const machine::Topology& topo, int num_threads) override;
  void finish() override;
  void add(runtime::Job* job, int thread_id) override;
  runtime::Job* get(int thread_id) override;
  void done(runtime::Job* job, int thread_id, bool task_completed) override;
  std::string name() const override { return "WS"; }
  std::string stats_string() const override;
  /// 1 + steal attempts while a push log is registered and every deque is
  /// empty (get() then fails one pop and each steal; 1 on a one-thread
  /// run, which has no victim), else -1.
  std::int64_t idle_poll_ops(int thread_id) const override;
  /// A charged poll draws each attempt's victim through steal_choice() and
  /// counts a failed steal per attempt; a refund restores the RNG saved at
  /// the charge and replays the draws of the polls it keeps.
  void charge_idle_polls(int thread_id, std::int64_t polls) override;
  /// Any thread may steal any job, so every add() logs the root. Register
  /// the log while every deque is empty (between start() and the first
  /// add()): the logged count of queued jobs starts at zero.
  bool set_push_log(std::vector<int>* log) override;

  std::uint64_t total_steals() const;
  std::uint64_t total_failed_steals() const;

 protected:
  /// steal_attempts: victims get() tries once the local deque is empty.
  WorkStealing(std::uint64_t seed, int steal_attempts)
      : seed_(seed), steal_attempts_(steal_attempts) {}

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
  /// A thread's most recent idle charge: its RNG before the charge, and
  /// the polls charged.
  struct IdleCharge {
    Rng rng_before{0};
    std::uint64_t polls = 0;
  };

  std::uint64_t seed_;
  int steal_attempts_;
  /// set_push_log(): only the simulator registers one, and it calls every
  /// callback from its single pump thread; null on real threads.
  std::vector<int>* push_log_ SBS_CONFINED(simulator pump) = nullptr;
  /// Jobs held by all deques while push_log_ is registered.
  std::uint64_t queued_jobs_ SBS_CONFINED(simulator pump) = 0;
  std::vector<IdleCharge> idle_charges_ SBS_CONFINED(simulator pump);
};

/// CilkWS — WS with a burst of four steal attempts per get(). It stands in
/// for the Cilk Plus runtime that the paper uses to show its WS is
/// representative (§5, Figs. 5–6).
class CilkWorkStealing final : public WorkStealing {
 public:
  explicit CilkWorkStealing(std::uint64_t seed = 1) : WorkStealing(seed, 4) {}
  std::string name() const override { return "CilkWS"; }
};

}  // namespace sbs::sched
