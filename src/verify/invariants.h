// Online invariant checking for schedulers (the --verify mode).
//
// VerifyingScheduler is a decorator: it wraps any runtime::Scheduler and
// re-checks, on every add/get/done callback, the properties the paper's
// space-bounded schedulers promise (§4.1) plus generic fork/join
// well-formedness. The checker keeps *shadow* state — its own occupancy
// counters, befit-depth computation, and job/task lifecycle sets — derived
// only from the callback arguments and the machine topology, so a
// bookkeeping bug in the scheduler cannot hide itself.
//
// Checked invariants:
//   lifecycle    every job is added exactly once, executed exactly once,
//                completed exactly once; nothing pending at finish; every
//                started task completes (join counters balance).
//   anchoring    a maximal task is anchored to the befitting cache on the
//                admitting worker's root-to-leaf path — σM_{d+1} <
//                S(t,B_d) ≤ σM_d at the anchor depth d — with its
//                skip-level charge ceiling equal to the parent's anchor
//                depth recorded when the task was spawned.
//   inheritance  a non-maximal task inherits its parent's anchor and
//                charges no additional task space; the root task is
//                anchored at the root.
//   boundedness  at every cache on an admitted task's charge path, shadow
//                occupancy (anchored task sizes plus µ-capped live strand
//                charges) never exceeds the capacity M_i at admission.
//   accounting   shadow occupancy equals the scheduler's own occupancy
//                counters after every callback, and both drain to zero at
//                quiescence (generalizing the finish()-time assert in
//                sched/sb.cpp).
//
// Cost when off: zero — the engine simply runs the unwrapped scheduler.
// Cost when on: one global mutex serializes callbacks (the shadow state
// must observe them in a single total order), so verified runs measure
// correctness, not performance.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runtime/scheduler.h"
#include "util/thread_safety.h"

namespace sbs::sched {
class SpaceBounded;
}

namespace sbs::verify {

class VerifyingScheduler final : public runtime::Scheduler {
 public:
  explicit VerifyingScheduler(std::unique_ptr<runtime::Scheduler> inner);
  ~VerifyingScheduler() override;

  // --- runtime::Scheduler (forwards to the wrapped scheduler) ---
  void start(const machine::Topology& topo, int num_threads) override;
  void finish() override;
  void add(runtime::Job* job, int thread_id) override;
  runtime::Job* get(int thread_id) override;
  void done(runtime::Job* job, int thread_id, bool task_completed) override;
  std::string name() const override;
  bool needs_size_annotations() const override;
  std::string stats_string() const override;

  runtime::Scheduler& inner() { return *inner_; }

  // --- results (read after the run; not thread-safe during one) ---
  bool ok() const { return total_violations_ == 0; }
  std::uint64_t checks() const { return checks_; }
  std::uint64_t total_violations() const { return total_violations_; }
  const std::vector<std::string>& violations() const { return violations_; }
  /// Multi-line human-readable summary ("verify: OK ..." or the messages).
  std::string report() const;

 private:
  struct TaskInfo {
    int anchor = -1;          ///< -1 while a maximal task waits in a bucket
    int anchor_depth = -1;
    int ceiling_depth = -1;   ///< parent's anchor depth at spawn time
    std::uint64_t size = 0;
    bool maximal = false;
    bool anchored = false;    ///< maximal task admitted (charges held)
  };
  struct StrandCharge {
    int node = -1;
    std::uint64_t amount = 0;
  };
  struct ThreadState {
    runtime::Job* running = nullptr;
    std::vector<StrandCharge> strand_charges;
  };

  void violation(const std::string& what) SBS_REQUIRES(mutex_);
  std::uint64_t capacity_at(int depth) const;
  std::uint64_t task_size_at(const runtime::Job& job, int depth) const;
  int befit_depth(const runtime::Job& job) const;
  /// Shadow mirror of SpaceBounded::charge_strand for `job` on `thread_id`.
  void shadow_charge_strand(runtime::Job* job, int thread_id)
      SBS_REQUIRES(mutex_);
  void shadow_release_path(int anchor_node, int ceiling_depth,
                           std::uint64_t bytes) SBS_REQUIRES(mutex_);
  /// After-callback cross-check: shadow occupancy == scheduler occupancy.
  void check_occupancy_mirror(const char* when) SBS_REQUIRES(mutex_);
  void check_admission(runtime::Job* job, int thread_id) SBS_REQUIRES(mutex_);
  void check_added_task(runtime::Job* job) SBS_REQUIRES(mutex_);

  /// Keep at most this many violation messages (further ones only count).
  static constexpr std::size_t kMaxMessages = 64;

  std::unique_ptr<runtime::Scheduler> inner_;
  /// The wrapped scheduler when it is space-bounded (enables the anchoring
  /// and occupancy checks); nullptr for WS/PWS.
  sched::SpaceBounded* sb_ = nullptr;

  const machine::Topology* topo_ = nullptr;
  double sigma_ = 0.0;
  double mu_ = 0.0;
  bool mu_cap_ = true;
  bool use_strand_sizes_ = true;

  /// One mutex serializes every callback; held *across* the inner call so
  /// shadow state and scheduler state advance in the same total order.
  util::Mutex mutex_;
  std::vector<std::uint64_t> shadow_occupied_ SBS_GUARDED_BY(mutex_);
  std::unordered_set<runtime::Job*> pending_ SBS_GUARDED_BY(mutex_);
  std::unordered_map<runtime::Job*, int> running_ SBS_GUARDED_BY(mutex_);
  std::unordered_map<runtime::Task*, TaskInfo> tasks_ SBS_GUARDED_BY(mutex_);
  std::vector<ThreadState> threads_ SBS_GUARDED_BY(mutex_);
  std::uint64_t adds_ SBS_GUARDED_BY(mutex_) = 0;
  std::uint64_t gets_ SBS_GUARDED_BY(mutex_) = 0;
  std::uint64_t dones_ SBS_GUARDED_BY(mutex_) = 0;
  std::uint64_t tasks_started_ SBS_GUARDED_BY(mutex_) = 0;
  std::uint64_t tasks_completed_ SBS_GUARDED_BY(mutex_) = 0;

  std::uint64_t checks_ = 0;
  std::uint64_t total_violations_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace sbs::verify
