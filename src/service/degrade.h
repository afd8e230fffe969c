// DegradeMux — route admitted submissions to the primary (space-bounded)
// scheduler and degraded submissions to a plain work-stealing fallback.
//
// Under AdmissionPolicy::kDegrade, a submission whose declared footprint
// does not fit the remaining σM budget still runs — best effort, with no
// cache reservation and no anchoring guarantees — on a WS fallback
// scheduler sharing the same workers. The mux is itself a Scheduler: the
// engine (service runtime workers) sees one add/get/done interface, and
// routing is decided per job by a marker on the job's Task.
//
// Marker propagation: the runtime marks a degraded submission's root Task
// (anchor = kDegradedAnchor, a value no real scheduler ever writes there —
// SB assigns node ids ≥ 0 and the WS family never touches the slot). Every
// descendant task is marked on first add() by inheriting its parent's
// marker; the write happens on the worker that executed the parent strand
// before the child is published to any queue, so no lock is needed. Tasks
// of admitted submissions carry ordinary anchors and flow to the primary
// untouched — the mux adds one comparison to their add/done path.
//
// get() drains the primary first (reserved work has priority), then the
// fallback — degraded work runs in the gaps, which is exactly the
// "best-effort" contract.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "runtime/scheduler.h"

namespace sbs::service {

class DegradeMux final : public runtime::Scheduler {
 public:
  /// Task::anchor marker for degraded submissions (never a valid node id).
  static constexpr int kDegradedAnchor = -2;

  DegradeMux(std::unique_ptr<runtime::Scheduler> primary,
             std::unique_ptr<runtime::Scheduler> fallback);

  /// Mark a submission's root task as degraded before it is first added.
  static void MarkDegraded(runtime::Task* task) {
    task->anchor = kDegradedAnchor;
  }

  void start(const machine::Topology& topo, int num_threads) override;
  void finish() override;
  void add(runtime::Job* job, int thread_id) override;
  runtime::Job* get(int thread_id) override;
  void done(runtime::Job* job, int thread_id, bool task_completed) override;
  std::string name() const override;
  bool needs_size_annotations() const override {
    return primary_->needs_size_annotations();
  }
  std::string stats_string() const override;

 private:
  static bool is_degraded(runtime::Task* task) {
    if (task->anchor == kDegradedAnchor) return true;
    if (task->parent != nullptr && task->parent->anchor == kDegradedAnchor) {
      // Inherit the marker. Single writer: the worker adding this task's
      // first job (see the header comment on propagation).
      task->anchor = kDegradedAnchor;
      return true;
    }
    return false;
  }

  std::unique_ptr<runtime::Scheduler> primary_;
  std::unique_ptr<runtime::Scheduler> fallback_;
  std::atomic<std::uint64_t> degraded_strands_{0};
};

}  // namespace sbs::service
