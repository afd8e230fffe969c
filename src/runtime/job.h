// Nested-parallel computation model: tasks, strands, and jobs (paper §2, §3.1).
//
// A Job is the unit the framework hands to schedulers: one strand of a task,
// whose control flow is sequential with an optional *terminal* fork. A task
// is a chain of strands `l1; b1; l2; ...` — the fork at the end of strand
// l_k spawns the tasks of parallel block b_k plus a continuation job for
// strand l_{k+1} of the same task. When the last strand of a task ends
// without forking, the task is complete and the enclosing fork's join
// counter is notified.
//
// Space-bounded schedulers additionally need size annotations (paper §3.1,
// "SBJob"): size(B) — distinct footprint of the whole task, and
// strand_size(B) — footprint of the current strand alone. Unannotated jobs
// report kNoSize; a strand without its own size defaults to its task's size
// (paper §4.1 footnote 1).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/assert.h"

namespace sbs::runtime {

class Job;
class Strand;

inline constexpr std::uint64_t kNoSize = ~std::uint64_t{0};

/// Join bookkeeping for one parallel block: when `remaining` task
/// completions have been observed, the continuation strand is released.
struct JoinCounter {
  explicit JoinCounter(int count, Job* cont)
      : remaining(count), continuation(cont) {}
  std::atomic<int> remaining;
  Job* continuation;  ///< nullptr only for the root sentinel.
};

/// Per-task bookkeeping created when a task is spawned at a fork. Scheduler
/// state (e.g. the cache a space-bounded scheduler anchored the task to)
/// lives in the `anchor`/`attr` slots so the same struct serves every
/// scheduler without casts.
struct Task {
  explicit Task(Task* parent_task) : parent(parent_task) {}
  Task* parent;  ///< enclosing task; nullptr for the root task.

  // --- scheduler slots (owned by the active scheduler) ---
  int anchor = -1;             ///< cache node id the task is anchored to.
  std::uint64_t size = 0;      ///< S(t;B) as computed at anchoring time.
  bool maximal = false;        ///< true if this task is level-i maximal.
  std::uint64_t attr = 0;      ///< free slot for scheduler-specific data.
};

/// One strand of a task. Derive and implement execute(); the body may call
/// Strand::fork() at most once, as its final action.
class Job {
 public:
  virtual ~Job() = default;

  /// Run the strand on the calling worker.
  virtual void execute(Strand& strand) = 0;

  /// Distinct-footprint size S(t;B) in bytes of the task this job begins.
  /// Only meaningful on jobs that start a task (fork children / roots).
  /// kNoSize means "not annotated" — space-bounded schedulers will refuse it.
  virtual std::uint64_t size(std::uint32_t block_size) const {
    (void)block_size;
    return kNoSize;
  }

  /// Footprint of this strand alone; defaults to the enclosing task's size.
  virtual std::uint64_t strand_size(std::uint32_t block_size) const {
    return size(block_size);
  }

  Task* task() const { return task_; }
  /// True if this job is the first strand of its task (set by the framework).
  bool starts_task() const { return starts_task_; }

 private:
  friend class StrandOps;
  Task* task_ = nullptr;
  JoinCounter* on_complete_ = nullptr;
  bool starts_task_ = false;
};

/// Convenience base for annotated jobs: stores byte sizes and exposes them
/// through the virtual interface (footprints measured in whole bytes are a
/// faithful S(t;B) for the dense-array kernels in this repo, where the
/// distinct-line count is just ceil(bytes / B)).
class SBJob : public Job {
 public:
  SBJob(std::uint64_t task_bytes, std::uint64_t strand_bytes = kNoSize)
      : task_bytes_(task_bytes), strand_bytes_(strand_bytes) {}

  std::uint64_t size(std::uint32_t block_size) const override {
    return round_to_lines(task_bytes_, block_size);
  }
  std::uint64_t strand_size(std::uint32_t block_size) const override {
    if (strand_bytes_ == kNoSize) return size(block_size);
    return round_to_lines(strand_bytes_, block_size);
  }

  static std::uint64_t round_to_lines(std::uint64_t bytes,
                                      std::uint32_t block_size) {
    if (bytes == kNoSize || block_size == 0) return bytes;
    return (bytes + block_size - 1) / block_size * block_size;
  }

 private:
  std::uint64_t task_bytes_;
  std::uint64_t strand_bytes_;
};

/// Execution context handed to Job::execute. Captures the (at most one,
/// terminal) fork request; the engine turns it into scheduler callbacks.
class Strand {
 public:
  Strand(int thread_id, int num_threads)
      : thread_id_(thread_id), num_threads_(num_threads) {}

  /// Spawn `children` as parallel subtasks and `continuation` as the next
  /// strand of the calling task, to run after all children complete.
  /// Must be the last action of execute(); children must be non-empty and
  /// continuation non-null.
  void fork(std::vector<Job*> children, Job* continuation) {
    SBS_CHECK_MSG(!forked_, "a strand may fork at most once");
    SBS_CHECK_MSG(!children.empty(), "fork needs at least one child");
    SBS_CHECK_MSG(continuation != nullptr, "fork needs a continuation");
    forked_ = true;
    children_ = std::move(children);
    continuation_ = continuation;
  }

  /// Binary fork — the common case.
  void fork2(Job* left, Job* right, Job* continuation) {
    fork({left, right}, continuation);
  }

  int thread_id() const { return thread_id_; }
  int num_threads() const { return num_threads_; }

  // --- framework side ---
  bool forked() const { return forked_; }
  std::vector<Job*>& children() { return children_; }
  Job* continuation() const { return continuation_; }

 private:
  int thread_id_;
  int num_threads_;
  bool forked_ = false;
  std::vector<Job*> children_;
  Job* continuation_ = nullptr;
};

}  // namespace sbs::runtime
