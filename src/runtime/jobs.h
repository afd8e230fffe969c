// Convenience Job implementations: lambda-backed strands and no-op
// continuations. Kernels build their task trees out of these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "runtime/job.h"

namespace sbs::runtime {

/// A job whose strand body is a callable `void(Strand&)`, with optional
/// task/strand footprint annotations in bytes.
template <class F>
class LambdaJob final : public Job {
 public:
  LambdaJob(F fn, std::uint64_t task_bytes, std::uint64_t strand_bytes)
      : fn_(std::move(fn)),
        task_bytes_(task_bytes),
        strand_bytes_(strand_bytes) {}

  void execute(Strand& strand) override { fn_(strand); }

  std::uint64_t size(std::uint32_t block_size) const override {
    return SBJob::round_to_lines(task_bytes_, block_size);
  }
  std::uint64_t strand_size(std::uint32_t block_size) const override {
    if (strand_bytes_ == kNoSize) return size(block_size);
    return SBJob::round_to_lines(strand_bytes_, block_size);
  }

 private:
  F fn_;
  std::uint64_t task_bytes_;
  std::uint64_t strand_bytes_;
};

/// Allocate a job from a callable. `task_bytes` annotates the footprint of
/// the task the job begins (kNoSize = unannotated; space-bounded schedulers
/// refuse such jobs); `strand_bytes` annotates this strand alone. The job
/// comes from the calling worker's JobArena when one is in scope.
template <class F>
Job* make_job(F&& fn, std::uint64_t task_bytes = kNoSize,
              std::uint64_t strand_bytes = kNoSize) {
  using JobType = LambdaJob<std::decay_t<F>>;
  static_assert(alignof(JobType) <= alignof(std::max_align_t),
                "over-aligned captures are not supported by the job arena");
  return new JobType(std::forward<F>(fn), task_bytes, strand_bytes);
}

/// An empty continuation strand (used when a fork has nothing to do after
/// the join). A distinct type rather than an empty LambdaJob so that it
/// carries its own strand footprint for space-bounded schedulers.
class NopJob final : public Job {
 public:
  explicit NopJob(std::uint64_t strand_bytes) : strand_bytes_(strand_bytes) {}

  void execute(Strand&) override {}

  std::uint64_t strand_size(std::uint32_t block_size) const override {
    return SBJob::round_to_lines(strand_bytes_, block_size);
  }

 private:
  std::uint64_t strand_bytes_;
};

/// An empty continuation strand; its strand footprint is a single line.
inline Job* make_nop(std::uint64_t strand_bytes = 64) {
  return new NopJob(strand_bytes);
}

}  // namespace sbs::runtime
