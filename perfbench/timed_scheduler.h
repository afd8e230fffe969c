// A scheduler decorator that forwards every runtime::Scheduler call to the
// wrapped scheduler and times it from outside: call counts, host seconds
// spent inside the callbacks, and the instrumented scheduler operations
// (sched::ops_snapshot() deltas) the simulator charges as callback cycles.
//
// It adds no scheduler operations of its own, so simulated results are
// unchanged; the traced run asserts that. Its clock reads do add host time,
// inside the timed callbacks and around them; Calibrate() measures that cost
// so it can be taken out again. Not thread-safe: the simulator
// calls every callback from its single pump thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "runtime/scheduler.h"
#include "sched/ops.h"

namespace perfbench {

struct SchedCallStats {
  std::uint64_t add_n = 0;
  std::uint64_t get_n = 0;
  std::uint64_t get_hits = 0;  ///< get() calls that returned a job
  std::uint64_t done_n = 0;
  double host_s = 0;      ///< host seconds inside add/get/done
  std::uint64_t ops = 0;  ///< instrumented scheduler operations

  std::uint64_t calls() const { return add_n + get_n + done_n; }
};

/// What the wrapper's own timing costs per callback, measured on empty
/// callbacks: `inside_s` is what one reads as in host_s, `total_s` what it
/// adds to the op's host time.
struct TimerCost {
  double inside_s = 0;
  double total_s = 0;
};

class TimedScheduler final : public sbs::runtime::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<sbs::runtime::Scheduler> inner)
      : inner_(std::move(inner)) {}

  void start(const sbs::machine::Topology& topo, int num_threads) override {
    inner_->start(topo, num_threads);
  }
  void finish() override { inner_->finish(); }

  void add(sbs::runtime::Job* job, int thread_id) override {
    const Mark mark;
    inner_->add(job, thread_id);
    Charge(mark);
    ++stats_.add_n;
  }
  sbs::runtime::Job* get(int thread_id) override {
    const Mark mark;
    sbs::runtime::Job* job = inner_->get(thread_id);
    Charge(mark);
    ++stats_.get_n;
    if (job != nullptr) ++stats_.get_hits;
    return job;
  }
  void done(sbs::runtime::Job* job, int thread_id,
            bool task_completed) override {
    const Mark mark;
    inner_->done(job, thread_id, task_completed);
    Charge(mark);
    ++stats_.done_n;
  }

  std::string name() const override { return inner_->name(); }
  bool needs_size_annotations() const override {
    return inner_->needs_size_annotations();
  }
  std::string stats_string() const override { return inner_->stats_string(); }

  const SchedCallStats& stats() const { return stats_; }

  /// Time `calls` empty callbacks, timed as the wrapper times a real one.
  static TimerCost Calibrate(int calls) {
    SchedCallStats empty;
    const Mark outer;
    for (int i = 0; i < calls; ++i) {
      const Mark mark;
      Charge(empty, mark);
    }
    SchedCallStats whole;
    Charge(whole, outer);
    return {empty.host_s / calls, whole.host_s / calls};
  }

 private:
  struct Mark {
    std::chrono::steady_clock::time_point t = std::chrono::steady_clock::now();
    std::uint64_t ops = sbs::sched::ops_snapshot();
  };
  void Charge(const Mark& mark) { Charge(stats_, mark); }
  static void Charge(SchedCallStats& stats, const Mark& mark) {
    stats.ops += sbs::sched::ops_snapshot() - mark.ops;
    stats.host_s += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - mark.t)
                        .count();
  }

  std::unique_ptr<sbs::runtime::Scheduler> inner_;
  SchedCallStats stats_;
};

}  // namespace perfbench
