// The simulator's idle fast-forward (sim/engine.h) must be invisible to the
// simulation. SB, SB-D, WS, PWS and CilkWS let the pump charge a quiet core's
// empty polls up to the window horizon in one step and undo the part a
// later push invalidates; every simulated number, the work stealers'
// steal counts included, must equal the run that executes each poll. The
// reference run wraps the same scheduler in a forwarding decorator that
// keeps the interface's defaults for idle_poll_ops(), charge_idle_polls()
// and set_push_log(), which sends every poll down the per-poll path.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "kernels/kernel.h"
#include "machine/config.h"
#include "machine/topology.h"
#include "runtime/scheduler.h"
#include "sched/ops.h"
#include "sched/registry.h"
#include "sim/engine.h"

namespace sbs::sim {
namespace {

/// Forwards the scheduler callbacks and nothing else.
class PerPoll : public runtime::Scheduler {
 public:
  explicit PerPoll(std::unique_ptr<runtime::Scheduler> inner)
      : inner_(std::move(inner)) {}
  void start(const machine::Topology& topo, int num_threads) override {
    inner_->start(topo, num_threads);
  }
  void finish() override { inner_->finish(); }
  void add(runtime::Job* job, int thread_id) override {
    inner_->add(job, thread_id);
  }
  runtime::Job* get(int thread_id) override { return inner_->get(thread_id); }
  void done(runtime::Job* job, int thread_id, bool task_completed) override {
    inner_->done(job, thread_id, task_completed);
  }
  std::string name() const override { return inner_->name(); }
  bool needs_size_annotations() const override {
    return inner_->needs_size_annotations();
  }
  std::string stats_string() const override { return inner_->stats_string(); }

 protected:
  std::unique_ptr<runtime::Scheduler> inner_;
};

/// A scheduler where all but every eighth thread count `extra` more ops
/// per get(), and so poll with a longer period when quiet. Every shipped
/// machine is a symmetric tree whose quiet cores all share one period.
/// Mixing two makes the few short-period cores poll between their batched
/// long-period peers, whose polls are then missing from the event queue.
class UnevenPolls final : public PerPoll {
 public:
  UnevenPolls(std::unique_ptr<runtime::Scheduler> inner, std::uint64_t extra)
      : PerPoll(std::move(inner)), extra_(extra) {}
  runtime::Job* get(int thread_id) override {
    runtime::Job* job = inner_->get(thread_id);
    if (slow(thread_id)) sched::count_op(extra_);
    return job;
  }
  std::int64_t idle_poll_ops(int thread_id) const override {
    const std::int64_t ops = inner_->idle_poll_ops(thread_id);
    if (ops < 0 || !slow(thread_id)) return ops;
    return ops + static_cast<std::int64_t>(extra_);
  }
  void charge_idle_polls(int thread_id, std::int64_t polls) override {
    inner_->charge_idle_polls(thread_id, polls);
  }
  bool set_push_log(std::vector<int>* log) override {
    return inner_->set_push_log(log);
  }

 private:
  static bool slow(int thread_id) { return thread_id % 8 != 0; }

  std::uint64_t extra_;
};

machine::MachineConfig Machine(const std::string& name) {
  if (name.find(".cfg") == std::string::npos) return machine::Preset(name);
  // Located relative to this source file (ctest runs from the build tree).
  std::string path = __FILE__;
  path = path.substr(0, path.find_last_of('/'));
  return machine::LoadConfigFile(path + "/../configs/" + name);
}

SimResult RunOnce(const machine::Topology& topo, const std::string& sched_name,
                  const std::string& kernel_name, std::uint64_t quantum,
                  bool per_poll, std::uint64_t uneven = 0) {
  kernels::KernelParams kp;
  kp.n = kernel_name == "matmul" ? 64 : 20000;
  kp.base = 512;
  if (topo.config().name == "xeon7560_s8") kp.machine_scale = 8;
  auto kernel = kernels::MakeKernel(kernel_name, kp);
  kernel->prepare(3);
  std::unique_ptr<runtime::Scheduler> sched = sched::MakeScheduler(sched_name);
  if (uneven != 0)
    sched = std::make_unique<UnevenPolls>(std::move(sched), uneven);
  if (per_poll) sched = std::make_unique<PerPoll>(std::move(sched));
  SimParams sp;
  sp.skew_quantum = quantum;
  SimEngine engine(topo, sp);
  SimResult r = engine.run(*sched, kernel->make_root());
  EXPECT_TRUE(kernel->verify()) << sched_name << "/" << kernel_name;
  return r;
}

/// One result on a line of its own, for failure messages.
std::string Describe(const SimResult& r) {
  return "\n  makespan=" + std::to_string(r.makespan_cycles) + " " +
         r.counters.summary() + " | " + r.stats.summary() + " | " +
         r.sched_stats;
}

/// Every field of the two results must match bit for bit.
void ExpectIdentical(const SimResult& a, const SimResult& b,
                     const std::string& label) {
  EXPECT_TRUE(a == b) << label << Describe(a) << Describe(b);
}

using Cell = std::tuple<std::string, std::string, std::string>;

class FastIdle : public ::testing::TestWithParam<Cell> {};

// The paper's machine scaled 1/8 (xeon7560_s8), a small one whose L1s are
// shared by two threads (mini_deep), a core map (xeon7560_fig4.cfg) and
// 128 cores under four cache levels (huge16); windows narrow enough that
// few polls fit one (2500 cycles) and wide enough that many peers batch
// and roll back (60000). Dropping the rollback of peer batches on a push
// breaks most of these cells.
INSTANTIATE_TEST_SUITE_P(
    Cells, FastIdle,
    ::testing::Combine(::testing::Values("xeon7560_s8", "mini_deep",
                                         "xeon7560_fig4.cfg",
                                         "huge16_4level.cfg"),
                       ::testing::Values("SB", "SB-D", "WS", "PWS", "CilkWS"),
                       ::testing::Values("quicksort", "samplesort", "matmul")),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::get<1>(info.param) + "_" +
                         std::get<2>(info.param);
      for (char& c : name)
        if (c == '.' || c == '-') c = '_';
      return name;
    });

TEST_P(FastIdle, EqualsPerPollRun) {
  const auto& [machine_name, sched_name, kernel_name] = GetParam();
  const machine::Topology topo(Machine(machine_name));
  for (const std::uint64_t quantum : {10000, 2500, 60000}) {
    const std::string label = machine_name + " " + sched_name + " " +
                              kernel_name + " q=" + std::to_string(quantum);
    const SimResult fast =
        RunOnce(topo, sched_name, kernel_name, quantum, /*per_poll=*/false);
    const SimResult slow =
        RunOnce(topo, sched_name, kernel_name, quantum, /*per_poll=*/true);
    ExpectIdentical(fast, slow, label);
  }
}

// The cycles charged per op and per poll make up the batch period. With
// free ops (0 cycles) a get() that succeeds leaves the core's clock where
// it was popped, so a stale queue entry at that clock must not pass for a
// live one.
using PollCosts = std::pair<unsigned, unsigned>;  // (op, poll) cycles
using PollCostCell = std::tuple<PollCosts, std::string>;

class FastIdlePollCosts : public ::testing::TestWithParam<PollCostCell> {};

INSTANTIATE_TEST_SUITE_P(
    Cells, FastIdlePollCosts,
    ::testing::Combine(::testing::Values(PollCosts(0, 37), PollCosts(7, 0),
                                         PollCosts(200, 5000), PollCosts(1, 1)),
                       ::testing::Values("SB", "SB-D", "WS", "PWS", "CilkWS")),
    [](const auto& info) {
      const PollCosts costs = std::get<0>(info.param);
      std::string name = "op" + std::to_string(costs.first) + "_poll" +
                         std::to_string(costs.second) + "_" +
                         std::get<1>(info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST_P(FastIdlePollCosts, EqualsPerPollRun) {
  const auto& [costs, sched_name] = GetParam();
  const auto& [op_cycles, poll_cycles] = costs;
  machine::MachineConfig cfg = Machine("huge16_4level.cfg");
  cfg.sched_op_cycles = op_cycles;
  cfg.idle_poll_cycles = poll_cycles;
  const machine::Topology topo(cfg);
  for (const char* kernel_name : {"quicksort", "samplesort"}) {
    const std::string label = sched_name + " " + kernel_name +
                              " op=" + std::to_string(op_cycles) +
                              " poll=" + std::to_string(poll_cycles);
    ExpectIdentical(RunOnce(topo, sched_name, kernel_name, 10000, false),
                    RunOnce(topo, sched_name, kernel_name, 10000, true),
                    label);
  }
}

TEST(FastIdle, EqualsPerPollRunWithUnequalPollPeriods) {
  for (const char* machine_name : {"xeon7560_s8", "mini_deep"}) {
    const machine::Topology topo(Machine(machine_name));
    for (const char* sched_name : {"SB", "SB-D", "WS", "PWS", "CilkWS"}) {
      for (const std::uint64_t quantum : {10000, 60000}) {
        const std::string label = std::string(machine_name) + " " +
                                  sched_name + " q=" +
                                  std::to_string(quantum);
        ExpectIdentical(
            RunOnce(topo, sched_name, "quicksort", quantum, false, 3),
            RunOnce(topo, sched_name, "quicksort", quantum, true, 3), label);
      }
    }
  }
}

}  // namespace
}  // namespace sbs::sim
