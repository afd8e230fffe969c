// SimEngine: executes a nested-parallel computation on the simulated PMH
// machine, under an unmodified Scheduler implementation.
//
// Every hardware thread of the machine is a virtual core with its own
// virtual clock. Execution proceeds in bounded-skew *windows*: each window
// spans [min clock, min clock + skew_quantum]. A single-threaded pump first
// drives every idle or just-finished core whose clock falls inside the
// window, in deterministic (clock, thread) order — scheduler get()/done()/
// add() calls all happen here, so scheduler implementations stay
// single-threaded and overheads are charged from the instrumented op count.
// Then every core with a live strand runs its fiber until its clock leaves
// the window (or the strand completes): each instrumented memory access
// walks the simulated cache hierarchy and advances the clock.
//
// The window phase runs on the host thread that calls run(). Cores are
// grouped by their depth-1 (socket) subtree — the memory system's shards —
// and run shard by shard, each shard's cores in (clock, thread) order.
// Within a window a shard touches only its own simulated state
// (memory_system.h); cross-shard coherence and bandwidth are merged at the
// window barrier in deterministic shard order. That deferral is part of
// the timing model, and the committed makespans are defined by it. Every
// barrier calls MemorySystem::merge_window(); a window with no cross-shard
// traffic merges nothing, and Counters::window_merges counts only the
// barriers that did merge.
//
// Idle fast-forward. Most pump events on a many-core machine are empty
// polls, and a scheduler that implements Scheduler::idle_poll_ops() and
// set_push_log() (SB, SB-D and the work stealers WS, PWS and CilkWS) lets
// the pump charge them without calling get(). A core is *quiet* when its
// get() must return nullptr because every queue it may take from is empty
// (SB: its probe path; WS: every deque); each of its polls then costs a
// fixed period c = ops * sched_op_cycles + idle_poll_cycles. An idle
// re-queue is max(clock + c, second), where `second` is the next other
// event, and it binds (takes `second`) only when no other event lies
// within c. Two guarantees rule that out for every poll of a pump pass:
//   busy  a busy core's clock is within idle_poll_cycles of the pop; busy
//         clocks only fall within a pass, so this holds for every later
//         poll of every core;
//   peer  a batch of no longer period made earlier in the pass, or an
//         equally quiet idle core queued within c, keeps an event within c
//         of every poll until the next push.
// Under either, the pump charges all k = (horizon - t) / c + 1 polls of a
// quiet core popped at t in one step and re-queues it at t + k * c;
// Scheduler::charge_idle_polls() applies what those polls change in the
// scheduler (a WS poll's victim draws and failed steals). The scheduler
// logs the cache node of every queue push (WS: the root, as any thread may
// steal); after each scheduler call at event (clk, tid), every busy batch
// of a thread under a pushed node, and every peer batch, gives back its
// polls ordered after that event, scheduler effects included, and is
// re-queued at the first of them. A poll that is not batched and is
// shorter than the live peers' gives them back before it reads `second`,
// and root completion gives back every batched poll after it. Polls
// charged in earlier passes are final: the per-poll pump also ran them
// before any later event. The result is bit-identical to executing every
// poll (tests/test_sim_fast_idle.cpp); docs/PERF.md §9 has the numbers.
// Schedulers that keep the interface defaults (the wrappers), and every run
// with the trace recorder on, poll one at a time.
//
// Semantics are exact (strand bodies execute real C++ on host memory);
// timing is the model documented in memory_system.h. Scheduler queue
// *contents* are not simulated as memory traffic — callbacks are charged
// `sched_op_cycles` per instrumented lock/queue operation instead (see
// sched/ops.h); the paper's observation that coherence traffic from
// scheduler bookkeeping perturbs active time is thus out of scope.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "machine/topology.h"
#include "runtime/job.h"
#include "runtime/job_arena.h"
#include "runtime/run_stats.h"
#include "runtime/scheduler.h"
#include "sim/counters.h"
#include "sim/event_queue.h"
#include "sim/memory_system.h"
#include "trace/recorder.h"

namespace sbs::sim {

struct SimParams {
  MemoryParams memory;
  /// Maximum virtual-clock lead a running strand may take over the slowest
  /// other core before being suspended (the window width).
  std::uint64_t skew_quantum = 10000;
  /// Worker count; -1 = all hardware threads of the machine.
  int num_threads = -1;
};

struct SimResult {
  runtime::RunStats stats;  ///< times in seconds (cycles / GHz)
  Counters counters;
  std::uint64_t makespan_cycles = 0;
  std::string sched_stats;

  bool operator==(const SimResult&) const = default;
};

class SimEngine {
 public:
  SimEngine(const machine::Topology& topo, SimParams params = SimParams());
  ~SimEngine();

  /// Run the computation rooted at `root_job` (ownership transferred) under
  /// `sched` on the simulated machine. May be called repeatedly; cache and
  /// bandwidth state is reset between runs.
  SimResult run(runtime::Scheduler& sched, runtime::Job* root_job);

  const machine::Topology& topology() const { return topo_; }

  /// Own a trace recorder: subsequent run()s record scheduler lifecycle
  /// events with virtual-cycle timestamps from the per-core clocks. Each
  /// run resets the rings, so export before the next run.
  void enable_tracing(
      std::size_t events_per_worker = trace::Recorder::kDefaultCapacity);
  /// The engine's recorder; nullptr unless enable_tracing() was called.
  trace::Recorder* recorder() { return recorder_.get(); }

 private:
  struct VCore;
  friend struct VCore;

  void finish_strand(VCore& core);
  std::uint64_t charge_ops(std::uint64_t ops_before) const;

  // Event queue access that skips stale entries (see events_).
  void queue_core(VCore& core, bool idle);
  void purge_stale();
  /// Pop the next live event at or below the horizon; false if none.
  bool pop_event(std::uint64_t* clk, int* tid);
  /// The earliest clock of any busy core or live queued event.
  std::uint64_t next_event_clock();
  /// Count `polls` empty polls against the wedge check.
  void count_empty(std::uint64_t polls);

  // Idle fast-forward (file comment).
  /// Charge every poll of quiet core `core`, popped at `clk`, up to the
  /// horizon in one step if none of them can bind; false otherwise.
  bool try_batch(VCore& core, std::uint64_t clk);
  /// Un-charge the polls of `core`'s live batch that come after event
  /// (clk, tid), re-queueing the core at the first of them if `requeue`.
  void undo_batch(VCore& core, std::uint64_t clk, int tid, bool requeue);
  void undo_peer_batches(std::uint64_t clk, int tid);
  /// Drain push_log_ after a scheduler call at event (clk, tid): undo every
  /// peer batch and each busy batch of a thread under a pushed node.
  void undo_pushed(std::uint64_t clk, int tid);

  const machine::Topology& topo_;
  SimParams params_;
  int num_threads_;
  std::unique_ptr<MemorySystem> memory_;
  std::vector<std::unique_ptr<VCore>> cores_;
  std::unique_ptr<trace::Recorder> recorder_;
  runtime::Scheduler* sched_ = nullptr;
  /// The fork/join allocation arena of every strand body and settle().
  runtime::JobArena arena_;
  std::uint64_t horizon_ = 0;  ///< yield threshold for running fibers

  // Engine-overhead counters for the current run (folded into
  // SimResult::counters; see counters.h).
  std::uint64_t windows_executed_ = 0;
  std::uint64_t pump_passes_ = 0;
  std::uint64_t window_merges_ = 0;

  /// Exact (clock, thread id) min-queue over idle and pending-finish cores
  /// (event_queue.h): idle re-queues append to a sorted ring in O(1),
  /// completions and the initial fill go to a small heap. Busy cores live
  /// in shard_busy_ instead. An undone batch leaves its core's old entry
  /// behind: an entry is live only while its core is `queued` at exactly
  /// that clock. stale_entries_ counts the others, so the queue is only
  /// purged while some exist (never in a run that batches no polls).
  EventQueue events_;
  std::size_t stale_entries_ = 0;
  std::vector<std::vector<VCore*>> shard_busy_;  ///< per shard, sorted
  std::uint64_t busy_min_ = 0;  ///< min busy-core clock this window
  /// Empty polls since the last successful get(); the run is declared
  /// wedged when it reaches wedge_limit_.
  std::uint64_t consecutive_empty_ = 0;
  std::uint64_t wedge_limit_ = 0;

  // Idle fast-forward state of the current pump pass.
  std::vector<int> push_log_;  ///< registered with the scheduler
  std::vector<VCore*> busy_batches_;  ///< protected by a busy core
  std::vector<VCore*> peer_batches_;  ///< protected by each other
  std::uint64_t peer_period_ = 0;  ///< shortest live peer period

  bool root_completed_ = false;
};

}  // namespace sbs::sim
