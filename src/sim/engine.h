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
// The window phase is where host parallelism comes in (SimParams::
// host_threads): cores are grouped by their depth-1 (socket) subtree —
// the memory system's shards — and each shard's cores execute on one host
// worker, shards spread round-robin over workers. Within a shard cores run
// sequentially in (clock, thread) order; across shards all simulated state
// is disjoint for the duration of the window (memory_system.h), with
// cross-shard coherence and bandwidth merged at the window barrier in
// deterministic shard order. Results are therefore bit-identical for every
// host_threads value, including 1 — the serial path is the same algorithm.
//
// Idle fast-forward. Most pump events on a many-core machine are empty
// polls, and a scheduler that implements Scheduler::idle_poll_ops() and
// set_push_log() (SB, SB-D) lets the pump charge them without calling
// get(). A core is *quiet* when its get() must return nullptr because every
// queue on its probe path is empty; each of its polls then costs a fixed
// period c = ops * sched_op_cycles + idle_poll_cycles. An idle re-queue is
// max(clock + c, second), where `second` is the next other event, and it
// binds (takes `second`) only when no other event lies within c. Two
// guarantees rule that out for every poll of a pump pass:
//   busy  a busy core's clock is within idle_poll_cycles of the pop; busy
//         clocks only fall within a pass, so this holds for every later
//         poll of every core;
//   peer  a batch of no longer period made earlier in the pass, or an
//         equally quiet idle core queued within c, keeps an event within c
//         of every poll until the next push.
// Under either, the pump charges all k = (horizon - t) / c + 1 polls of a
// quiet core popped at t in one step and re-queues it at t + k * c. The
// scheduler logs the cache node of every queue push; after each scheduler
// call at event (clk, tid), every busy batch of a thread under a pushed
// node, and every peer batch, gives back its polls ordered after that
// event and is re-queued at the first of them. A poll that is not batched
// and is shorter than the live peers' gives them back before it reads
// `second`, and root completion gives back every batched poll after it.
// Polls charged in earlier passes are final: the per-poll pump also ran
// them before any later event. The result is bit-identical to executing
// every poll (tests/test_sim_fast_idle.cpp); docs/PERF.md §9 has the
// numbers. Schedulers that keep the interface defaults (WS, PWS, CilkWS,
// wrappers), and every run with the trace recorder on, poll one at a time.
//
// Semantics are exact (strand bodies execute real C++ on host memory);
// timing is the model documented in memory_system.h. Scheduler queue
// *contents* are not simulated as memory traffic — callbacks are charged
// `sched_op_cycles` per instrumented lock/queue operation instead (see
// sched/ops.h); the paper's observation that coherence traffic from
// scheduler bookkeeping perturbs active time is thus out of scope.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
  std::size_t fiber_stack_bytes = 512 * 1024;
  /// Host threads executing window phases; clamped to the machine's socket
  /// count. Results are identical for every value (see file comment).
  int host_threads = 1;
  /// Adaptive windows: elide the window-merge barrier while windows stay
  /// "quiet" (no cross-shard coherence traffic, no link bandwidth use),
  /// geometrically widening the merge-free run and shrinking back to one
  /// window on contact. A quiet merge is an identity apart from folding
  /// counter deltas (which is commutative), and the elision decision reads
  /// only simulation-determined state, so results are bit-identical to the
  /// fixed-quantum baseline — the equivalence tests assert it.
  bool adaptive_window = true;
  /// Run inline-runnable strands (e.g. empty join continuations, see
  /// runtime::Job::inline_runnable) directly on the pump with no fiber
  /// switch. Bit-identical to the fiber path: such strands touch no
  /// simulated state, and the pump defers their completion to the same
  /// barrier the fiber path uses.
  bool inline_strands = true;
  // Cache-representation knobs, mirrored into MemoryParams::cache by the
  // engine constructor (cache.h CacheOptions). All three are pure host-side
  // representation choices: makespans and every coherence counter are
  // bit-identical whichever way they are set (tests/test_sim_probe.cpp).
  /// Vectorized tag probes (SSE2/AVX2 where available); scalar scan when
  /// false. SBS_SIM_SCALAR=1 in the environment also forces scalar.
  bool simd_probes = true;
  /// Per-set line-presence filters on big outer-level tag arrays.
  bool presence_filter = true;
  /// Packed O(1) recency encoding instead of the rotate-to-front shuffle.
  /// Off by default — see CacheOptions::packed_lru (cache.h).
  bool packed_lru = false;
};

struct SimResult {
  runtime::RunStats stats;  ///< times in seconds (cycles / GHz)
  Counters counters;
  std::uint64_t makespan_cycles = 0;
  std::string sched_stats;

  double llc_misses_m() const {
    return static_cast<double>(counters.llc_misses()) / 1e6;
  }
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
  MemorySystem& memory() { return *memory_; }
  int host_threads() const { return host_threads_; }

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
  /// Resume every busy core of the shards assigned to host worker `h`
  /// until their clocks pass horizon_ (one window phase's share).
  void worker_pass(int h);
  void worker_loop(int h);

  const machine::Topology& topo_;
  SimParams params_;
  int num_threads_;
  int host_threads_ = 1;
  std::unique_ptr<MemorySystem> memory_;
  std::vector<std::unique_ptr<VCore>> cores_;
  std::unique_ptr<trace::Recorder> recorder_;
  runtime::Scheduler* sched_ = nullptr;
  /// One fork/join allocation arena per host worker; strand bodies allocate
  /// on the worker running their shard, the pump's settle() frees remotely.
  std::vector<std::unique_ptr<runtime::JobArena>> arenas_;
  std::uint64_t horizon_ = 0;  ///< yield threshold for running fibers

  // Adaptive-window state (SimParams::adaptive_window).
  std::uint64_t windows_since_merge_ = 0;
  std::uint64_t coalesce_limit_ = 1;  ///< merge-free window budget
  static constexpr std::uint64_t kCoalesceCap = 4096;

  // Engine-overhead counters for the current run (folded into
  // SimResult::counters; see counters.h).
  std::uint64_t windows_executed_ = 0;
  std::uint64_t pump_passes_ = 0;
  std::uint64_t window_merges_ = 0;
  std::uint64_t inline_strands_run_ = 0;

  /// Strands the pump ran inline this window; their completions are queued
  /// at the barrier, exactly when the fiber path would.
  std::vector<VCore*> inline_done_;

  /// Exact (clock, thread id) min-queue over idle and pending-finish cores
  /// (event_queue.h): idle re-queues append to a sorted ring in O(1),
  /// completions and the initial fill go to a small heap. Busy cores live
  /// in shard_busy_ instead. An undone batch leaves its core's old entry
  /// behind: an entry is live only while its core is `queued` at exactly
  /// that clock. stale_entries_ counts the others, so the queue is only
  /// purged while some exist (never under WS, whose polls are not batched).
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

  // Window-phase worker pool (host_threads_ - 1 threads + the pump).
  std::vector<std::thread> pool_;
  std::mutex pool_mu_;
  std::condition_variable pool_go_, pool_done_;
  std::uint64_t pool_gen_ = 0;
  int pool_pending_ = 0;
  bool pool_stop_ = false;

  bool root_completed_ = false;
};

}  // namespace sbs::sim
