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
  /// in shard_busy_ instead.
  EventQueue events_;
  std::vector<std::vector<VCore*>> shard_busy_;  ///< per shard, sorted
  std::uint64_t busy_min_ = 0;  ///< min busy-core clock this window

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
