// SB / SB-D — space-bounded schedulers (paper §4.1–§4.2).
//
// Terminology (paper §4.1, with tree depths instead of paper levels: depth 0
// is the root/memory, larger depth = smaller cache):
//   befitting cache   a depth-d cache befits task t iff
//                     σ·M_{d+1} < S(t,B_d) ≤ σ·M_d  — i.e. the smallest
//                     cache level whose dilated capacity holds the task.
//   maximal task      befits a strictly deeper (smaller) level than the
//                     level its parent is anchored to.
//   anchored          a maximal task is bound to one concrete cache Y; all
//                     its strands execute on cores of Y's cluster.
//   bounded           at every cache, anchored-task sizes (plus skip-level
//                     tasks anchored below whose parents are anchored above,
//                     for inclusive caches) plus min(µM, strand-size) for
//                     live foreign strands never exceed the capacity.
//
// Implementation (paper §4.2): every cache node owns a logical queue split
// into per-befit-level buckets plus a local FIFO for strands and
// non-maximal tasks. add() enqueues a spawned task at its parent's anchor
// node, in the bucket of its befitting level. Idle cores walk their
// root-to-leaf path from the innermost cache outwards; buckets are scanned
// heaviest-first. Taking a maximal task anchors it to the befitting cache
// on the taker's path, after an atomic bounded-occupancy admission over
// every cache from the anchor up to (excluding) the parent's anchor —
// the skip-level charge for inclusive caches. SB-D replaces each node's
// top (heaviest) bucket with one queue per child cache to remove the
// contention hotspot, stealing from sibling child-queues like WS.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "runtime/scheduler.h"
#include "sched/ops.h"

namespace sbs::sched {

class SpaceBounded : public runtime::Scheduler {
 public:
  struct Options {
    double sigma = 0.5;  ///< dilation parameter σ ∈ (0,1] (paper uses 0.5)
    double mu = 0.2;     ///< strand occupancy cap µ ∈ (0,1] (paper uses 0.2)
    bool distributed_top = false;  ///< SB-D: distribute each top bucket
    /// Ablation A: when false, strands charge their full size (no µ cap).
    bool mu_cap = true;
    /// Ablation B: when false, per-strand sizes are ignored and every strand
    /// charges its task's size (the paper notes per-strand sizes are an
    /// optional but important optimization, §4.1).
    bool use_strand_sizes = true;

    /// Deliberate scheduler bugs, reachable only from tests: the mutation
    /// tests in tests/test_verify.cpp seed each one and assert that the
    /// verify:: invariant checker flags it. Never set outside tests.
    struct TestFaults {
      /// Over-admit: charge the anchor path unconditionally, skipping the
      /// bounded-occupancy capacity check of try_charge_path.
      bool force_admission = false;
      /// Mis-anchor: anchor maximal tasks this many levels *above* their
      /// befitting cache (clamped at the ceiling), violating anchoring.
      int anchor_depth_bias = 0;
    } test_faults;
  };

  SpaceBounded();  // default options
  explicit SpaceBounded(Options options);

  void start(const machine::Topology& topo, int num_threads) override;
  void finish() override;
  void add(runtime::Job* job, int thread_id) override;
  runtime::Job* get(int thread_id) override;
  void done(runtime::Job* job, int thread_id, bool task_completed) override;
  std::string name() const override {
    return options_.distributed_top ? "SB-D" : "SB";
  }
  bool needs_size_annotations() const override { return true; }
  std::string stats_string() const override;

  const Options& options() const { return options_; }

  /// Current occupancy of a cache node (tests assert the bounded property).
  std::uint64_t occupied(int node_id) const;
  /// High-water occupancy of a cache node across the run.
  std::uint64_t max_occupied(int node_id) const;
  /// Anchoring decisions across the run (tests compare against the trace).
  std::uint64_t total_anchors() const;
  std::uint64_t anchors_at_depth(int depth) const;

 private:
  /// One spinlock-protected job queue, padded onto its own cache line(s) so
  /// neighbouring buckets never false-share lock or size words. The atomic
  /// size mirror lets idle cores scan for work without taking the lock:
  /// maybe_empty() is a relaxed load, and the lock is only acquired once a
  /// queue looks non-empty. A stale zero merely delays the scanner by one
  /// pass (the engine polls get() until work appears); a stale non-zero
  /// costs one uncontended lock round-trip. Queues with one lock each also
  /// shrink hold times versus the previous single per-node lock, which
  /// serialized the local queue and every bucket of a node together.
  struct alignas(64) JobQueue {
    Spinlock lock;
    std::atomic<std::size_t> size{0};
    /// Cold container behind the spinlock; the JobQueue itself (spinlock +
    /// atomic size mirror) is the hot-path interface.
    // lint:allow(std-deque)
    std::deque<runtime::Job*> jobs SBS_GUARDED_BY(lock);

    bool maybe_empty() const {
      count_op();
      // Relaxed: advisory probe to skip taking the lock; callers
      // revalidate under the lock before acting on the answer.
      return size.load(std::memory_order_relaxed) == 0;
    }
    void push_back(runtime::Job* job) {
      SpinGuard guard(lock);
      count_op();
      jobs.push_back(job);
      // Relaxed mirror write: `size` only feeds maybe_empty()'s
      // advisory probe; the deque itself is published by the lock.
      size.store(jobs.size(), std::memory_order_relaxed);
    }
    void push_front(runtime::Job* job) {
      SpinGuard guard(lock);
      count_op();
      jobs.push_front(job);
      // Relaxed mirror write (see push_back).
      size.store(jobs.size(), std::memory_order_relaxed);
    }
    runtime::Job* pop_back() {
      SpinGuard guard(lock);
      count_op();
      if (jobs.empty()) return nullptr;
      runtime::Job* job = jobs.back();
      jobs.pop_back();
      // Relaxed mirror write (see push_back).
      size.store(jobs.size(), std::memory_order_relaxed);
      return job;
    }
    runtime::Job* pop_front() {
      SpinGuard guard(lock);
      count_op();
      if (jobs.empty()) return nullptr;
      runtime::Job* job = jobs.front();
      jobs.pop_front();
      // Relaxed mirror write (see push_back).
      size.store(jobs.size(), std::memory_order_relaxed);
      return job;
    }
    /// Drain check for finish(): takes the lock (run quiescent, so it is
    /// uncontended) rather than poking `jobs` past the capability analysis.
    bool drained() {
      SpinGuard guard(lock);
      return jobs.empty();
    }
  };

  struct NodeState {
    /// Queue containers are std::deque because JobQueue (spinlock + atomic)
    /// is immovable; deque never relocates elements. Containers are sized at
    /// start() and never resized during a run — only JobQueue's own methods
    /// touch the hot path. lint:allow(std-deque) on both.
    /// local: strands (continuations) and non-maximal tasks anchored here.
    JobQueue local;
    /// buckets[b]: maximal tasks whose befitting depth is b (> node depth).
    std::deque<JobQueue> buckets;  // lint:allow(std-deque)
    /// SB-D: the top bucket (b == depth+1) distributed per child.
    std::deque<JobQueue> child_top;  // lint:allow(std-deque)
    /// Occupancy counters on their own line: admission CASes from every
    /// core hammer these words and must not false-share with queue locks.
    alignas(64) std::atomic<std::uint64_t> occupied{0};
    std::atomic<std::uint64_t> max_occupied{0};

    NodeState(int num_buckets, int num_children)
        : buckets(static_cast<std::size_t>(num_buckets)),
          child_top(static_cast<std::size_t>(num_children)) {}
  };

  /// One queue on a thread's probe path, in the order get() polls it.
  struct ProbeStep {
    enum Kind : std::uint8_t {
      kLocal,    ///< a node's local queue: strands, non-maximal tasks
      kBucket,   ///< popped LIFO: a bucket, or SB-D's own child queue
      kSibling,  ///< SB-D: a sibling child queue, stolen FIFO
    };
    JobQueue* queue;
    /// Where a task that fails admission goes back (to the front): the
    /// bucket itself, or for SB-D top buckets the thread's own child queue.
    JobQueue* requeue;
    int node;             ///< cache node owning the queue
    std::uint16_t skip;   ///< steps left in this SB-D top bucket
    std::uint8_t bucket;  ///< befitting depth b (kLocal: unused)
    Kind kind;
  };

  struct alignas(64) PerThread {
    /// (node id, amount) strand-occupancy charges of the running strand.
    std::vector<std::pair<int, std::uint64_t>> strand_charges;
    /// Every queue get() may take from, built once in start(): from the
    /// innermost cache outwards, each node's local queue, then its buckets
    /// heaviest-first (SB-D: own child queue, then siblings in ring order).
    std::vector<ProbeStep> path;
    std::uint64_t anchors = 0;
    std::uint64_t admission_failures = 0;
    std::uint64_t sibling_pops = 0;  ///< SB-D cross-child-queue pops
  };

  // --- helpers ---
  std::uint64_t task_size_at(const runtime::Job& job, int depth) const;
  std::uint64_t strand_size_at(const runtime::Job& job, int depth) const;
  /// Deepest depth whose dilated capacity holds the task (0 = root).
  int befit_depth(const runtime::Job& job) const;
  /// Atomically charge `bytes` on every cache on `leaf_path` with depth in
  /// (ceiling_depth, anchor_depth], checking capacity; rolls back on
  /// failure. Returns success.
  bool try_charge_path(int anchor_node, int ceiling_depth, std::uint64_t bytes);
  /// Test-fault variant: charge unconditionally, ignoring capacity (the
  /// over-admission mutation the invariant checker must catch).
  void force_charge_path(int anchor_node, int ceiling_depth,
                         std::uint64_t bytes);
  void release_path(int anchor_node, int ceiling_depth, std::uint64_t bytes);
  void bump_max(NodeState& node);
  /// Charge strand occupancy below the task's anchor on this thread's path.
  void charge_strand(runtime::Job* job, int thread_id);
  /// Attempt to admit+anchor a maximal task popped from node X, bucket b.
  bool try_anchor(runtime::Job* job, int x_node, int b, int thread_id);
  bool is_top_bucket(int x_node, int b) const;
  /// Build `thread_id`'s probe path (PerThread::path).
  std::vector<ProbeStep> probe_path(int thread_id);

  Options options_;
  const machine::Topology* topo_ = nullptr;
  int num_threads_ = 0;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::vector<std::unique_ptr<PerThread>> threads_;
  std::vector<std::uint64_t> capacity_;       ///< per-depth M_d (0 = inf)
  std::vector<std::uint32_t> line_;           ///< per-depth B_d
  std::vector<std::atomic<std::uint64_t>> anchors_at_depth_;
};

}  // namespace sbs::sched
