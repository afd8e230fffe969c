#include "sched/sb.h"

#include <algorithm>
#include <sstream>

#include "trace/recorder.h"
#include "util/assert.h"

namespace sbs::sched {

using runtime::Job;
using runtime::kNoSize;
using runtime::Task;

SpaceBounded::SpaceBounded() : SpaceBounded(Options()) {}

SpaceBounded::SpaceBounded(Options options) : options_(options) {
  SBS_CHECK_MSG(options_.sigma > 0 && options_.sigma <= 1.0,
                "dilation sigma must be in (0,1]");
  SBS_CHECK_MSG(options_.mu > 0 && options_.mu <= 1.0,
                "mu must be in (0,1]");
}

void SpaceBounded::start(const machine::Topology& topo, int num_threads) {
  topo_ = &topo;
  num_threads_ = num_threads;
  const int depths = topo.leaf_depth();  // cache depths are 0..depths-1

  capacity_.assign(static_cast<std::size_t>(depths), 0);
  line_.assign(static_cast<std::size_t>(depths), 64);
  for (int d = 0; d < depths; ++d) {
    capacity_[static_cast<std::size_t>(d)] = topo.config().levels[static_cast<std::size_t>(d)].size;
    line_[static_cast<std::size_t>(d)] = topo.config().levels[static_cast<std::size_t>(d)].line;
  }

  nodes_.clear();
  nodes_.reserve(static_cast<std::size_t>(topo.num_nodes()));
  for (int id = 0; id < topo.num_nodes(); ++id) {
    const int num_children =
        options_.distributed_top && topo.node(id).depth < depths
            ? topo.node(id).num_children
            : 0;
    nodes_.push_back(std::make_unique<NodeState>(depths, num_children));
  }

  threads_.clear();
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads_.push_back(std::make_unique<PerThread>());
    threads_.back()->path = probe_path(t);
  }

  anchors_at_depth_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(depths));
}

std::vector<SpaceBounded::ProbeStep> SpaceBounded::probe_path(int thread_id) {
  // get()'s poll order, fixed by the topology: the innermost cache
  // outwards; at each node the local queue, then the buckets heaviest
  // (closest to this cache's level) first.
  std::vector<ProbeStep> path;
  const int max_depth = topo_->num_cache_levels();
  SBS_CHECK(max_depth <= 0xff);
  for (int id = topo_->node(topo_->leaf_of_thread(thread_id)).parent;
       id != -1; id = topo_->node(id).parent) {
    NodeState& node = *nodes_[static_cast<std::size_t>(id)];
    const int depth = topo_->node(id).depth;
    path.push_back({&node.local, nullptr, id, 0, 0, ProbeStep::kLocal});
    for (int b = depth + 1; b <= max_depth; ++b) {
      const auto bucket = static_cast<std::uint8_t>(b);
      if (!is_top_bucket(id, b)) {
        JobQueue* q = &node.buckets[static_cast<std::size_t>(b)];
        path.push_back({q, q, id, 0, bucket, ProbeStep::kBucket});
        continue;
      }
      // SB-D top bucket: own child queue first, then the siblings in ring
      // order (WS-style). A failed admission returns the task to the own
      // queue and skips the rest of the bucket.
      const int own = topo_->cache_of_thread(thread_id, depth + 1) -
                      topo_->node(id).first_child;
      const int nq = static_cast<int>(node.child_top.size());
      SBS_CHECK(nq <= 0xffff);
      JobQueue* own_q = &node.child_top[static_cast<std::size_t>(own)];
      for (int k = 0; k < nq; ++k) {
        path.push_back(
            {&node.child_top[static_cast<std::size_t>((own + k) % nq)], own_q,
             id, static_cast<std::uint16_t>(nq - 1 - k), bucket,
             k == 0 ? ProbeStep::kBucket : ProbeStep::kSibling});
      }
    }
  }
  return path;
}

void SpaceBounded::finish() {
  for (int id = 0; id < topo_->num_nodes(); ++id) {
    NodeState& node = *nodes_[static_cast<std::size_t>(id)];
    // Relaxed: finish() runs after the pool quiesced; no concurrent
    // charges exist and the check only needs the final value.
    SBS_CHECK_MSG(node.occupied.load(std::memory_order_relaxed) == 0,
                  "SB: cache occupancy must drain to zero at finish");
    SBS_CHECK_MSG(node.local.drained(), "SB: local queue not drained");
    for (auto& b : node.buckets)
      SBS_CHECK_MSG(b.drained(), "SB: bucket not drained");
    for (auto& q : node.child_top)
      SBS_CHECK_MSG(q.drained(), "SB: distributed top bucket not drained");
  }
}

std::uint64_t SpaceBounded::task_size_at(const Job& job, int depth) const {
  return job.size(line_[static_cast<std::size_t>(depth)]);
}

std::uint64_t SpaceBounded::strand_size_at(const Job& job, int depth) const {
  return job.strand_size(line_[static_cast<std::size_t>(depth)]);
}

int SpaceBounded::befit_depth(const Job& job) const {
  // Deepest (smallest) cache whose dilated capacity σM_d holds the task;
  // the root (depth 0, infinite) always befits.
  for (int d = topo_->num_cache_levels(); d >= 1; --d) {
    const std::uint64_t size = task_size_at(job, d);
    SBS_CHECK_MSG(size != kNoSize,
                  "space-bounded schedulers require size-annotated tasks");
    if (static_cast<double>(size) <=
        options_.sigma * static_cast<double>(capacity_[static_cast<std::size_t>(d)])) {
      return d;
    }
  }
  return 0;
}

bool SpaceBounded::is_top_bucket(int x_node, int b) const {
  return options_.distributed_top && b == topo_->node(x_node).depth + 1;
}

void SpaceBounded::add(Job* job, int thread_id) {
  Task* task = job->task();
  SBS_ASSERT(task != nullptr);

  if (!job->starts_task()) {
    // Continuation strand: queue at the cluster where the task that called
    // the corresponding fork is anchored (paper §4.2).
    push(nodes_[static_cast<std::size_t>(task->anchor)]->local, task->anchor,
         job);
    return;
  }

  if (task->parent == nullptr) {
    // The root task: anchored at the root of the tree by convention.
    task->anchor = topo_->root();
    task->size = task_size_at(*job, 0);
    SBS_CHECK_MSG(task->size != kNoSize,
                  "space-bounded schedulers require size-annotated tasks");
    task->maximal = false;
    task->attr = 0;
    push(nodes_[static_cast<std::size_t>(topo_->root())]->local,
         topo_->root(), job);
    return;
  }

  const int parent_anchor = task->parent->anchor;
  SBS_ASSERT(parent_anchor >= 0);
  const int parent_depth = topo_->node(parent_anchor).depth;
  const int b = befit_depth(*job);

  if (b <= parent_depth) {
    // Non-maximal: the parent's anchored cache already befits this task, so
    // it inherits the anchor and consumes no additional space.
    task->anchor = parent_anchor;
    task->size = task_size_at(*job, parent_depth);
    task->maximal = false;
    task->attr = static_cast<std::uint64_t>(parent_depth);
    push(nodes_[static_cast<std::size_t>(parent_anchor)]->local, parent_anchor,
         job);
    return;
  }

  // Maximal task: queue in the parent anchor's bucket for depth b; it will
  // be anchored to a concrete depth-b cache when a core admits it.
  task->maximal = true;
  task->anchor = -1;
  task->size = task_size_at(*job, b);
  NodeState& node = *nodes_[static_cast<std::size_t>(parent_anchor)];
  if (is_top_bucket(parent_anchor, b)) {
    // SB-D: per-child distributed top bucket; enqueue at the child cluster
    // the adding thread belongs to.
    const int child =
        topo_->cache_of_thread(thread_id, parent_depth + 1);
    const int ordinal = child - topo_->node(parent_anchor).first_child;
    push(node.child_top[static_cast<std::size_t>(ordinal)], parent_anchor,
         job);
  } else {
    push(node.buckets[static_cast<std::size_t>(b)], parent_anchor, job);
  }
}

void SpaceBounded::push(JobQueue& queue, int node, Job* job, bool front) {
  if (front) {
    queue.push_front(job);
  } else {
    queue.push_back(job);
  }
  if (push_log_ != nullptr) push_log_->push_back(node);
}

std::int64_t SpaceBounded::idle_poll_ops(int thread_id) const {
  const std::vector<ProbeStep>& path =
      threads_[static_cast<std::size_t>(thread_id)]->path;
  for (const ProbeStep& step : path) {
    // Relaxed: the same advisory size mirror maybe_empty() reads; the
    // simulator calls this from the pump, the only thread that pushes.
    if (step.queue->size.load(std::memory_order_relaxed) != 0) return -1;
  }
  // get() would probe every queue once (one op each) and take nothing.
  return static_cast<std::int64_t>(path.size());
}

bool SpaceBounded::try_charge_path(int anchor_node, int ceiling_depth,
                                   std::uint64_t bytes) {
  // Charge every cache from the anchor up to (excluding) the ceiling,
  // checking the bounded property; roll back already-charged nodes on
  // failure. Nodes are charged bottom-up; each node's check+charge is a CAS.
  int charged[16];
  int n_charged = 0;
  for (int id = anchor_node; topo_->node(id).depth > ceiling_depth;
       id = topo_->node(id).parent) {
    NodeState& node = *nodes_[static_cast<std::size_t>(id)];
    const std::uint64_t cap =
        capacity_[static_cast<std::size_t>(topo_->node(id).depth)];
    // Relaxed seed for the CAS loop: the CAS below revalidates `cur`
    // against the capacity on every retry, so a stale read only costs
    // one extra iteration.
    std::uint64_t cur = node.occupied.load(std::memory_order_relaxed);
    bool ok = false;
    while (cur + bytes <= cap) {
      count_op();
      // acq_rel: all charge/release RMWs on `occupied` form one
      // modification order; acquire+release chains them so a core that
      // wins admission after a release also observes the frees the
      // releasing task published before it (occupancy never observed
      // above its true bound).
      if (node.occupied.compare_exchange_weak(cur, cur + bytes,
                                              std::memory_order_acq_rel)) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      for (int i = 0; i < n_charged; ++i) {
        // acq_rel: rollback participates in the same RMW chain as the
        // charges (see the admission CAS above).
        nodes_[static_cast<std::size_t>(charged[i])]->occupied.fetch_sub(
            bytes, std::memory_order_acq_rel);
      }
      return false;
    }
    bump_max(node);
    SBS_ASSERT(n_charged < 16);
    charged[n_charged++] = id;
  }
  return true;
}

void SpaceBounded::force_charge_path(int anchor_node, int ceiling_depth,
                                     std::uint64_t bytes) {
  // Mutation-test hook (Options::TestFaults::force_admission): charge the
  // path like try_charge_path but without the capacity check, so the
  // bounded property can be violated. Charges are still recorded, so
  // release_path keeps the books balanced at finish().
  for (int id = anchor_node; topo_->node(id).depth > ceiling_depth;
       id = topo_->node(id).parent) {
    NodeState& node = *nodes_[static_cast<std::size_t>(id)];
    count_op();
    // acq_rel: same RMW chain as try_charge_path, minus the bound check.
    node.occupied.fetch_add(bytes, std::memory_order_acq_rel);
    bump_max(node);
  }
}

void SpaceBounded::release_path(int anchor_node, int ceiling_depth,
                                std::uint64_t bytes) {
  for (int id = anchor_node; topo_->node(id).depth > ceiling_depth;
       id = topo_->node(id).parent) {
    count_op();
    // acq_rel: the release chains with later admission CASes so freed
    // budget is visible to the next charge (see try_charge_path).
    [[maybe_unused]] const std::uint64_t prev =
        nodes_[static_cast<std::size_t>(id)]->occupied.fetch_sub(
            bytes, std::memory_order_acq_rel);
    SBS_ASSERT(prev >= bytes);
  }
}

void SpaceBounded::bump_max(NodeState& node) {
  // All relaxed: max_occupied is a statistics high-water mark read only
  // after the run (or by tests); the CAS loop needs atomicity, not
  // ordering, and must stay off the admission fast path's critical cost.
  const std::uint64_t cur = node.occupied.load(std::memory_order_relaxed);
  std::uint64_t max = node.max_occupied.load(std::memory_order_relaxed);
  while (cur > max &&
         !node.max_occupied.compare_exchange_weak(
             max, cur, std::memory_order_relaxed)) {  // stats only, see above
  }
}

void SpaceBounded::charge_strand(Job* job, int thread_id) {
  Task* task = job->task();
  PerThread& self = *threads_[static_cast<std::size_t>(thread_id)];
  const int anchor_depth = topo_->node(task->anchor).depth;
  const int leaf = topo_->leaf_of_thread(thread_id);
  for (int id = topo_->node(leaf).parent;
       id != -1 && topo_->node(id).depth > anchor_depth;
       id = topo_->node(id).parent) {
    const int depth = topo_->node(id).depth;
    std::uint64_t s = options_.use_strand_sizes
                          ? strand_size_at(*job, depth)
                          : task->size;
    if (s == kNoSize) s = task->size;  // paper: default to the task's size
    const std::uint64_t cap = capacity_[static_cast<std::size_t>(depth)];
    std::uint64_t amount = s;
    if (options_.mu_cap) {
      amount = std::min<std::uint64_t>(
          s, static_cast<std::uint64_t>(options_.mu *
                                        static_cast<double>(cap)));
    }
    if (amount == 0) continue;
    NodeState& node = *nodes_[static_cast<std::size_t>(id)];
    count_op();
    // acq_rel: strand charges join the same occupied RMW chain as task
    // admission (try_charge_path) so the bound holds across both.
    node.occupied.fetch_add(amount, std::memory_order_acq_rel);
    bump_max(node);
    self.strand_charges.emplace_back(id, amount);
  }
}

bool SpaceBounded::try_anchor(Job* job, int x_node, int b, int thread_id) {
  Task* task = job->task();
  const int ceiling_depth = topo_->node(x_node).depth;
  int anchor_depth = b;
  if (options_.test_faults.anchor_depth_bias > 0) {
    // Mutation-test hook: anchor above the befitting cache (clamped so the
    // charge path stays within (ceiling, anchor]).
    anchor_depth =
        std::max(ceiling_depth, b - options_.test_faults.anchor_depth_bias);
  }
  const int anchor = topo_->cache_of_thread(thread_id, anchor_depth);
  if (options_.test_faults.force_admission) {
    force_charge_path(anchor, ceiling_depth, task->size);
  } else if (!try_charge_path(anchor, ceiling_depth, task->size)) {
    return false;
  }
  task->anchor = anchor;
  task->attr = static_cast<std::uint64_t>(ceiling_depth);
  PerThread& self = *threads_[static_cast<std::size_t>(thread_id)];
  ++self.anchors;
  // Relaxed: per-depth anchor tally for stats_string()/tests; counted,
  // never used to synchronize.
  anchors_at_depth_[static_cast<std::size_t>(b)].fetch_add(
      1, std::memory_order_relaxed);
  trace::emit(thread_id, trace::EventKind::kAnchor,
              static_cast<std::uint64_t>(anchor_depth),
              static_cast<std::uint64_t>(anchor), task->size,
              static_cast<std::uint64_t>(ceiling_depth));
  return true;
}

Job* SpaceBounded::get(int thread_id) {
  PerThread& self = *threads_[static_cast<std::size_t>(thread_id)];
  const std::vector<ProbeStep>& path = self.path;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const ProbeStep& step = path[i];
    // The lock-free maybe_empty() probe keeps the (overwhelmingly common)
    // empty scan entirely outside any critical section; only queues that
    // look non-empty pay for a lock round-trip.
    if (step.queue->maybe_empty()) continue;

    if (step.kind == ProbeStep::kLocal) {
      // Local strands / non-maximal tasks anchored at this cache.
      if (Job* job = step.queue->pop_back(); job != nullptr) {
        charge_strand(job, thread_id);
        return job;
      }
      continue;
    }

    // A bucket: own queues pop LIFO (depth-first locality); SB-D sibling
    // child queues are stolen FIFO like a WS thief. Per-queue locks make a
    // steal contend only with the one queue it touches.
    Job* candidate = nullptr;
    if (step.kind == ProbeStep::kSibling) {
      candidate = step.queue->pop_front();
      if (candidate != nullptr) ++self.sibling_pops;
    } else {
      candidate = step.queue->pop_back();
    }
    if (candidate == nullptr) continue;
    if (try_anchor(candidate, step.node, step.bucket, thread_id)) {
      charge_strand(candidate, thread_id);
      return candidate;
    }
    // Bounded property would be violated: put the task back and move on to
    // the next bucket.
    ++self.admission_failures;
    trace::emit(thread_id, trace::EventKind::kAdmissionFail,
                static_cast<std::uint64_t>(step.bucket),
                static_cast<std::uint64_t>(step.node));
    push(*step.requeue, step.node, candidate, /*front=*/true);
    i += step.skip;
  }
  return nullptr;
}

void SpaceBounded::done(Job* job, int thread_id, bool task_completed) {
  PerThread& self = *threads_[static_cast<std::size_t>(thread_id)];
  for (const auto& [node_id, amount] : self.strand_charges) {
    count_op();
    // acq_rel: strand-charge release, same occupied RMW chain as above.
    [[maybe_unused]] const std::uint64_t prev =
        nodes_[static_cast<std::size_t>(node_id)]->occupied.fetch_sub(
            amount, std::memory_order_acq_rel);
    SBS_ASSERT(prev >= amount);
  }
  self.strand_charges.clear();

  if (task_completed) {
    Task* task = job->task();
    if (task->maximal && task->anchor >= 0) {
      release_path(task->anchor, static_cast<int>(task->attr), task->size);
      trace::emit(
          thread_id, trace::EventKind::kRelease,
          static_cast<std::uint64_t>(topo_->node(task->anchor).depth),
          static_cast<std::uint64_t>(task->anchor), task->size, task->attr);
    }
  }
}

std::uint64_t SpaceBounded::occupied(int node_id) const {
  // Acquire: test/verify readers observe at least every charge chained
  // before the RMW they read (tests assert the bounded property).
  return nodes_[static_cast<std::size_t>(node_id)]->occupied.load(
      std::memory_order_acquire);
}

std::uint64_t SpaceBounded::total_anchors() const {
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->anchors;
  return n;
}

std::uint64_t SpaceBounded::anchors_at_depth(int depth) const {
  // Relaxed: stats counter, read after the run.
  return anchors_at_depth_[static_cast<std::size_t>(depth)].load(
      std::memory_order_relaxed);
}

std::uint64_t SpaceBounded::max_occupied(int node_id) const {
  // Relaxed: statistics high-water mark (see bump_max), read post-run.
  return nodes_[static_cast<std::size_t>(node_id)]->max_occupied.load(
      std::memory_order_relaxed);
}

std::string SpaceBounded::stats_string() const {
  std::uint64_t anchors = 0, failures = 0, sibling = 0;
  for (const auto& t : threads_) {
    anchors += t->anchors;
    failures += t->admission_failures;
    sibling += t->sibling_pops;
  }
  std::ostringstream out;
  out << "anchors=" << anchors << " admission_failures=" << failures;
  if (options_.distributed_top) out << " sibling_pops=" << sibling;
  out << " anchors_by_depth=[";
  for (std::size_t d = 0; d < anchors_at_depth_.size(); ++d) {
    // Relaxed: post-run stats read.
    out << (d ? "," : "") << anchors_at_depth_[d].load(
        std::memory_order_relaxed);
  }
  out << "]";
  return out.str();
}

}  // namespace sbs::sched
