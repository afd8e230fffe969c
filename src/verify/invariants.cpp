#include "verify/invariants.h"

#include <algorithm>
#include <sstream>

#include "sched/sb.h"

namespace sbs::verify {

using runtime::Job;
using runtime::Task;
using runtime::kNoSize;

VerifyingScheduler::VerifyingScheduler(
    std::unique_ptr<runtime::Scheduler> inner)
    : inner_(std::move(inner)) {
  SBS_CHECK(inner_ != nullptr);
  sb_ = dynamic_cast<sched::SpaceBounded*>(inner_.get());
  if (sb_ != nullptr) {
    sigma_ = sb_->options().sigma;
    mu_ = sb_->options().mu;
    mu_cap_ = sb_->options().mu_cap;
    use_strand_sizes_ = sb_->options().use_strand_sizes;
  }
}

VerifyingScheduler::~VerifyingScheduler() = default;

std::string VerifyingScheduler::name() const { return inner_->name(); }

bool VerifyingScheduler::needs_size_annotations() const {
  return inner_->needs_size_annotations();
}

std::string VerifyingScheduler::stats_string() const {
  std::ostringstream out;
  const std::string inner_stats = inner_->stats_string();
  if (!inner_stats.empty()) out << inner_stats << " ";
  out << "verify_checks=" << checks_
      << " verify_violations=" << total_violations_;
  return out.str();
}

void VerifyingScheduler::violation(const std::string& what) {
  ++total_violations_;
  if (violations_.size() < kMaxMessages) {
    violations_.push_back(inner_->name() + ": " + what);
  }
}

std::uint64_t VerifyingScheduler::capacity_at(int depth) const {
  return topo_->config().levels[static_cast<std::size_t>(depth)].size;
}

std::uint64_t VerifyingScheduler::task_size_at(const Job& job,
                                               int depth) const {
  return job.size(topo_->config().levels[static_cast<std::size_t>(depth)].line);
}

int VerifyingScheduler::befit_depth(const Job& job) const {
  // Independent recomputation of the befitting cache (paper §4.1): the
  // deepest depth whose dilated capacity σM_d holds the task.
  for (int d = topo_->num_cache_levels(); d >= 1; --d) {
    const std::uint64_t size = task_size_at(job, d);
    if (size == kNoSize) return -1;
    if (static_cast<double>(size) <=
        sigma_ * static_cast<double>(capacity_at(d))) {
      return d;
    }
  }
  return 0;
}

void VerifyingScheduler::start(const machine::Topology& topo,
                               int num_threads) {
  topo_ = &topo;
  {
    util::MutexLock lock(mutex_);
    shadow_occupied_.assign(static_cast<std::size_t>(topo.num_nodes()), 0);
    pending_.clear();
    running_.clear();
    tasks_.clear();
    threads_.assign(static_cast<std::size_t>(num_threads), ThreadState());
    adds_ = gets_ = dones_ = 0;
    tasks_started_ = tasks_completed_ = 0;
  }
  inner_->start(topo, num_threads);
}

void VerifyingScheduler::check_added_task(Job* job) {
  Task* task = job->task();
  if (task == nullptr) {
    violation("add: job without a task");
    return;
  }
  ++tasks_started_;
  TaskInfo info;
  info.maximal = task->maximal;
  info.size = task->size;
  info.anchor = task->anchor;

  if (task->parent == nullptr) {
    // Root task: anchored to the root of the tree by convention.
    ++checks_;
    if (sb_ != nullptr && task->anchor != topo_->root()) {
      violation("add: root task not anchored at the root");
    }
    info.anchor_depth = 0;
    info.ceiling_depth = 0;
    info.anchored = false;
  } else if (sb_ != nullptr) {
    const auto parent_it = tasks_.find(task->parent);
    if (parent_it == tasks_.end()) {
      violation("add: child of an unknown or completed task");
      return;
    }
    const TaskInfo& parent = parent_it->second;
    if (parent.anchor < 0) {
      violation("add: child spawned by a task that is not anchored");
      return;
    }
    const int parent_depth = topo_->node(parent.anchor).depth;
    const int b = befit_depth(*job);
    ++checks_;
    if (b < 0) {
      violation("add: task without size annotations under an SB scheduler");
      return;
    }
    if (task->maximal) {
      // Maximal task (befits deeper than the parent's anchor): must not be
      // pre-anchored; its future charge ceiling is the parent's depth.
      if (b <= parent_depth) {
        violation("add: task marked maximal but its befit depth " +
                  std::to_string(b) + " does not exceed parent anchor depth " +
                  std::to_string(parent_depth));
      }
      if (task->anchor != -1) {
        violation("add: maximal task pre-anchored before admission");
      }
      info.ceiling_depth = parent_depth;
    } else {
      // Non-maximal: inherits the parent's anchor, consumes no extra space.
      if (b > parent_depth) {
        violation("add: task marked non-maximal but befits depth " +
                  std::to_string(b) + " below parent anchor depth " +
                  std::to_string(parent_depth));
      }
      if (task->anchor != parent.anchor) {
        violation("add: non-maximal task does not inherit its parent's "
                  "anchor (skip-level inheritance broken)");
      }
      const std::uint64_t expected = task_size_at(*job, parent_depth);
      if (task->size != expected) {
        violation("add: non-maximal task size " + std::to_string(task->size) +
                  " not measured at the parent anchor depth (expected " +
                  std::to_string(expected) + ")");
      }
      info.anchor_depth = parent_depth;
      info.ceiling_depth = parent_depth;
    }
  }
  if (!tasks_.emplace(task, info).second) {
    violation("add: task object started twice without completing");
  }
}

void VerifyingScheduler::add(Job* job, int thread_id) {
  util::MutexLock lock(mutex_);
  ++adds_;
  ++checks_;
  if (!pending_.insert(job).second) {
    violation("add: job added twice");
  }
  if (running_.count(job) != 0) {
    violation("add: job re-added while running");
  }
  inner_->add(job, thread_id);
  if (job->starts_task()) {
    // Inspect the scheduler's placement decision *after* the inner add —
    // that is when SB fills in the task's anchor/size/maximal slots.
    check_added_task(job);
  } else if (sb_ != nullptr) {
    // Continuation strand of a live task: must already be anchored.
    Task* task = job->task();
    ++checks_;
    if (task == nullptr || tasks_.count(task) == 0) {
      violation("add: continuation of an unknown or completed task");
    } else if (task->anchor < 0) {
      violation("add: continuation of a task with no anchor");
    }
  }
  check_occupancy_mirror("add");
}

void VerifyingScheduler::check_admission(Job* job, int thread_id) {
  // A maximal task just crossed from queued to anchored: re-derive the
  // anchoring rules (paper §4.1) and charge the shadow occupancy.
  Task* task = job->task();
  auto it = tasks_.find(task);
  if (it == tasks_.end()) {
    violation("get: admitted task is unknown");
    return;
  }
  TaskInfo& info = it->second;
  ++checks_;
  if (task->anchor < 0) {
    violation("get: maximal task returned without an anchor");
    return;
  }
  const int anchor = task->anchor;
  const int anchor_depth = topo_->node(anchor).depth;
  const int ceiling_depth = static_cast<int>(task->attr);

  // Anchoring: the befitting cache on the admitting worker's path.
  const int b = befit_depth(*job);
  if (anchor_depth != b) {
    violation("get: task of size " + std::to_string(task->size) +
              " anchored at depth " + std::to_string(anchor_depth) +
              " but its befitting depth is " + std::to_string(b));
  }
  if (!topo_->thread_in_cluster(thread_id, anchor)) {
    violation("get: anchor node " + std::to_string(anchor) +
              " is not on worker " + std::to_string(thread_id) + "'s path");
  }
  if (static_cast<double>(task->size) >
      sigma_ * static_cast<double>(capacity_at(anchor_depth))) {
    violation("get: anchored task size " + std::to_string(task->size) +
              " exceeds sigma*M at depth " + std::to_string(anchor_depth));
  }
  if (ceiling_depth != info.ceiling_depth) {
    violation("get: charge ceiling depth " + std::to_string(ceiling_depth) +
              " does not match the parent's anchor depth " +
              std::to_string(info.ceiling_depth) + " recorded at spawn");
  }

  // Boundedness: charging S(t,B) on every cache from the anchor up to
  // (excluding) the ceiling must respect each capacity M_i.
  for (int id = anchor; topo_->node(id).depth > ceiling_depth;
       id = topo_->node(id).parent) {
    const std::size_t n = static_cast<std::size_t>(id);
    const std::uint64_t cap = capacity_at(topo_->node(id).depth);
    ++checks_;
    if (cap != 0 && shadow_occupied_[n] + task->size > cap) {
      violation("get: bounded property violated at node " +
                std::to_string(id) + " depth " +
                std::to_string(topo_->node(id).depth) + ": occupancy " +
                std::to_string(shadow_occupied_[n]) + " + task " +
                std::to_string(task->size) + " > capacity " +
                std::to_string(cap));
    }
    shadow_occupied_[n] += task->size;
  }
  info.anchor = anchor;
  info.anchor_depth = anchor_depth;
  info.size = task->size;
  info.anchored = true;
}

void VerifyingScheduler::shadow_charge_strand(Job* job, int thread_id) {
  // Mirror of SpaceBounded::charge_strand: every cache on the worker's path
  // strictly below the task's anchor is charged min(strand size, µM).
  Task* task = job->task();
  if (task == nullptr || task->anchor < 0) return;
  ThreadState& self = threads_[static_cast<std::size_t>(thread_id)];
  const int anchor_depth = topo_->node(task->anchor).depth;
  const int leaf = topo_->leaf_of_thread(thread_id);
  for (int id = topo_->node(leaf).parent;
       id != -1 && topo_->node(id).depth > anchor_depth;
       id = topo_->node(id).parent) {
    const int depth = topo_->node(id).depth;
    std::uint64_t s = use_strand_sizes_
                          ? job->strand_size(topo_->config()
                                                 .levels[static_cast<std::size_t>(depth)]
                                                 .line)
                          : task->size;
    if (s == kNoSize) s = task->size;
    std::uint64_t amount = s;
    if (mu_cap_) {
      amount = std::min<std::uint64_t>(
          s, static_cast<std::uint64_t>(
                 mu_ * static_cast<double>(capacity_at(depth))));
    }
    if (amount == 0) continue;
    shadow_occupied_[static_cast<std::size_t>(id)] += amount;
    self.strand_charges.push_back({id, amount});
  }
}

void VerifyingScheduler::shadow_release_path(int anchor_node,
                                             int ceiling_depth,
                                             std::uint64_t bytes) {
  for (int id = anchor_node; topo_->node(id).depth > ceiling_depth;
       id = topo_->node(id).parent) {
    const std::size_t n = static_cast<std::size_t>(id);
    ++checks_;
    if (shadow_occupied_[n] < bytes) {
      violation("done: releasing more than node " + std::to_string(id) +
                " holds (occupancy underflow)");
      shadow_occupied_[n] = 0;
    } else {
      shadow_occupied_[n] -= bytes;
    }
  }
}

void VerifyingScheduler::check_occupancy_mirror(const char* when) {
  // The callbacks are fully serialized by mutex_, so the scheduler's
  // occupancy counters must agree with the shadow ones exactly — any drift
  // means one side's accounting is wrong.
  if (sb_ == nullptr) return;
  for (int id = 0; id < topo_->num_nodes(); ++id) {
    ++checks_;
    const std::uint64_t real = sb_->occupied(id);
    const std::uint64_t shadow = shadow_occupied_[static_cast<std::size_t>(id)];
    if (real != shadow) {
      violation(std::string(when) + ": occupancy mismatch at node " +
                std::to_string(id) + ": scheduler " + std::to_string(real) +
                " vs shadow " + std::to_string(shadow));
      // Re-sync so one drift does not cascade into a violation per op.
      shadow_occupied_[static_cast<std::size_t>(id)] = real;
    }
  }
}

Job* VerifyingScheduler::get(int thread_id) {
  util::MutexLock lock(mutex_);
  Job* job = inner_->get(thread_id);
  if (job == nullptr) return nullptr;
  ++gets_;
  ++checks_;
  if (pending_.erase(job) == 0) {
    violation("get: job returned that was never added (or executed twice)");
  }
  if (!running_.emplace(job, thread_id).second) {
    violation("get: job already running on another worker");
  }
  ThreadState& self = threads_[static_cast<std::size_t>(thread_id)];
  if (self.running != nullptr) {
    violation("get: worker fetched a second job before finishing the first");
  }
  self.running = job;
  if (sb_ != nullptr) {
    if (job->starts_task() && job->task() != nullptr &&
        job->task()->maximal) {
      check_admission(job, thread_id);
    }
    shadow_charge_strand(job, thread_id);
    check_occupancy_mirror("get");
  }
  return job;
}

void VerifyingScheduler::done(Job* job, int thread_id, bool task_completed) {
  util::MutexLock lock(mutex_);
  ++dones_;
  ++checks_;
  const auto run_it = running_.find(job);
  if (run_it == running_.end()) {
    violation("done: job completed that was never fetched");
  } else {
    if (run_it->second != thread_id) {
      violation("done: job fetched by worker " +
                std::to_string(run_it->second) + " completed by worker " +
                std::to_string(thread_id));
    }
    running_.erase(run_it);
  }
  ThreadState& self = threads_[static_cast<std::size_t>(thread_id)];
  if (self.running != job) {
    violation("done: completing a job this worker was not running");
  }
  self.running = nullptr;

  inner_->done(job, thread_id, task_completed);

  if (sb_ != nullptr) {
    // Strand charges release with the strand.
    for (const StrandCharge& charge : self.strand_charges) {
      const std::size_t n = static_cast<std::size_t>(charge.node);
      ++checks_;
      if (shadow_occupied_[n] < charge.amount) {
        violation("done: strand release underflow at node " +
                  std::to_string(charge.node));
        shadow_occupied_[n] = 0;
      } else {
        shadow_occupied_[n] -= charge.amount;
      }
    }
  }
  self.strand_charges.clear();

  if (task_completed) {
    Task* task = job->task();
    ++tasks_completed_;
    const auto task_it = task != nullptr ? tasks_.find(task) : tasks_.end();
    if (task_it == tasks_.end()) {
      violation("done: completion of an unknown task");
    } else {
      if (sb_ != nullptr && task_it->second.anchored) {
        shadow_release_path(task_it->second.anchor,
                            task_it->second.ceiling_depth,
                            task_it->second.size);
      }
      tasks_.erase(task_it);
    }
  }
  if (sb_ != nullptr) check_occupancy_mirror("done");
}

void VerifyingScheduler::finish() {
  inner_->finish();
  util::MutexLock lock(mutex_);
  ++checks_;
  if (!pending_.empty()) {
    violation("finish: " + std::to_string(pending_.size()) +
              " job(s) added but never executed (dropped)");
  }
  if (!running_.empty()) {
    violation("finish: " + std::to_string(running_.size()) +
              " job(s) still marked running at quiescence");
  }
  if (!tasks_.empty()) {
    violation("finish: " + std::to_string(tasks_.size()) +
              " task(s) started but never completed (join counters "
              "unbalanced)");
  }
  if (adds_ != gets_ || gets_ != dones_) {
    violation("finish: callback counts unbalanced: adds=" +
              std::to_string(adds_) + " gets=" + std::to_string(gets_) +
              " dones=" + std::to_string(dones_));
  }
  for (std::size_t n = 0; n < shadow_occupied_.size(); ++n) {
    ++checks_;
    if (shadow_occupied_[n] != 0) {
      violation("finish: shadow occupancy at node " + std::to_string(n) +
                " did not drain to zero (" +
                std::to_string(shadow_occupied_[n]) + " bytes left)");
    }
  }
  check_occupancy_mirror("finish");
}

std::string VerifyingScheduler::report() const {
  std::ostringstream out;
  if (ok()) {
    out << "verify: OK (" << checks_ << " checks, " << tasks_started_
        << " tasks, " << adds_ << " jobs)";
    return out.str();
  }
  out << "verify: FAILED (" << total_violations_ << " violation(s), "
      << checks_ << " checks)";
  for (const std::string& v : violations_) out << "\n  " << v;
  if (total_violations_ > violations_.size()) {
    out << "\n  ... " << (total_violations_ - violations_.size())
        << " more suppressed";
  }
  return out.str();
}

}  // namespace sbs::verify
