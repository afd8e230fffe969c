#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "runtime/mem.h"
#include "runtime/strand_ops.h"
#include "sched/ops.h"
#include "sim/fiber.h"
#include "util/assert.h"

namespace sbs::sim {

using runtime::Job;
using runtime::Strand;
using runtime::StrandOps;

namespace {
constexpr std::size_t kFiberStackBytes = 512 * 1024;
}  // namespace

/// One virtual core: a clock, a fiber that hosts its current strand, and the
/// AccessSink that charges the strand's memory traffic to the clock.
struct SimEngine::VCore final : mem::AccessSink {
  VCore(SimEngine* eng, int thread_id) : engine(eng), tid(thread_id) {}

  // --- AccessSink (called from inside the fiber) ---
  // Run-ahead batching: a strand yields only *before* an access that has to
  // touch real simulated state (cache sets, links, coherence) once its
  // clock has left the window. Memo-absorbed accesses and work() are
  // shard-private and invisible to every other core, so the strand keeps
  // running through them — on streaming kernels this lets whole strands
  // finish in a single resume instead of one fiber round trip per window.
  // The gate reads only the frozen window horizon and the core's own memo
  // state, so the decision does not depend on the order shards run in.
  void touch(std::uintptr_t addr, std::uint64_t bytes, bool write) override {
    if (clock > engine->horizon_ &&
        !engine->memory_->would_absorb(tid, addr, write)) {
      // The access runs after resumption, in the window it is visible in.
      Fiber::yield();
    }
    const std::uint64_t cost =
        engine->memory_->access_range(tid, addr, bytes, write, clock);
    clock += cost;
    active_cy += cost;
  }
  void work(std::uint64_t cycles) override {
    clock += cycles;
    active_cy += cycles;
  }
  // Mid-strand mem::Array allocations draw from this core's transient arena
  // stream, so their simulated addresses are deterministic (see mem.h).
  int stream_id() const override { return tid; }

  void ensure_fiber() {
    if (fiber) return;
    fiber = std::make_unique<Fiber>(
        [this] {
          // One fiber per core, reused across strands: run the current
          // strand, report completion, wait for the next one.
          while (true) {
            job->execute(*strand);
            strand_done = true;
            Fiber::yield();
          }
        },
        kFiberStackBytes);
  }

  SimEngine* engine;
  int tid;
  int shard = 0;
  std::uint64_t clock = 0;

  std::unique_ptr<Fiber> fiber;
  Job* job = nullptr;
  std::optional<Strand> strand;
  bool strand_done = false;
  bool busy = false;  ///< strand in progress (possibly suspended)
  bool pending_finish = false;  ///< strand done, done/settle/add not yet run
  /// Has a live EventQueue entry, at `clock`; any other entry is stale.
  bool queued = false;
  std::uint64_t strand_start_clock = 0;  ///< for the kStrand trace event
  int leaf_pos = 0;  ///< leaf position (topology order, after the core map)

  // Idle batch charged by the pump (SimEngine::try_batch): empty polls at
  // batch_start + j * batch_period for j < batch_polls, in pump pass
  // batch_pass (0 = no live batch).
  std::uint64_t batch_pass = 0;
  std::uint64_t batch_start = 0, batch_period = 0, batch_polls = 0;

  // Cycle breakdown (converted to seconds at the end).
  std::uint64_t active_cy = 0, add_cy = 0, done_cy = 0, get_cy = 0,
                empty_cy = 0;
  std::uint64_t strands = 0;
  std::uint64_t empty_wakeups = 0;

  /// Fiber::resumes() at run start (fibers persist across runs).
  std::uint64_t fiber_resumes_base = 0;
};

SimEngine::SimEngine(const machine::Topology& topo, SimParams params)
    : topo_(topo), params_(params) {
  num_threads_ =
      params_.num_threads < 0 ? topo.num_threads() : params_.num_threads;
  SBS_CHECK(num_threads_ >= 1 && num_threads_ <= topo.num_threads());
  // Every core allocates mid-strand arrays from its own arena stream.
  SBS_CHECK_MSG(num_threads_ <= mem::arena::kStreams,
                "SimEngine: more virtual cores than arena streams");
  wedge_limit_ =
      (std::uint64_t{1} << 24) * static_cast<std::uint64_t>(num_threads_);
  memory_ = std::make_unique<MemorySystem>(topo, params_.memory);
  shard_busy_.resize(static_cast<std::size_t>(memory_->num_shards()));

  cores_.reserve(static_cast<std::size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    cores_.push_back(std::make_unique<VCore>(this, t));
    cores_.back()->shard = memory_->shard_of_thread(t);
    cores_.back()->leaf_pos = topo.config().leaf_position(t);
  }
}

SimEngine::~SimEngine() {
  for (auto& core : cores_) {
    if (core->fiber) core->fiber->abandon();
  }
}

void SimEngine::enable_tracing(std::size_t events_per_worker) {
  recorder_ =
      std::make_unique<trace::Recorder>(num_threads_, events_per_worker);
}

std::uint64_t SimEngine::charge_ops(std::uint64_t ops_before) const {
  return (sched::ops_snapshot() - ops_before) *
         topo_.config().sched_op_cycles;
}

void SimEngine::queue_core(VCore& core, bool idle) {
  if (idle) {
    events_.push_idle(core.clock, core.tid);
  } else {
    events_.push(core.clock, core.tid);
  }
  core.queued = true;
}

void SimEngine::purge_stale() {
  std::uint64_t clk = 0;
  int tid = 0;
  while (stale_entries_ != 0 && !events_.empty()) {
    events_.peek(&clk, &tid);
    const VCore& core = *cores_[static_cast<std::size_t>(tid)];
    if (core.queued && core.clock == clk) return;
    events_.pop(&clk, &tid);
    --stale_entries_;
  }
}

bool SimEngine::pop_event(std::uint64_t* clk, int* tid) {
  if (stale_entries_ != 0) purge_stale();
  if (events_.empty() || events_.min_clock() > horizon_) return false;
  events_.pop(clk, tid);
  cores_[static_cast<std::size_t>(*tid)]->queued = false;
  return true;
}

std::uint64_t SimEngine::next_event_clock() {
  if (stale_entries_ != 0) purge_stale();
  std::uint64_t second = busy_min_;
  if (!events_.empty()) second = std::min(second, events_.min_clock());
  return second;
}

void SimEngine::count_empty(std::uint64_t polls) {
  consecutive_empty_ += polls;
  SBS_CHECK_MSG(consecutive_empty_ < wedge_limit_,
                "simulation wedged: every core idle, no queued work, "
                "root not complete (scheduler lost a job?)");
}

bool SimEngine::try_batch(VCore& core, std::uint64_t clk) {
  const std::int64_t ops = sched_->idle_poll_ops(core.tid);
  if (ops < 0) return false;
  const std::uint64_t idle = topo_.config().idle_poll_cycles;
  const std::uint64_t period =
      static_cast<std::uint64_t>(ops) * topo_.config().sched_op_cycles + idle;
  if (period == 0) return false;
  // No poll of this core can bind its re-queue to `second` (the next other
  // event) while a busy core is within idle_poll_cycles, or while a live
  // peer batch of no longer period, or an equally quiet core queued within
  // one period, keeps an event within one period of every poll.
  const bool busy = busy_min_ <= clk + idle;
  if (!busy && period < peer_period_) {
    purge_stale();
    if (events_.empty()) return false;
    std::uint64_t next_clk = 0;
    int next_tid = 0;
    events_.peek(&next_clk, &next_tid);
    if (next_clk > clk + period ||
        cores_[static_cast<std::size_t>(next_tid)]->pending_finish ||
        sched_->idle_poll_ops(next_tid) != ops) {
      return false;
    }
  }
  // Every poll up to the horizon, in one step.
  const std::uint64_t polls = (horizon_ - clk) / period + 1;
  core.batch_pass = pump_passes_;
  core.batch_start = clk;
  core.batch_period = period;
  core.batch_polls = polls;
  core.clock += polls * period;
  core.empty_cy += polls * period;
  core.empty_wakeups += polls;
  count_empty(polls);
  sched_->charge_idle_polls(core.tid, static_cast<std::int64_t>(polls));
  if (busy) {
    busy_batches_.push_back(&core);
  } else {
    peer_batches_.push_back(&core);
    peer_period_ = std::min(peer_period_, period);
  }
  queue_core(core, /*idle=*/true);
  return true;
}

void SimEngine::undo_batch(VCore& core, std::uint64_t clk, int tid,
                           bool requeue) {
  if (core.batch_pass != pump_passes_) return;  // undone earlier this pass
  core.batch_pass = 0;
  // Keep the polls ordered before event (clk, tid); the pump would have run
  // the rest after it, against the scheduler state it changed.
  const std::uint64_t period = core.batch_period;
  std::uint64_t kept = (clk - core.batch_start) / period;
  if (core.batch_start + kept * period < clk || core.tid < tid) ++kept;
  if (kept >= core.batch_polls) return;
  const std::uint64_t undone = core.batch_polls - kept;
  core.clock -= undone * period;
  core.empty_cy -= undone * period;
  core.empty_wakeups -= undone;
  consecutive_empty_ -= std::min(consecutive_empty_, undone);
  sched_->charge_idle_polls(core.tid, -static_cast<std::int64_t>(undone));
  if (requeue) {
    queue_core(core, /*idle=*/true);  // its old entry is now stale
    ++stale_entries_;
  }
}

void SimEngine::undo_peer_batches(std::uint64_t clk, int tid) {
  for (VCore* core : peer_batches_) undo_batch(*core, clk, tid, true);
  peer_batches_.clear();
  peer_period_ = std::numeric_limits<std::uint64_t>::max();
}

void SimEngine::undo_pushed(std::uint64_t clk, int tid) {
  if (push_log_.empty()) return;
  undo_peer_batches(clk, tid);
  int last = -1;
  for (const int node_id : push_log_) {
    if (node_id == last) continue;
    last = node_id;
    const machine::Node& node = topo_.node(node_id);
    for (VCore* core : busy_batches_) {
      if (core->leaf_pos >= node.first_leaf &&
          core->leaf_pos < node.first_leaf + node.num_leaves) {
        undo_batch(*core, clk, tid, true);
      }
    }
  }
  push_log_.clear();
}

void SimEngine::finish_strand(VCore& core) {
  using trace::EventKind;
  trace::Recorder* const rec = recorder_.get();
  core.busy = false;
  ++core.strands;
  const bool completed = !core.strand->forked();
  if (rec) {
    rec->record(core.tid, EventKind::kStrand, core.strand_start_clock,
                core.clock - core.strand_start_clock);
    rec->set_now(core.tid, core.clock);
  }

  std::uint64_t ops0 = sched::ops_snapshot();
  const std::uint64_t done_start = core.clock;
  sched_->done(core.job, core.tid, completed);
  std::uint64_t cy = charge_ops(ops0);
  core.done_cy += cy;
  core.clock += cy;
  if (rec) rec->record(core.tid, EventKind::kDone, done_start, cy);

  std::vector<Job*> to_add;
  bool root_completed = false;
  StrandOps::settle(core.job, *core.strand, to_add, root_completed);
  core.job = nullptr;
  if (rec) {
    rec->set_now(core.tid, core.clock);
    if (!completed) {
      rec->record_now(core.tid, EventKind::kFork, to_add.size());
    } else if (!to_add.empty()) {
      rec->record_now(core.tid, EventKind::kJoin);
    }
  }

  ops0 = sched::ops_snapshot();
  const std::uint64_t add_start = core.clock;
  for (Job* a : to_add) sched_->add(a, core.tid);
  cy = charge_ops(ops0) + topo_.config().fork_join_cycles;
  core.add_cy += cy;
  core.clock += cy;
  if (rec) rec->record(core.tid, EventKind::kAdd, add_start, cy);

  if (root_completed) root_completed_ = true;
}

SimResult SimEngine::run(runtime::Scheduler& sched, Job* root_job) {
  sched_ = &sched;
  root_completed_ = false;
  memory_->reset();
  mem::arena::reset_transient();
  for (auto& core : cores_) {
    SBS_CHECK_MSG(!core->busy, "engine reused while a strand was live");
    core->clock = 0;
    core->active_cy = core->add_cy = core->done_cy = core->get_cy =
        core->empty_cy = 0;
    core->strands = 0;
    core->empty_wakeups = 0;
    core->pending_finish = false;
    core->queued = false;
    core->batch_pass = 0;
    core->fiber_resumes_base = core->fiber ? core->fiber->resumes() : 0;
  }
  windows_executed_ = pump_passes_ = window_merges_ = 0;

  sched.start(topo_, num_threads_);
  StrandOps::Root root = StrandOps::make_root(root_job);

  if (recorder_) {
    recorder_->begin_run(/*virtual_time=*/true, topo_.config().ghz * 1e9);
  }
  trace::Scope trace_scope(recorder_.get());
  trace::Recorder* const rec = recorder_.get();
  using trace::EventKind;
  // Idle fast-forward (file comment of engine.h) needs the scheduler's
  // hooks; with the recorder on, every poll is executed and recorded.
  const bool fast_idle = rec == nullptr && sched.set_push_log(&push_log_);

  {
    VCore& c0 = *cores_[0];
    const std::uint64_t ops0 = sched::ops_snapshot();
    sched.add(root_job, 0);
    const std::uint64_t cy = charge_ops(ops0);
    if (rec) rec->record(0, EventKind::kAdd, c0.clock, cy);
    c0.add_cy += cy;
    c0.clock += cy;
  }

  push_log_.clear();  // the root push; no poll has been charged yet

  events_.reset(num_threads_);
  stale_entries_ = 0;
  for (const auto& core : cores_) queue_core(*core, /*idle=*/false);

  const auto by_clock_tid = [](const VCore* a, const VCore* b) {
    return a->clock < b->clock || (a->clock == b->clock && a->tid < b->tid);
  };

  std::uint64_t completion_clock = 0;
  consecutive_empty_ = 0;
  while (!root_completed_) {
    ++pump_passes_;
    // Window = [min clock, min clock + quantum] over every core.
    busy_min_ = std::numeric_limits<std::uint64_t>::max();
    for (const auto& list : shard_busy_)
      for (const VCore* c : list) busy_min_ = std::min(busy_min_, c->clock);
    const std::uint64_t min_clock = next_event_clock();
    SBS_CHECK_MSG(min_clock != std::numeric_limits<std::uint64_t>::max(),
                  "no runnable cores, root not complete");
    horizon_ = min_clock + params_.skew_quantum;
    busy_batches_.clear();
    peer_batches_.clear();
    peer_period_ = std::numeric_limits<std::uint64_t>::max();

    // Pump: idle gets and deferred strand completions, in (clock, thread)
    // order — all scheduler interaction is single-threaded here.
    std::uint64_t clk = 0;
    int tid = 0;
    while (pop_event(&clk, &tid)) {
      VCore& core = *cores_[static_cast<std::size_t>(tid)];
      if (core.pending_finish) {
        core.pending_finish = false;
        finish_strand(core);
        if (fast_idle) undo_pushed(clk, tid);
        if (root_completed_) {
          // The run ends here: no batched poll after this event happened.
          for (VCore* c : busy_batches_) undo_batch(*c, clk, tid, false);
          for (VCore* c : peer_batches_) undo_batch(*c, clk, tid, false);
          completion_clock = core.clock;
          break;
        }
        queue_core(core, /*idle=*/false);
        continue;
      }
      if (fast_idle && try_batch(core, clk)) continue;

      if (rec) {
        rec->set_now(core.tid, core.clock);
        rec->record(core.tid, EventKind::kGetBegin, core.clock);
      }
      const std::uint64_t ops0 = sched::ops_snapshot();
      Job* job = sched.get(core.tid);
      std::uint64_t cy = charge_ops(ops0);
      if (fast_idle) undo_pushed(clk, tid);  // a failed admission requeues
      if (rec) {
        rec->record(core.tid, EventKind::kGetEnd, core.clock + cy, 0,
                    job != nullptr ? 1 : 0);
      }
      if (job == nullptr) {
        // Idle: nothing can be enqueued before the next core acts, so jump
        // to the earliest other event (but always advance by at least one
        // poll interval). Pure wait-time accounting — no schedulable event
        // is skipped.
        const std::uint64_t idle = topo_.config().idle_poll_cycles;
        std::uint64_t next = core.clock + cy + idle;
        // Batched peers' polls are not in the queue. One of them lies
        // within a period no longer than this one, so such a poll cannot
        // bind; a shorter one (unless a busy core is near) first puts the
        // peers back, so that `second` sees their next polls.
        bool cannot_bind = false;
        if (fast_idle && !peer_batches_.empty()) {
          cannot_bind = cy + idle >= peer_period_ || busy_min_ <= clk + idle;
          if (!cannot_bind) undo_peer_batches(clk, tid);
        }
        if (!cannot_bind) {
          std::uint64_t second = next_event_clock();
          if (second == std::numeric_limits<std::uint64_t>::max()) second = 0;
          next = std::max(next, second);
        }
        if (rec) {
          rec->record(core.tid, EventKind::kEmpty, core.clock + cy,
                      next - (core.clock + cy));
        }
        core.empty_cy += next - core.clock;
        core.clock = next;
        ++core.empty_wakeups;
        queue_core(core, /*idle=*/true);
        count_empty(1);
        continue;
      }
      consecutive_empty_ = 0;
      core.get_cy += cy;
      core.clock += cy;
      core.job = job;
      core.strand.emplace(core.tid, num_threads_);
      core.strand_done = false;
      core.busy = true;
      core.strand_start_clock = core.clock;
      core.ensure_fiber();
      shard_busy_[static_cast<std::size_t>(core.shard)].push_back(&core);
      busy_min_ = std::min(busy_min_, core.clock);
    }
    if (root_completed_) break;

    bool any_busy = false;
    for (auto& list : shard_busy_) {
      if (list.empty()) continue;
      any_busy = true;
      std::sort(list.begin(), list.end(), by_clock_tid);
    }
    if (!any_busy) continue;
    ++windows_executed_;

    // Window phase: run every busy core to the horizon, shard by shard.
    for (const auto& list : shard_busy_) {
      for (VCore* core : list) {
        mem::SinkScope sink(core);
        while (!core->strand_done && core->clock <= horizon_)
          core->fiber->resume();
      }
    }

    // Barrier: collect finished strands (their done/settle/add runs at the
    // next pump, in clock order) and merge cross-shard traffic.
    for (auto& list : shard_busy_) {
      std::size_t keep = 0;
      for (VCore* core : list) {
        if (core->strand_done) {
          core->pending_finish = true;
          queue_core(*core, /*idle=*/false);
        } else {
          list[keep++] = core;
        }
      }
      list.resize(keep);
    }
    if (memory_->merge_window()) ++window_merges_;
  }

  for (const auto& list : shard_busy_)
    SBS_CHECK_MSG(list.empty(),
                  "root completed while a strand was still running");
  if (fast_idle) sched.set_push_log(nullptr);

  sched.finish();
  delete root.sentinel;

  SimResult result;
  result.makespan_cycles = completion_clock;
  result.counters = memory_->counters();
  result.counters.filter_skips = memory_->filter_skips_total();
  result.counters.windows_executed = windows_executed_;
  result.counters.pump_passes = pump_passes_;
  result.counters.window_merges = window_merges_;
  for (const auto& core : cores_) {
    if (core->fiber)
      result.counters.fiber_switches +=
          core->fiber->resumes() - core->fiber_resumes_base;
  }
  result.sched_stats = sched.stats_string();
  const double hz = topo_.config().ghz * 1e9;
  result.stats.wall_s = static_cast<double>(completion_clock) / hz;
  result.stats.per_thread.reserve(cores_.size());
  for (const auto& core : cores_) {
    runtime::ThreadBreakdown bd;
    bd.active_s = static_cast<double>(core->active_cy) / hz;
    bd.add_s = static_cast<double>(core->add_cy) / hz;
    bd.done_s = static_cast<double>(core->done_cy) / hz;
    bd.get_s = static_cast<double>(core->get_cy) / hz;
    bd.empty_s = static_cast<double>(core->empty_cy) / hz;
    bd.strands = core->strands;
    bd.empty_wakeups = core->empty_wakeups;
    result.stats.per_thread.push_back(bd);
  }
  sched_ = nullptr;
  return result;
}

}  // namespace sbs::sim
