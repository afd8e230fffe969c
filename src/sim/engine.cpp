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
  // state, so the decision is identical for every host_threads value.
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

  void ensure_fiber(std::size_t stack_bytes) {
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
        stack_bytes);
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
  std::uint64_t strand_start_clock = 0;  ///< for the kStrand trace event

  // Cycle breakdown (converted to seconds at the end).
  std::uint64_t active_cy = 0, add_cy = 0, done_cy = 0, get_cy = 0,
                empty_cy = 0;
  std::uint64_t strands = 0;
  std::uint64_t empty_wakeups = 0;

  /// Fiber::resumes() at run start (fibers persist across runs).
  std::uint64_t fiber_resumes_base = 0;
};

namespace {
/// Installed while an inline_runnable strand executes on the pump: such
/// strands promised to touch no simulated memory and do no simulated work,
/// and this sink turns a broken promise into a hard failure instead of a
/// silent timing divergence.
struct PoisonSink final : mem::AccessSink {
  void touch(std::uintptr_t, std::uint64_t, bool) override {
    SBS_CHECK_MSG(false,
                  "inline_runnable job touched simulated memory on the pump");
  }
  void work(std::uint64_t) override {
    SBS_CHECK_MSG(false,
                  "inline_runnable job did simulated work on the pump");
  }
  int stream_id() const override { return -1; }
};
}  // namespace

SimEngine::SimEngine(const machine::Topology& topo, SimParams params)
    : topo_(topo), params_(params) {
  num_threads_ =
      params_.num_threads < 0 ? topo.num_threads() : params_.num_threads;
  SBS_CHECK(num_threads_ >= 1 && num_threads_ <= topo.num_threads());
  params_.memory.cache.simd_probes = params_.simd_probes;
  params_.memory.cache.presence_filter = params_.presence_filter;
  params_.memory.cache.packed_lru = params_.packed_lru;
  memory_ = std::make_unique<MemorySystem>(topo, params_.memory);

  host_threads_ = std::max(1, params_.host_threads);
  host_threads_ = std::min(host_threads_, memory_->num_shards());
  shard_busy_.resize(static_cast<std::size_t>(memory_->num_shards()));
  arenas_.reserve(static_cast<std::size_t>(host_threads_));
  for (int h = 0; h < host_threads_; ++h)
    arenas_.push_back(std::make_unique<runtime::JobArena>());

  cores_.reserve(static_cast<std::size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    cores_.push_back(std::make_unique<VCore>(this, t));
    cores_.back()->shard = memory_->shard_of_thread(t);
  }

  pool_.reserve(static_cast<std::size_t>(host_threads_ - 1));
  for (int h = 1; h < host_threads_; ++h)
    pool_.emplace_back([this, h] { worker_loop(h); });
}

SimEngine::~SimEngine() {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_stop_ = true;
  }
  pool_go_.notify_all();
  for (std::thread& t : pool_) t.join();
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

void SimEngine::worker_pass(int h) {
  runtime::JobArena::Scope arena_scope(arenas_[static_cast<std::size_t>(h)].get());
  const int n_shards = static_cast<int>(shard_busy_.size());
  for (int s = h; s < n_shards; s += host_threads_) {
    for (VCore* core : shard_busy_[static_cast<std::size_t>(s)]) {
      mem::SinkScope sink(core);
      while (!core->strand_done && core->clock <= horizon_)
        core->fiber->resume();
    }
  }
}

void SimEngine::worker_loop(int h) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_go_.wait(lk, [&] { return pool_stop_ || pool_gen_ != seen; });
      if (pool_stop_) return;
      seen = pool_gen_;
    }
    worker_pass(h);
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      if (--pool_pending_ == 0) pool_done_.notify_one();
    }
  }
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
  memory_->set_windowed(true);
  mem::arena::reset_transient();
  for (auto& core : cores_) {
    SBS_CHECK_MSG(!core->busy, "engine reused while a strand was live");
    core->clock = 0;
    core->active_cy = core->add_cy = core->done_cy = core->get_cy =
        core->empty_cy = 0;
    core->strands = 0;
    core->empty_wakeups = 0;
    core->pending_finish = false;
    core->fiber_resumes_base = core->fiber ? core->fiber->resumes() : 0;
  }
  windows_since_merge_ = 0;
  coalesce_limit_ = 1;
  windows_executed_ = pump_passes_ = window_merges_ = inline_strands_run_ = 0;
  inline_done_.clear();
  runtime::JobArena::Scope arena_scope(arenas_[0].get());

  sched.start(topo_, num_threads_);
  StrandOps::Root root = StrandOps::make_root(root_job);

  if (recorder_) {
    recorder_->begin_run(/*virtual_time=*/true, topo_.config().ghz * 1e9);
  }
  trace::Scope trace_scope(recorder_.get());
  trace::Recorder* const rec = recorder_.get();
  using trace::EventKind;

  {
    VCore& c0 = *cores_[0];
    const std::uint64_t ops0 = sched::ops_snapshot();
    sched.add(root_job, 0);
    const std::uint64_t cy = charge_ops(ops0);
    if (rec) rec->record(0, EventKind::kAdd, c0.clock, cy);
    c0.add_cy += cy;
    c0.clock += cy;
  }

  events_.reset(num_threads_);
  for (int t = 0; t < num_threads_; ++t)
    events_.push(cores_[static_cast<std::size_t>(t)]->clock, t);

  const auto by_clock_tid = [](const VCore* a, const VCore* b) {
    return a->clock < b->clock || (a->clock == b->clock && a->tid < b->tid);
  };

  PoisonSink poison;
  std::uint64_t completion_clock = 0;
  std::uint64_t consecutive_empty = 0;
  while (!root_completed_) {
    ++pump_passes_;
    // Window = [min clock, min clock + quantum] over every core.
    busy_min_ = std::numeric_limits<std::uint64_t>::max();
    for (const auto& list : shard_busy_)
      for (const VCore* c : list) busy_min_ = std::min(busy_min_, c->clock);
    std::uint64_t min_clock = busy_min_;
    if (!events_.empty()) min_clock = std::min(min_clock, events_.min_clock());
    SBS_CHECK_MSG(min_clock != std::numeric_limits<std::uint64_t>::max(),
                  "no runnable cores, root not complete");
    horizon_ = min_clock + params_.skew_quantum;

    // Pump: idle gets and deferred strand completions, in (clock, thread)
    // order — all scheduler interaction is single-threaded here.
    std::uint64_t clk = 0;
    int tid = 0;
    while (!events_.empty() && events_.min_clock() <= horizon_) {
      events_.pop(&clk, &tid);
      VCore& core = *cores_[static_cast<std::size_t>(tid)];
      if (core.pending_finish) {
        core.pending_finish = false;
        finish_strand(core);
        if (root_completed_) {
          completion_clock = core.clock;
          break;
        }
        events_.push(core.clock, tid);
        continue;
      }

      if (rec) {
        rec->set_now(core.tid, core.clock);
        rec->record(core.tid, EventKind::kGetBegin, core.clock);
      }
      const std::uint64_t ops0 = sched::ops_snapshot();
      Job* job = sched.get(core.tid);
      std::uint64_t cy = charge_ops(ops0);
      if (rec) {
        rec->record(core.tid, EventKind::kGetEnd, core.clock + cy, 0,
                    job != nullptr ? 1 : 0);
      }
      if (job == nullptr) {
        // Idle: nothing can be enqueued before the next core acts, so jump
        // to the earliest other event (but always advance by at least one
        // poll interval). Pure wait-time accounting — no schedulable event
        // is skipped.
        std::uint64_t second = busy_min_;
        if (!events_.empty()) second = std::min(second, events_.min_clock());
        if (second == std::numeric_limits<std::uint64_t>::max()) second = 0;
        const std::uint64_t next = std::max(
            core.clock + cy + topo_.config().idle_poll_cycles, second);
        if (rec) {
          rec->record(core.tid, EventKind::kEmpty, core.clock + cy,
                      next - (core.clock + cy));
        }
        core.empty_cy += next - core.clock;
        core.clock = next;
        ++core.empty_wakeups;
        events_.push_idle(core.clock, tid);
        SBS_CHECK_MSG(++consecutive_empty <
                          (std::uint64_t{1} << 24) *
                              static_cast<std::uint64_t>(num_threads_),
                      "simulation wedged: every core idle, no queued work, "
                      "root not complete (scheduler lost a job?)");
        continue;
      }
      consecutive_empty = 0;
      core.get_cy += cy;
      core.clock += cy;
      core.job = job;
      core.strand.emplace(core.tid, num_threads_);
      core.strand_done = false;
      core.busy = true;
      core.strand_start_clock = core.clock;
      if (params_.inline_strands && core.clock <= horizon_ &&
          job->inline_runnable()) {
        // Pure-control strand (e.g. an empty join continuation): execute it
        // right here on the pump stack — no fiber, no window-phase pass.
        // Timing is identical to the fiber path: the strand touches nothing,
        // so its clock is unchanged, and its completion is deferred to the
        // barrier (where the fiber path would collect it) so this pump pass
        // cannot pop it early. The horizon guard keeps the equivalence when
        // the get() charge pushed the clock past the window: the fiber path
        // would not run such a strand until a later window, so it must not
        // be inlined now.
        {
          mem::SinkScope sink(&poison);
          job->execute(*core.strand);
        }
        core.strand_done = true;
        ++inline_strands_run_;
        inline_done_.push_back(&core);
        busy_min_ = std::min(busy_min_, core.clock);
        continue;
      }
      core.ensure_fiber(params_.fiber_stack_bytes);
      shard_busy_[static_cast<std::size_t>(core.shard)].push_back(&core);
      busy_min_ = std::min(busy_min_, core.clock);
    }
    if (root_completed_) break;

    // Inline-run strands complete at the barrier, exactly like fiber-run
    // ones. (Queue order is by key, so push order next to the fiber-path
    // pushes below is immaterial.)
    for (VCore* core : inline_done_) {
      core->pending_finish = true;
      events_.push(core->clock, core->tid);
    }
    inline_done_.clear();

    bool any_busy = false;
    for (auto& list : shard_busy_) {
      if (list.empty()) continue;
      any_busy = true;
      std::sort(list.begin(), list.end(), by_clock_tid);
    }
    if (!any_busy) continue;
    ++windows_executed_;

    // Window phase: run every busy core to the horizon, shards spread over
    // the host workers (each shard's cores on exactly one worker).
    if (host_threads_ > 1) {
      {
        std::lock_guard<std::mutex> lk(pool_mu_);
        pool_pending_ = host_threads_ - 1;
        ++pool_gen_;
      }
      pool_go_.notify_all();
      worker_pass(0);
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_done_.wait(lk, [&] { return pool_pending_ == 0; });
    } else {
      worker_pass(0);
    }

    // Barrier: collect finished strands (their done/settle/add runs at the
    // next pump, in clock order) and merge cross-shard traffic.
    for (auto& list : shard_busy_) {
      std::size_t keep = 0;
      for (VCore* core : list) {
        if (core->strand_done) {
          core->pending_finish = true;
          events_.push(core->clock, core->tid);
        } else {
          list[keep++] = core;
        }
      }
      list.resize(keep);
    }

    // Adaptive windows: while every window since the last merge was quiet
    // (no cross-shard coherence, no sharing-directory traffic, no link
    // bandwidth), the merge would be an identity apart from folding counter
    // deltas — defer it, doubling the merge-free budget each time a full
    // budget passes without contact, and collapse back to one window on
    // contact. The decision reads only simulation-determined shard state,
    // so it is identical for every host_threads value, and eliding an
    // identity barrier cannot change results — makespan and all memory
    // counters stay bit-identical to adaptive_window=false.
    ++windows_since_merge_;
    if (params_.adaptive_window && memory_->window_quiet() &&
        windows_since_merge_ < coalesce_limit_) {
      continue;  // barrier elided
    }
    if (params_.adaptive_window) {
      if (memory_->window_quiet()) {
        // A whole budget of quiet windows: widen geometrically (bounded so
        // counter deltas cannot go stale without limit).
        coalesce_limit_ = std::min(coalesce_limit_ * 2, kCoalesceCap);
      } else {
        coalesce_limit_ = 1;
      }
    }
    windows_since_merge_ = 0;
    ++window_merges_;
    memory_->merge_window();
  }

  SBS_CHECK_MSG(inline_done_.empty(),
                "root completed while an inline strand awaited settle");
  for (const auto& list : shard_busy_)
    SBS_CHECK_MSG(list.empty(),
                  "root completed while a strand was still running");
  memory_->merge_window();
  memory_->set_windowed(false);

  sched.finish();
  delete root.sentinel;

  SimResult result;
  result.makespan_cycles = completion_clock;
  result.counters = memory_->counters();
  result.counters.filter_skips = memory_->filter_skips_total();
  result.counters.windows_executed = windows_executed_;
  result.counters.pump_passes = pump_passes_;
  result.counters.window_merges = window_merges_;
  result.counters.inline_strands = inline_strands_run_;
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
