#include "trace/analysis.h"

#include <algorithm>
#include <cstdio>

#include "util/json.h"

namespace sbs::trace {

WorkerProfile TraceAnalysis::totals() const {
  WorkerProfile t;
  for (const WorkerProfile& w : workers) {
    t.strands += w.strands;
    t.forks += w.forks;
    t.joins += w.joins;
    t.steal_attempts += w.steal_attempts;
    t.steal_successes += w.steal_successes;
    t.anchors += w.anchors;
    t.admission_failures += w.admission_failures;
    t.releases += w.releases;
    t.stalls += w.stalls;
    t.active_ticks += w.active_ticks;
    t.add_ticks += w.add_ticks;
    t.done_ticks += w.done_ticks;
    t.get_ticks += w.get_ticks;
    t.empty_ticks += w.empty_ticks;
    t.events += w.events;
    t.dropped += w.dropped;
  }
  return t;
}

double TraceAnalysis::load_imbalance() const {
  if (workers.empty()) return 1.0;
  std::uint64_t max = 0, sum = 0;
  for (const WorkerProfile& w : workers) {
    max = std::max(max, w.active_ticks);
    sum += w.active_ticks;
  }
  if (sum == 0) return 1.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(workers.size());
  return static_cast<double>(max) / mean;
}

double TraceAnalysis::steal_success_rate() const {
  const WorkerProfile t = totals();
  return t.steal_attempts == 0
             ? 0.0
             : static_cast<double>(t.steal_successes) /
                   static_cast<double>(t.steal_attempts);
}

TraceAnalysis Analyze(const Recorder& recorder, int stall_bins) {
  TraceAnalysis out;
  out.ticks_per_second = recorder.ticks_per_second();
  out.virtual_time = recorder.virtual_time();
  out.workers.resize(static_cast<std::size_t>(recorder.num_workers()));

  // Pass 1: per-worker aggregates and the run's tick span.
  struct StallSpan {
    std::uint64_t begin, end;
  };
  std::vector<StallSpan> stalls;
  for (int w = 0; w < recorder.num_workers(); ++w) {
    WorkerProfile& profile = out.workers[static_cast<std::size_t>(w)];
    profile.dropped = recorder.dropped(w);
    std::uint64_t get_begin = 0;
    bool in_get = false;
    for (const Event& e : recorder.events(w)) {
      ++profile.events;
      out.span_ticks = std::max(out.span_ticks, e.ts + e.dur);
      switch (e.kind) {
        case EventKind::kStrand:
          ++profile.strands;
          profile.active_ticks += e.dur;
          break;
        case EventKind::kAdd:
          profile.add_ticks += e.dur;
          break;
        case EventKind::kDone:
          profile.done_ticks += e.dur;
          break;
        case EventKind::kEmpty:
          ++profile.stalls;
          profile.empty_ticks += e.dur;
          stalls.push_back({e.ts, e.ts + e.dur});
          break;
        case EventKind::kGetBegin:
          get_begin = e.ts;
          in_get = true;
          break;
        case EventKind::kGetEnd:
          // A ring that wrapped mid-callback can start with an unmatched
          // end; only paired begins are charged.
          if (in_get) profile.get_ticks += e.ts - get_begin;
          in_get = false;
          break;
        case EventKind::kFork: ++profile.forks; break;
        case EventKind::kJoin: ++profile.joins; break;
        case EventKind::kStealAttempt: ++profile.steal_attempts; break;
        case EventKind::kStealSuccess: ++profile.steal_successes; break;
        case EventKind::kAnchor: {
          ++profile.anchors;
          const std::size_t depth = static_cast<std::size_t>(e.a);
          if (out.anchors_by_level.size() <= depth)
            out.anchors_by_level.resize(depth + 1, 0);
          ++out.anchors_by_level[depth];
          break;
        }
        case EventKind::kAdmissionFail: ++profile.admission_failures; break;
        case EventKind::kRelease: ++profile.releases; break;
        case EventKind::kNumKinds: break;
      }
    }
  }

  // Pass 2: bin the stall spans over the run, splitting a span that crosses
  // bin boundaries proportionally.
  stall_bins = std::max(1, stall_bins);
  out.stall_series.assign(static_cast<std::size_t>(stall_bins), 0);
  out.bin_ticks = out.span_ticks / static_cast<std::uint64_t>(stall_bins) + 1;
  for (const StallSpan& s : stalls) {
    for (std::uint64_t t = s.begin; t < s.end;) {
      const std::uint64_t bin = t / out.bin_ticks;
      const std::uint64_t bin_end = (bin + 1) * out.bin_ticks;
      const std::uint64_t upto = std::min(s.end, bin_end);
      if (bin < out.stall_series.size())
        out.stall_series[static_cast<std::size_t>(bin)] += upto - t;
      t = upto;
    }
  }
  return out;
}

bool WriteMetricsJsonl(const TraceAnalysis& analysis, const std::string& path,
                       const std::string& label, bool truncate,
                       const EngineOverheads* engine) {
  const WorkerProfile t = analysis.totals();

  JsonWriter json;
  json.begin_object()
      .kv("label", label)
      .kv("clock", analysis.virtual_time ? "virtual" : "real")
      .kv("ticks_per_second", analysis.ticks_per_second)
      .kv("span_seconds", analysis.seconds(analysis.span_ticks))
      .kv("workers", static_cast<std::uint64_t>(analysis.workers.size()))
      .kv("events", t.events)
      .kv("dropped_events", t.dropped)
      .kv("strands", t.strands)
      .kv("forks", t.forks)
      .kv("joins", t.joins)
      .kv("steal_attempts", t.steal_attempts)
      .kv("steal_successes", t.steal_successes)
      .kv("steal_failures", t.steal_attempts - t.steal_successes)
      .kv("steal_success_rate", analysis.steal_success_rate())
      .kv("anchors", t.anchors)
      .kv("admission_failures", t.admission_failures)
      .kv("stalls", t.stalls)
      // Engine-level name for the same count: scheduler polls that returned
      // no job (the idle-backoff path on real threads).
      .kv("empty_wakeups", t.stalls)
      .kv("stall_seconds", analysis.seconds(t.empty_ticks))
      .kv("load_imbalance", analysis.load_imbalance())
      .kv("active_seconds", analysis.seconds(t.active_ticks))
      .kv("overhead_seconds",
          analysis.seconds(t.add_ticks + t.done_ticks + t.get_ticks +
                           t.empty_ticks));
  json.key("anchors_by_level").begin_array();
  for (const std::uint64_t n : analysis.anchors_by_level) json.value(n);
  json.end_array();
  json.key("stall_series").begin_array();
  for (std::size_t i = 0; i < analysis.stall_series.size(); ++i) {
    json.begin_object()
        .kv("t", analysis.seconds(static_cast<std::uint64_t>(i) *
                                  analysis.bin_ticks))
        .kv("stall", analysis.seconds(analysis.stall_series[i]))
        .end_object();
  }
  json.end_array();
  if (engine != nullptr && engine->any()) {
    json.key("engine")
        .begin_object()
        .kv("windows_executed", engine->windows_executed)
        .kv("window_merges", engine->window_merges)
        .kv("pump_passes", engine->pump_passes)
        .kv("fiber_switches", engine->fiber_switches)
        .end_object();
  }
  json.key("per_worker").begin_array();
  for (const WorkerProfile& w : analysis.workers) {
    json.begin_object()
        .kv("strands", w.strands)
        .kv("steal_attempts", w.steal_attempts)
        .kv("steal_successes", w.steal_successes)
        .kv("steal_failures", w.steal_attempts - w.steal_successes)
        .kv("anchors", w.anchors)
        .kv("empty_wakeups", w.stalls)
        .kv("active_seconds", analysis.seconds(w.active_ticks))
        .kv("stall_seconds", analysis.seconds(w.empty_ticks))
        .end_object();
  }
  json.end_array().end_object();

  std::FILE* f = std::fopen(path.c_str(), truncate ? "w" : "a");
  if (f == nullptr) return false;
  std::fputs(json.str().c_str(), f);
  std::fputc('\n', f);
  return std::fclose(f) == 0;
}

}  // namespace sbs::trace
