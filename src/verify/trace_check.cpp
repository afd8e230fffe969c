#include "verify/trace_check.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "machine/topology.h"

namespace sbs::verify {

using trace::EventKind;

namespace {

struct Checker {
  const trace::JsonlTrace& tr;
  TraceCheckResult result;
  std::optional<machine::Topology> topo;

  explicit Checker(const trace::JsonlTrace& t) : tr(t) {}

  void violation(std::size_t index, const std::string& what) {
    if (result.violations.size() < 64) {
      result.violations.push_back("event " + std::to_string(index) + ": " +
                                  what);
    } else if (result.violations.size() == 64) {
      result.violations.push_back("... further violations suppressed");
    }
  }
  void global_violation(const std::string& what) {
    result.violations.push_back(what);
  }

  bool valid_worker(int w) const {
    return w >= 0 && (tr.workers == 0 || w < tr.workers);
  }

  std::uint64_t capacity_at(int depth) const {
    return topo->config().levels[static_cast<std::size_t>(depth)].size;
  }

  /// Structural validity of an anchor/release payload; returns the node id
  /// or -1 when the payload is unusable.
  int check_anchor_shape(std::size_t i, const trace::Event& e,
                         const char* what) {
    const int node = static_cast<int>(e.b);
    const int depth = static_cast<int>(e.a);
    ++result.checks;
    if (node < 0 || node >= topo->num_nodes()) {
      violation(i, std::string(what) + " names cache node " +
                       std::to_string(node) + " outside the machine");
      return -1;
    }
    if (topo->node(node).depth != depth) {
      violation(i, std::string(what) + " depth payload " +
                       std::to_string(depth) + " does not match node " +
                       std::to_string(node) + "'s tree depth " +
                       std::to_string(topo->node(node).depth));
      return -1;
    }
    const int ceiling = static_cast<int>(e.c);
    if (ceiling >= depth) {
      violation(i, std::string(what) + " skip-level ceiling " +
                       std::to_string(ceiling) +
                       " is not strictly above the anchor depth " +
                       std::to_string(depth));
    }
    return node;
  }

  void check_anchor(std::size_t i, const trace::JsonlTrace::Record& r) {
    ++result.anchors;
    const int node = check_anchor_shape(i, r.event, "anchor");
    if (node < 0) return;
    const int depth = topo->node(node).depth;
    ++result.checks;
    if (!topo->thread_in_cluster(r.worker, node)) {
      violation(i, "worker " + std::to_string(r.worker) +
                       " anchored a task at node " + std::to_string(node) +
                       " outside its cache subtree");
    }
    if (tr.params.sigma > 0) {
      const double size = static_cast<double>(r.event.dur);
      const std::uint64_t cap = capacity_at(depth);
      ++result.checks;
      if (cap != 0 &&
          size > tr.params.sigma * static_cast<double>(cap)) {
        violation(i, "anchored task of " + std::to_string(r.event.dur) +
                         " bytes exceeds sigma*M at depth " +
                         std::to_string(depth));
      }
      if (depth + 1 <= topo->num_cache_levels()) {
        // Befitting means the *deepest* fitting cache: a task that also
        // fits one level deeper was anchored too high (mis-anchoring).
        ++result.checks;
        if (size <= tr.params.sigma *
                        static_cast<double>(capacity_at(depth + 1))) {
          violation(i, "anchored task of " + std::to_string(r.event.dur) +
                           " bytes at depth " + std::to_string(depth) +
                           " also fits sigma*M one level deeper — anchored "
                           "above its befitting cache");
        }
      }
    }
  }

  void check_steal(std::size_t i, const trace::JsonlTrace::Record& r) {
    const int victim = static_cast<int>(r.event.a);
    ++result.checks;
    if (!valid_worker(victim)) {
      violation(i, "steal names victim " + std::to_string(victim) +
                       " outside the live worker set");
    } else if (victim == r.worker) {
      violation(i, "worker " + std::to_string(r.worker) + " stole from "
                   "itself");
    }
  }

  void run() {
    // Header / config plausibility first: everything else needs a topology.
    if (tr.params.config_text.empty()) {
      global_violation(
          "trace header carries no machine config — schedule-level "
          "checks need one");
      return;
    }
    try {
      topo.emplace(machine::ParseConfig(tr.params.config_text));
    } catch (const std::exception& e) {
      global_violation(std::string("embedded machine config does not "
                                   "parse: ") +
                       e.what());
      return;
    }
    ++result.checks;
    if (tr.workers > topo->num_threads()) {
      global_violation("trace names " + std::to_string(tr.workers) +
                       " workers but the machine has only " +
                       std::to_string(topo->num_threads()) + " threads");
    }

    // Per-event structural checks, in file order.
    std::uint64_t charged = 0, released = 0;
    std::vector<std::int64_t> net(
        static_cast<std::size_t>(topo->num_nodes()), 0);
    for (std::size_t i = 0; i < tr.records.size(); ++i) {
      const auto& r = tr.records[i];
      ++result.events;
      ++result.checks;
      if (!valid_worker(r.worker)) {
        violation(i, "worker id " + std::to_string(r.worker) +
                         " out of range");
        continue;
      }
      switch (r.event.kind) {
        case EventKind::kAnchor:
          check_anchor(i, r);
          ++charged;
          apply_path(r.event, net, +1);
          break;
        case EventKind::kRelease:
          ++result.releases;
          if (check_anchor_shape(i, r.event, "release") >= 0) {
            ++released;
            apply_path(r.event, net, -1);
          }
          break;
        case EventKind::kStealAttempt:
        case EventKind::kStealSuccess:
          check_steal(i, r);
          break;
        case EventKind::kFork: ++result.forks; break;
        case EventKind::kJoin: ++result.joins; break;
        default: break;
      }
    }

    // Order-independent balance checks need every event to have survived
    // the ring buffers.
    if (tr.dropped_events != 0) return;
    ++result.checks;
    if (result.anchors != result.releases) {
      global_violation("anchor/release counts unbalanced: " +
                       std::to_string(result.anchors) + " anchors vs " +
                       std::to_string(result.releases) + " releases");
    }
    ++result.checks;
    if (result.forks != result.joins) {
      global_violation("fork/join counts unbalanced: " +
                       std::to_string(result.forks) + " forks vs " +
                       std::to_string(result.joins) + " joins");
    }
    for (std::size_t n = 0; n < net.size(); ++n) {
      ++result.checks;
      if (net[n] != 0) {
        global_violation("cache node " + std::to_string(n) +
                         " does not drain: net " + std::to_string(net[n]) +
                         " bytes after replaying all anchors/releases");
      }
    }

    // Chronological occupancy replay: only meaningful under the
    // simulator's virtual clocks, where timestamps form a total order.
    if (!tr.virtual_time || charged != released) return;
    replay_occupancy();
  }

  void apply_path(const trace::Event& e, std::vector<std::int64_t>& occ,
                  int sign) {
    // Walk the charge path: from the anchor node up to, excluding, the
    // ceiling depth.
    const int node = static_cast<int>(e.b);
    if (node < 0 || node >= topo->num_nodes()) return;
    const int ceiling = static_cast<int>(e.c);
    for (int id = node; id >= 0 && topo->node(id).depth > ceiling;
         id = topo->node(id).parent) {
      occ[static_cast<std::size_t>(id)] +=
          sign * static_cast<std::int64_t>(e.dur);
    }
  }

  void replay_occupancy() {
    result.replayed_occupancy = true;
    struct Step {
      std::uint64_t ts;
      std::size_t index;
    };
    std::vector<Step> order;
    for (std::size_t i = 0; i < tr.records.size(); ++i) {
      const EventKind k = tr.records[i].event.kind;
      if (k == EventKind::kAnchor || k == EventKind::kRelease) {
        order.push_back({tr.records[i].event.ts, i});
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Step& x, const Step& y) { return x.ts < y.ts; });
    std::vector<std::int64_t> occ(
        static_cast<std::size_t>(topo->num_nodes()), 0);
    for (const Step& step : order) {
      const auto& r = tr.records[step.index];
      const bool is_anchor = r.event.kind == EventKind::kAnchor;
      apply_path(r.event, occ, is_anchor ? +1 : -1);
      const int node = static_cast<int>(r.event.b);
      if (node < 0 || node >= topo->num_nodes()) continue;
      const int ceiling = static_cast<int>(r.event.c);
      for (int id = node; id >= 0 && topo->node(id).depth > ceiling;
           id = topo->node(id).parent) {
        const std::size_t n = static_cast<std::size_t>(id);
        const std::uint64_t cap = capacity_at(topo->node(id).depth);
        ++result.checks;
        if (occ[n] < 0) {
          violation(step.index, "release drives cache node " +
                                    std::to_string(id) +
                                    " occupancy negative during replay");
          occ[n] = 0;
        } else if (is_anchor && cap != 0 &&
                   static_cast<std::uint64_t>(occ[n]) > cap) {
          violation(step.index,
                    "bounded property violated in replay: node " +
                        std::to_string(id) + " holds " +
                        std::to_string(occ[n]) + " bytes > capacity " +
                        std::to_string(cap));
        }
      }
    }
  }
};

}  // namespace

std::string TraceCheckResult::report() const {
  std::ostringstream out;
  if (ok()) {
    out << "trace_check: OK (" << events << " events, " << checks
        << " checks, " << anchors << " anchors, " << forks << " forks"
        << (replayed_occupancy ? ", occupancy replayed" : "") << ")";
    return out.str();
  }
  out << "trace_check: FAILED (" << violations.size() << " violation(s), "
      << checks << " checks over " << events << " events)";
  for (const std::string& v : violations) out << "\n  " << v;
  return out.str();
}

TraceCheckResult CheckTrace(const trace::JsonlTrace& trace) {
  Checker checker(trace);
  checker.run();
  return std::move(checker.result);
}

TraceCheckResult CheckTraceFile(const std::string& path) {
  trace::JsonlTrace parsed;
  std::string error;
  if (!trace::ReadJsonlTrace(path, &parsed, &error)) {
    TraceCheckResult result;
    result.violations.push_back("trace does not parse: " + error);
    return result;
  }
  return CheckTrace(parsed);
}

}  // namespace sbs::verify
