// Offline (replay) invariant checking over JSONL traces — the second half
// of the verification tooling. Where verify::VerifyingScheduler checks a
// *live* run, CheckTrace re-verifies a finished one from its exported
// evidence alone: the machine config embedded in the trace header plus the
// per-event payloads (anchor depth/node/size/ceiling, steal victims,
// fork/join counts).
//
// Checked properties, in increasing strictness as the trace allows:
//   always (drops ok)
//     - every anchor names an existing cache node whose tree depth matches
//       the event's depth payload, on the admitting worker's root-to-leaf
//       path (a worker may only admit into its own cache subtree);
//     - anchored sizes befit their level: S ≤ σM_d at the anchor depth and
//       S > σM_{d+1} one level deeper (a task must not be anchored above
//       its befitting cache) — needs the header's sigma and config;
//     - the skip-level ceiling is strictly above the anchor depth;
//     - steal events name a live victim: a valid worker id ≠ the thief.
//   complete traces (no ring-buffer drops)
//     - anchors and releases pair up: equal counts and, per cache node,
//       charged bytes equal released bytes (occupancy drains to zero);
//     - forks and joins balance: every fork's join counter fires once.
//   complete virtual-time traces (deterministic global event order)
//     - chronological occupancy replay: anchored-task bytes at every cache
//       never exceed its capacity M_i, and never go negative.
//
// Real-time traces skip the chronological replay because steady_clock
// timestamps taken on different cores are not a total order; the
// order-independent balance checks still run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/jsonl_trace.h"

namespace sbs::verify {

struct TraceCheckResult {
  std::uint64_t checks = 0;
  std::uint64_t events = 0;
  std::uint64_t anchors = 0;
  std::uint64_t releases = 0;
  std::uint64_t forks = 0;
  std::uint64_t joins = 0;
  bool replayed_occupancy = false;  ///< chronological replay ran
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  /// Human-readable summary ("trace_check: OK ..." or the messages).
  std::string report() const;
};

/// Re-verify a parsed JSONL trace. Structural problems (bad node ids,
/// malformed config text) are reported as violations, never as crashes.
TraceCheckResult CheckTrace(const trace::JsonlTrace& trace);

/// Convenience: read the file at `path` and check it. A parse failure
/// becomes the single violation in the result.
TraceCheckResult CheckTraceFile(const std::string& path);

}  // namespace sbs::verify
