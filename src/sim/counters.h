// Simulated hardware counters (the stand-in for the paper's core PMU +
// C-Box uncore counters, Appendix B). Counts are exact, not sampled. A run
// has one Counters: the memory system charges each event into it when the
// event happens — a cross-socket invalidation when it lands at the window
// barrier — and the engine adds its own overhead counters when the run
// ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sbs::sim {

/// Per-cache-level aggregate counters. Index = tree depth (1 = outermost
/// cache, e.g. L3 on the Xeon preset).
struct LevelCounters {
  std::uint64_t hits = 0;    ///< requests served by this level
  std::uint64_t misses = 0;  ///< requests that probed this level and missed
  std::uint64_t evictions = 0;
  std::uint64_t back_invalidations = 0;  ///< inclusion-driven (parent evict)
  std::uint64_t coherence_invalidations = 0;  ///< remote-write-driven

  bool operator==(const LevelCounters&) const = default;
};

struct Counters {
  std::vector<LevelCounters> level;  ///< [0] unused (memory), [1..L] caches

  std::uint64_t dram_reads = 0;       ///< line fetches from memory
  std::uint64_t dram_writebacks = 0;  ///< dirty line evictions to memory
  std::uint64_t remote_dram_accesses = 0;  ///< home socket != accessor socket
  std::uint64_t queue_wait_cycles = 0;     ///< total bandwidth queueing stall
  std::uint64_t accesses = 0;              ///< total line requests
  std::uint64_t writes = 0;
  /// Tag scans the presence filters answered without touching the tag
  /// array (cache.h). A host-cost metric like the engine counters — it
  /// does not affect simulated time — but deterministic like the coherence
  /// counters, so equivalence checks compare it exactly.
  std::uint64_t filter_skips = 0;

  // Engine-overhead counters (filled by SimEngine, not the memory system):
  // how much host work the simulation spent on machinery rather than cache
  // modeling. None of these affect simulated time.
  std::uint64_t fiber_switches = 0;    ///< strand resume/yield round trips
  std::uint64_t windows_executed = 0;  ///< bounded-skew windows run
  std::uint64_t window_merges = 0;     ///< barriers that did a real merge
  std::uint64_t pump_passes = 0;       ///< scheduler-pump iterations
  /// Always 0: every strand runs on its core's fiber. Kept because the
  /// benchmark's per-layer report still reads it.
  std::uint64_t inline_strands = 0;

  /// Misses at the outermost cache level — the paper's headline metric
  /// ("L3 cache misses" on the Xeon preset).
  std::uint64_t llc_misses() const {
    return level.size() > 1 ? level[1].misses : 0;
  }
  std::uint64_t llc_hits() const {
    return level.size() > 1 ? level[1].hits : 0;
  }

  std::string summary() const;

  bool operator==(const Counters&) const = default;
};

}  // namespace sbs::sim
