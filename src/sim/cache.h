// One set-associative LRU cache instance inside the simulated PMH.
//
// The cache stores line addresses (byte address >> log2(line)). assoc == 0
// in the machine config means fully associative, realized as a single set
// with size/line ways (only sensible for the small test caches).
//
// Storage is structure-of-arrays: the probe scans a packed tag word per way
// — (line << 1) | valid — so a whole set's tags sit in one or two host
// cache lines, and the cold per-way metadata (dirty / sharing flags /
// holder mask) lives in a parallel array touched only on hits and fills.
// An invalid way's tag word is 0, which can never equal a probe key (keys
// always have the valid bit set), so the scan needs no separate valid test
// — and the same scan with key 0 finds a free way.
//
// Recency is the physical order of the ways: way 0 is MRU, way assoc-1
// the LRU victim. A hit rotates the way to the front, a fill shifts the
// set down one and writes way 0, and an invalidation shifts the tail up so
// freed ways sink to the back, where the next fill consumes them before it
// evicts any valid line. The order doubles as a scan accelerator: the
// early-exit tag scan starts at way 0, where the hot lines sit, so a hit
// on the line a set last touched costs one compare.
//
// Line-presence filter (CacheOptions::presence_filter), the one
// representation option: big outer-level tag arrays (MBs) miss the host
// cache by construction, and at those levels the common probe outcome is a
// guaranteed miss. Caches whose tag array is at least filter_min_tag_bytes
// keep a per-set 16-bucket counting filter (one u64 per set, 4-bit counters,
// bucket drawn from hash bits disjoint from the set index) maintained on
// fill/evict/invalidate. A zero bucket proves the line absent, so the probe
// skips the cold tag scan entirely — counted in filter_skips(). Counters
// saturate sticky at 15 (a saturated bucket is never decremented and answers
// "maybe" forever): soundness is preserved, only filter effectiveness
// decays, and with ≤ 32 ways spread over 16 buckets saturation is
// vanishingly rare. The filter changes no observable behavior — it only
// skips scans that were guaranteed to miss. tests/test_sim_probe.cpp asserts
// end to end that filtered and unfiltered runs are bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "util/assert.h"

namespace sbs::sim {

/// Representation knobs for Cache, resolved once at construction; see the
/// file comment. Plumbed from MemoryParams::cache (memory_system.h).
struct CacheOptions {
  bool presence_filter = true;
  /// Minimum tag-array footprint (bytes) before a presence filter is worth
  /// its upkeep; the default enables it on the multi-MB outer levels and
  /// leaves the host-cache-resident L1/L2 tag arrays alone. Tests force
  /// filters onto tiny caches by setting 0.
  std::uint64_t filter_min_tag_bytes = 64 * 1024;
};

class Cache {
 public:
  Cache(std::uint64_t size_bytes, std::uint32_t line_bytes,
        std::uint32_t assoc, const CacheOptions& options = CacheOptions{});

  // Per-way sharing flags (see memory_system.h for the protocol). The flag
  // byte is opaque metadata to the cache: it is stored on fill, reported on
  // probe, and dies with the way.
  static constexpr std::uint8_t kFlagSockShared = 1u << 0;
  static constexpr std::uint8_t kFlagCrossShared = 1u << 1;
  static constexpr std::uint8_t kFlagCrossUnknown = 1u << 2;

  /// Probe for a line; on hit, update LRU and (optionally) the dirty bit,
  /// and report the way's sharing flags / holder mask if requested.
  bool probe_and_touch(std::uint64_t line, bool mark_dirty,
                       std::uint8_t* flags = nullptr,
                       std::uint16_t* holders = nullptr);

  struct Evicted {
    bool valid = false;
    std::uint64_t line = 0;
    bool dirty = false;
    std::uint16_t holders = 0;  ///< the victim way's holder mask
  };
  /// Insert a line (caller guarantees it is absent). Returns the evicted
  /// victim, if the set was full.
  Evicted fill(std::uint64_t line, bool dirty, std::uint8_t flags = 0);

  /// Overwrite a resident line's sharing flags (no LRU touch). Returns
  /// false if the line is absent.
  bool set_flags(std::uint64_t line, std::uint8_t flags);
  /// OR `bits` into a resident line's flags (kFlagCrossShared clears
  /// kFlagCrossUnknown), reporting the flags *before* the merge; no LRU
  /// touch. Returns the way's holder mask, or -1 if the line is absent.
  int mark_shared(std::uint64_t line, std::uint8_t bits,
                  std::uint8_t* old_flags = nullptr);

  /// Remove a line if present; reports whether it was dirty and (optionally)
  /// its holder mask. Returns true when the line was found.
  bool invalidate(std::uint64_t line, bool* was_dirty,
                  std::uint16_t* holders = nullptr);

  // --- in-cache holder directory ---
  // Each way carries a bitmask over the cache's *children* in the simulated
  // hierarchy: bit b set means child b may hold the line (a conservative
  // superset — bits are set on child fills and cleared lazily when a sweep
  // verifies absence, so capacity evictions in a child leave a stale bit
  // behind until the next sweep). Coherence sweeps use it to probe only
  // plausible holders instead of every child. Lives in the cold metadata
  // array; caches whose children are hardware threads simply never have
  // bits set. Neither call moves the LRU order — they are directory
  // metadata, not accesses.

  /// Mark child `bit` as holding `line`. The line must be resident (the
  /// hierarchy is inclusive: a child fill implies the parent holds it).
  /// Returns the mask *before* the bit was set, so callers can detect a new
  /// holder joining existing ones (sharing arising).
  std::uint16_t set_holder_bit(std::uint64_t line, std::uint32_t bit);
  /// The holder mask of a resident line, or nullptr if absent. The pointer
  /// stays valid until the next fill/probe/invalidate touching this cache.
  std::uint16_t* holder_mask(std::uint64_t line);

  bool contains(std::uint64_t line) const;

  /// Hint the host prefetcher at the state a probe for `line` will touch.
  /// The big outer caches' tag arrays dwarf the host cache, so a probe is
  /// one guaranteed host miss; issuing the loads for every level up front
  /// lets the otherwise serial inner-to-outer probe chain overlap them.
  /// With a presence filter the filter word is what a skipped probe reads,
  /// so it is prefetched too.
  void prefetch(std::uint64_t line) const {
    const std::uint64_t h = hash_of(line);
    const std::uint64_t set = set_of_hash(h);
    if (filter_on_) __builtin_prefetch(filter_.data() + set);
    __builtin_prefetch(tags_at(set));
  }

  std::uint32_t associativity() const { return assoc_; }
  std::uint64_t num_sets() const { return num_sets_; }
  /// Lines currently resident (for tests / occupancy introspection).
  std::uint64_t resident_lines() const { return resident_; }

  // --- representation introspection (benches / tests / summaries) ---
  bool filter_enabled() const { return filter_on_; }
  /// Tag scans skipped because the presence filter proved the line absent
  /// (counted on the probe paths: probe_and_touch / invalidate — not in
  /// const contains()). Deterministic: a function of the probe sequence
  /// alone, so as reproducible as the coherence counters.
  std::uint64_t filter_skips() const { return filter_skips_; }

  void clear();

 private:
  /// Cold per-way metadata, parallel to tags_ and shifted in lockstep
  /// with it.
  struct Meta {
    std::uint16_t holders = 0;  ///< child holder mask (see above)
    std::uint8_t dirty = 0;
    std::uint8_t flags = 0;  ///< sharing flags (kFlag*)
  };

  static constexpr std::uint64_t kHashMul = 0x9e3779b97f4a7c15ULL;

  static std::uint64_t key_of(std::uint64_t line) { return (line << 1) | 1; }
  static std::uint64_t hash_of(std::uint64_t line) { return line * kHashMul; }
  std::uint64_t set_of_hash(std::uint64_t h) const {
    return (h >> 32) & (num_sets_ - 1);
  }
  std::uint64_t set_index(std::uint64_t line) const {
    // Lines are full addresses >> line shift; spread with a multiplicative
    // hash so 2 MB-aligned arrays do not collide pathologically.
    return set_of_hash(hash_of(line));
  }
  /// Filter bucket: hash bits 28..31 — disjoint from the set-index bits
  /// (32 and up), so lines colliding into one set still spread over the
  /// set's 16 filter buckets.
  static std::uint32_t bucket_of_hash(std::uint64_t h) {
    return static_cast<std::uint32_t>(h >> 28) & 0xF;
  }

  /// Index of `line`'s key within its set, or -1: the early-exit scan from
  /// the MRU way. Probe traffic is heavily skewed toward the line a set
  /// last touched — from temporal locality, and because the hierarchy walk
  /// re-finds the line it just probed or filled (set_holder_bit after every
  /// path fill, flag updates after a sweep, dirty propagation into a
  /// parent) — and that line sits in way 0, where the scan starts.
  int find_way(const std::uint64_t* tags, std::uint64_t key) const {
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (tags[w] == key) return static_cast<int>(w);
    }
    return -1;
  }

  /// Rotate way `w` of a set to MRU (front), shifting [0, w) down by one.
  static void rotate_to_front(std::uint64_t* tags, Meta* meta,
                              std::uint32_t w) {
    const std::uint64_t tag = tags[w];
    const Meta m = meta[w];
    for (std::uint32_t i = w; i > 0; --i) {
      tags[i] = tags[i - 1];
      meta[i] = meta[i - 1];
    }
    tags[0] = tag;
    meta[0] = m;
  }

  // --- presence-filter helpers (only called when filter_on_) ---

  bool filter_absent(std::uint64_t set, std::uint32_t bucket) const {
    return ((filter_[set] >> (4 * bucket)) & 0xF) == 0;
  }
  void filter_add(std::uint64_t set, std::uint64_t line) {
    std::uint64_t& f = filter_[set];
    const std::uint32_t sh = 4 * bucket_of_hash(hash_of(line));
    if (((f >> sh) & 0xF) != 0xF) f += 1ULL << sh;  // sticky at saturation
  }
  void filter_sub(std::uint64_t set, std::uint64_t line) {
    std::uint64_t& f = filter_[set];
    const std::uint32_t sh = 4 * bucket_of_hash(hash_of(line));
    const std::uint64_t n = (f >> sh) & 0xF;
    SBS_ASSERT(n != 0);         // every resident line was counted in
    if (n != 0xF) f -= 1ULL << sh;  // sticky at saturation
  }

  /// Insert `line` into `set` (absent by contract), evicting the LRU
  /// victim if the set is full (*out). Updates residency and the presence
  /// filter.
  void insert_line(std::uint64_t set, std::uint64_t* tags, Meta* meta,
                   std::uint64_t line, bool dirty, std::uint8_t flags,
                   Evicted* out);

  std::uint64_t* tags_at(std::uint64_t set) {
    return tags_.data() + set * assoc_;
  }
  const std::uint64_t* tags_at(std::uint64_t set) const {
    return tags_.data() + set * assoc_;
  }
  Meta* meta_at(std::uint64_t set) { return meta_.data() + set * assoc_; }

  std::uint32_t assoc_;
  std::uint64_t num_sets_;
  std::uint64_t resident_ = 0;
  std::uint64_t filter_skips_ = 0;
  bool filter_on_ = false;
  std::vector<std::uint64_t> tags_;  ///< num_sets_*assoc_, (line<<1)|valid
  std::vector<Meta> meta_;           ///< parallel to tags_
  std::vector<std::uint64_t> filter_;  ///< per set (filter_on_ only)
};

}  // namespace sbs::sim
