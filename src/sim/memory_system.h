// The simulated memory hierarchy: every cache of the PMH, an inclusive
// directory, and per-socket memory controllers with finite bandwidth.
//
// Timing model (all values in core cycles, from MachineConfig):
//   - hit at depth d       : levels[d].hit_cycles
//   - DRAM miss            : queue wait + line transfer + effective latency,
//     where the controller of the line's home socket is a FIFO link of
//     `socket_bytes_per_cycle`; effective latency is dram_latency / 4 for
//     isolated misses (four overlapped outstanding misses) and 0 for
//     sequential-streak misses (modeling the hardware prefetcher), plus a
//     60-cycle remote penalty (a QPI hop on the paper's machine) when the
//     home socket differs from the accessor's.
//   - dirty evictions from the outermost cache consume home-link bandwidth
//     but do not stall the evicting core.
//
// Pages map to memory sockets round-robin over the *allowed* socket list —
// exactly the paper's bandwidth-throttling mechanism (§5.2: numactl page
// placement onto 1..4 sockets => 25..100% of aggregate bandwidth).
//
// Coherence: the hierarchy is inclusive (line in a depth-d cache is present
// in all its ancestors). Writes invalidate all copies outside the writer's
// path (MSI-flavored, enough for race-free nested-parallel programs where
// only false sharing and read sharing occur). Within a socket, holders are
// found the way real hardware finds them: each cache way carries an
// *in-cache directory* — a conservative bitmask over the cache's children
// (cache.h) — and sweeps descend only into flagged children, with
// inclusion guaranteeing a cache that does not hold a line has nothing
// below it. This replaces a per-line holder hash table — whose traffic
// (insert per fill, erase per eviction, lookup per write) dominated the
// miss path and missed the host cache on every probe for large machines —
// with metadata that rides along in the cache ways the sweeps scan anyway.
//
// Write-sweep elision: each way additionally carries two sharing flags
// (cache.h kFlag*) — "sock-shared" (a cache in this socket outside this
// way's subtree may hold the line) and a cross-socket state
// (exclusive / shared / unknown). Flags are computed top-down at fill
// time from the parent way's holder mask and flags, conservatively
// maintained by whole-subtree marking walks when a new holder joins an
// existing one (share_children / share_socket), and reset to exclusive on
// the writer's innermost way once a sweep completes. A write whose
// innermost way carries no flag — the overwhelming majority — skips the
// sibling sweep, the sharing-directory lookup, and the outbox entirely.
//
// Windows (docs/PERF.md §5, "Serial windowed execution"): every cache
// belongs to exactly one depth-1 (socket) subtree — a shard — so all
// coherence state below a socket is shard-local. Cross-shard state is
// exactly two things: which *other* sockets' outermost caches hold a line
// (a global sharing directory keyed by line, maintained from
// outermost-cache fills/evicts) and the per-socket memory links. Within a
// window a shard reads neither: DRAM fills start cross-unknown, writes to
// non-exclusive lines append a (possibly redundant) invalidation event,
// fills and evictions append directory updates, and each shard charges
// link bandwidth against its own private view of the links. The engine
// runs shards in index order, so one buffer per kind of traffic holds the
// events in shard order; merge_window() applies them at the barrier and
// reconciles the link views. That deferral is part of the timing model:
// the committed makespans are defined by it. Every counter is charged
// directly into counters(), wherever the event lands.
//
// Hot-path fast path: a small per-thread memo of recently-accessed lines
// short-circuits repeat accesses — the common case for streaming kernels
// (line_bytes/8 consecutive double accesses per line, and a few
// interleaved read/write streams) — without touching the cache sets. The
// memo is kept *precise*: every removal of a line from an innermost cache
// (eviction victim, coherence or back-invalidation, clear) drops exactly
// that line from the memos of the threads the cache serves, so a memo hit
// proves the line is still resident — this also makes the memo sound when
// SMT siblings share the innermost cache. Two deliberate, deterministic
// relaxations relative to the un-memoized model: memo-absorbed hits do not
// refresh the line's LRU recency, and *repeat* writes via the memo skip
// re-running the remote-invalidate scan, so a remote copy refetched between
// two same-line writes by one thread is invalidated one write later than
// strict MSI would. Both are only observable as small deterministic shifts
// in eviction order and coherence counts.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "machine/topology.h"
#include "sim/cache.h"
#include "sim/counters.h"
#include "sim/flat_map.h"
#include "sim/socket_set.h"

namespace sbs::sim {

struct MemoryParams {
  /// Sockets whose memory links are used (page homes). Empty = all.
  std::vector<int> allowed_sockets;
  /// Cache representation knobs (presence filters — cache.h). Applied to
  /// every cache instance.
  CacheOptions cache;
};

class MemorySystem {
 public:
  MemorySystem(const machine::Topology& topo, MemoryParams params);

  /// One line-sized access by `thread_id` at virtual time `now`.
  /// Returns the stall cycles for this access. The memo probe — which
  /// absorbs the overwhelming majority of accesses on streaming kernels —
  /// is inlined below; everything past it is out of line (access_slow).
  std::uint64_t access(int thread_id, std::uint64_t addr, bool write,
                       std::uint64_t now);

  /// A contiguous range access (the common fast path): iterates lines.
  /// Single-line ranges (the usual case — one element read/write) go
  /// straight to the inlined access().
  std::uint64_t access_range(int thread_id, std::uint64_t addr,
                             std::uint64_t bytes, bool write,
                             std::uint64_t now);

  /// True when an access by `thread_id` at `addr` would be absorbed by the
  /// memos — i.e. it would not touch cache sets, links, or cross-shard
  /// state. The engine's run-ahead rule lets strands continue past the
  /// window horizon over memo-absorbed accesses (they are shard-private
  /// and cannot interact with other cores).
  bool would_absorb(int thread_id, std::uint64_t addr, bool write) const {
    if (!memo_enabled_) return false;
    const std::uint64_t line = addr >> line_shift_;
    const std::uint64_t e =
        memo_[static_cast<std::size_t>(thread_id)].entry[line &
                                                         (kMemoSlots - 1)];
    if ((e >> 1) == line && (!write || (e & 1) != 0)) return true;
    const RangeMemo& rm = range_memo_[static_cast<std::size_t>(thread_id)];
    return line >= rm.lo && line < rm.hi && (!write || rm.wrote != 0);
  }

  /// Aggregate counters, complete at every point: cross-shard events
  /// deferred to merge_window() charge their counters when they land.
  const Counters& counters() const { return counters_; }

  /// Resident line count of a cache node (tests).
  std::uint64_t resident_lines(int node_id) const;
  /// Tag scans skipped by the presence filters, summed over every cache
  /// (cache.h filter_skips()). Deterministic like the coherence counters;
  /// the engine folds it into the run's Counters.
  std::uint64_t filter_skips_total() const;
  /// Drop all cached state (between experiment repetitions). The system is
  /// then at the start of a window.
  void reset();

  /// One shard per depth-1 (socket) subtree.
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int shard_of_thread(int thread_id) const {
    return tinfo_[static_cast<std::size_t>(thread_id)].shard;
  }
  /// Window barrier: apply the window's sharing-directory updates and
  /// cross-shard invalidations in the order they were recorded, merge the
  /// shards' link views into the committed per-socket link state, and
  /// reseed the views. Returns false, having changed nothing, when the
  /// window produced no cross-shard traffic: no event and no link use.
  bool merge_window();

 private:
  // Deliberately smaller than the innermost cache: memo-absorbed hits skip
  // the LRU refresh, so an over-sized memo starves the simulated L1's
  // recency ordering and measurably inflates downstream misses.
  static constexpr int kMemoSlots = 64;
  /// Streak length at which a contiguous run displaces the promoted range.
  static constexpr std::uint64_t kRangePromoteLen = 16;

  /// A cross-shard write-invalidation deferred to the window barrier.
  struct InvalEvent {
    std::uint64_t line;
    std::int32_t writer_shard;
  };
  /// A deferred sharing-directory update (outermost-cache fill or evict).
  struct SdDelta {
    std::uint64_t line;
    std::int32_t shard;
    bool fill;  ///< true: set the shard bit; false: clear it.
  };

  struct Shard {
    /// This shard's view of when each socket's link frees up: the
    /// committed state at the last barrier plus its own traffic since.
    std::vector<std::uint64_t> link_view;
  };

  /// Flattened per-thread hot-path data: the root-to-leaf cache path
  /// innermost-first, with depths/costs precomputed so access() never
  /// touches the Topology.
  struct ThreadInfo {
    int path_len = 0;
    std::array<std::int32_t, 8> node{};
    std::array<std::int32_t, 8> depth{};
    std::array<std::uint32_t, 8> hit_cycles{};
    std::array<Cache*, 8> cache{};
    /// Child index of node[i] within its parent node[i+1] — the bit this
    /// path occupies in the parent's holder masks. 0xFF when the parent has
    /// too many children for a 16-bit mask (sweeps fall back to probe-all).
    std::array<std::uint8_t, 8> slot{};
    int shard = 0;    ///< == socket index
    int leaf_id = 0;
    int inner_depth = 0;
  };

  /// Recent-lines memo (see file comment): direct-mapped on the low line
  /// bits, so lookup, insert, and memo_drop() are all one slot probe. Each
  /// entry packs (line << 1) | wrote into one word so a probe touches a
  /// single host cache line. Kept exact by memo_drop() at every
  /// innermost-cache line removal.
  struct Memo {
    Memo() { entry.fill(~std::uint64_t{0}); }
    std::array<std::uint64_t, kMemoSlots> entry;
  };

  /// Resident-range memo: a contiguous run of lines [lo, hi) proven
  /// resident in the thread's innermost cache (each was accessed, and none
  /// has been removed since — memo_drop() shrinks the run on removal).
  /// `wrote` means every line in the run is additionally known dirty.
  /// Streaming kernels sweep the same buffer repeatedly; once the first
  /// sweep promotes the run, later sweeps are absorbed wholesale — one
  /// range compare and a bulk counter update for an entire access_range().
  /// The candidate fields are the stream detector: a contiguous streak of
  /// completed accesses that replaces the run once it outgrows it.
  struct RangeMemo {
    std::uint64_t lo = 0, hi = 0;  ///< the promoted run; empty when lo == hi
    std::uint64_t cand_lo = 0, cand_hi = 0;  ///< the streak being detected
    std::uint8_t wrote = 0;
    std::uint8_t cand_wrote = 0;
  };

  int home_socket(std::uint64_t line) const;
  /// access() past the memo probe: the probe loop, miss handling, and the
  /// coherence work.
  std::uint64_t access_slow(ThreadInfo& ti, int thread_id, std::uint64_t line,
                            bool write, std::uint64_t now);
  /// access_range() for multi-line spans: whole-range absorb, then the
  /// per-line loop.
  std::uint64_t access_range_multi(int thread_id, std::uint64_t first,
                                   std::uint64_t last, bool write,
                                   std::uint64_t now);
  /// Feed a completed (residency-proving) access into the stream detector,
  /// promoting the streak into the absorbing run once long enough.
  void extend_streak(RangeMemo& rm, std::uint64_t line, bool write);
  /// Drop `line` from the memos of the threads served by innermost cache
  /// `inner_node`.
  void memo_drop(int inner_node, std::uint64_t line);
  /// Invalidate every copy of `line` in the caches strictly below
  /// `node_id`, probing only the children flagged in `mask` (the holder
  /// mask of node_id's own — possibly just-removed — copy of the line) and
  /// recursing with each removed copy's mask. Counts per depth as
  /// back-invalidations, or coherence invalidations when `coherence`.
  void invalidate_children(int node_id, std::uint32_t mask,
                           std::uint64_t line, bool* dirty, bool coherence);
  /// Fill [0, from_index] outermost-first with propagated sharing flags
  /// (`flags` is the state computed at the hit boundary; on a multi-socket
  /// machine a depth-1 fill starts cross-unknown and records a
  /// sharing-directory update). Returns the innermost way's flags — what
  /// the write path needs to decide whether any sweep is due.
  std::uint8_t fill_path(const ThreadInfo& ti, std::uint64_t line, bool write,
                         int from_index, std::uint64_t now,
                         std::uint8_t flags);
  void handle_eviction(int node_id, const Cache::Evicted& evicted,
                       std::uint64_t now);
  /// Charge one line transfer on `home`'s link in `shard`'s view, starting
  /// no earlier than `now`. Returns the queue wait.
  std::uint64_t use_link(int shard, int home, std::uint64_t now);
  void write_invalidate(const ThreadInfo& ti, std::uint64_t line,
                        std::uint8_t flags);
  /// Invalidate every copy of `line` held by `victim_shard` (all depths,
  /// including untracked innermost copies). Returns true if the shard held
  /// the line.
  bool apply_remote_invalidate(int victim_shard, std::uint64_t line);
  /// OR sharing-flag `bits` into every copy of `line` strictly below
  /// `node_id`, descending via the holder masks (`mask` = node_id's own
  /// copy's mask). Descent stops at a way already carrying any of
  /// `stop_bits` (see share_socket for when that is sound).
  void share_children(int node_id, std::uint32_t mask, std::uint64_t line,
                      std::uint8_t bits, std::uint8_t stop_bits);
  /// share_children from a shard's outermost cache down (no-op if the
  /// socket no longer holds the line).
  void share_socket(int shard, std::uint64_t line, std::uint8_t bits,
                    std::uint8_t stop_bits);

  const machine::Topology& topo_;
  MemoryParams params_;
  std::uint32_t line_bytes_;
  std::uint32_t line_shift_;
  int innermost_depth_ = 1;  ///< tree depth of the innermost cache level
  std::uint64_t page_lines_shift_;  ///< log2(lines per page)
  bool memo_enabled_ = false;

  /// Cache instance per cache node id; index aligned with topology ids
  /// (nullptr for the root and leaves).
  std::vector<std::unique_ptr<Cache>> caches_;
  // --- per-node precomputation (hot paths never call into Topology) ---
  std::vector<std::int32_t> node_depth_;
  std::vector<std::int32_t> node_shard_;  ///< socket index; -1 above depth 1
  /// Children of each node, flattened: [child_first_[id], child_first_[id+1])
  /// indexes into nothing — children ids are contiguous, so only the first
  /// child and count are kept, mirrored from the Topology for hot loops.
  std::vector<std::int32_t> child_first_;
  std::vector<std::int32_t> child_count_;
  /// Whether the node's holder masks are usable (≤16 cache children);
  /// otherwise sweeps probe every child.
  std::vector<std::uint8_t> node_mask_ok_;
  /// Threads served by each innermost cache (contiguous): first id / count.
  std::vector<std::int32_t> inner_first_thread_;
  std::vector<std::int32_t> inner_thread_count_;
  std::vector<std::int32_t> socket_node_;  ///< shard -> depth-1 node id

  std::vector<ThreadInfo> tinfo_;
  std::vector<Memo> memo_;
  std::vector<RangeMemo> range_memo_;
  /// Per-thread last missed line (prefetch streak detection).
  std::vector<std::uint64_t> last_miss_line_;

  /// Committed virtual time when each socket's memory link frees up.
  std::vector<std::uint64_t> socket_next_free_;
  double transfer_cycles_;  ///< line transfer time on a socket link
  std::uint64_t isolated_miss_cycles_ = 0;  ///< latency of an isolated miss

  std::vector<Shard> shards_;
  /// line -> set of shards whose outermost (depth-1) cache holds it.
  /// Mutated only at barriers. SocketSet stays a single inline word up to
  /// 64 sockets and spills per-entry above (socket_set.h).
  FlatMap<SocketSet> sharing_;

  // Cross-shard traffic of the current window, for merge_window().
  std::vector<SdDelta> sd_delta_;
  std::vector<InvalEvent> outbox_;
  /// Per home socket: cycles of link service consumed this window, summed
  /// over shards (transfer time only — never the idle gaps a view skips
  /// over with max(view, now)).
  std::vector<std::uint64_t> link_used_;
  bool link_touched_ = false;  ///< any link use this window

  Counters counters_;
};

// --- inlined hot path -------------------------------------------------
// The memo probe answers the overwhelming majority of accesses (docs/
// PERF.md §5); keeping it in the header lets the engine's touch call
// collapse to a few loads with no call on the absorbed path.

inline void MemorySystem::extend_streak(RangeMemo& rm, std::uint64_t line,
                                        bool write) {
  const std::uint8_t w = write ? 1 : 0;
  if (line == rm.cand_hi && w == rm.cand_wrote && rm.cand_lo != rm.cand_hi) {
    ++rm.cand_hi;
  } else {
    rm.cand_lo = line;
    rm.cand_hi = line + 1;
    rm.cand_wrote = w;
  }
  // `>=` (not `>`) so a same-length re-sweep that upgrades read→write can
  // displace the clean run with a known-dirty one.
  if (rm.cand_hi - rm.cand_lo >= kRangePromoteLen &&
      rm.cand_hi - rm.cand_lo >= rm.hi - rm.lo) {
    rm.lo = rm.cand_lo;
    rm.hi = rm.cand_hi;
    rm.wrote = rm.cand_wrote;
  }
}

inline std::uint64_t MemorySystem::access(int thread_id, std::uint64_t addr,
                                          bool write, std::uint64_t now) {
  const std::uint64_t line = addr >> line_shift_;
  ThreadInfo& ti = tinfo_[static_cast<std::size_t>(thread_id)];
  ++counters_.accesses;
  if (write) ++counters_.writes;

  // Fast path: repeat access to a recently-touched line — no set scan, no
  // coherence work. The memos are precise (see memo_drop), so a match
  // proves residency; the range memo covers re-swept buffers, the per-line
  // ways cover interleaved read/write streams.
  if (memo_enabled_) {
    // The direct-mapped slot is checked first: on the sort kernels it
    // absorbs the overwhelming majority of accesses (every element touch
    // after the first on a line), while whole-buffer range hits are rare.
    RangeMemo& rm = range_memo_[static_cast<std::size_t>(thread_id)];
    const std::size_t slot = line & (kMemoSlots - 1);
    const std::uint64_t e =
        memo_[static_cast<std::size_t>(thread_id)].entry[slot];
    if ((e >> 1) == line && (!write || (e & 1) != 0)) {
      // A memo hit still proves residency, so let it feed the stream
      // detector — otherwise recently-touched lines punch holes in the
      // streak and starve range promotion.
      extend_streak(rm, line, write);
      ++counters_.level[static_cast<std::size_t>(ti.inner_depth)].hits;
      return ti.hit_cycles[0];
    }
    if (line >= rm.lo && line < rm.hi && (!write || rm.wrote != 0)) {
      ++counters_.level[static_cast<std::size_t>(ti.inner_depth)].hits;
      return ti.hit_cycles[0];
    }
  }
  return access_slow(ti, thread_id, line, write, now);
}

inline std::uint64_t MemorySystem::access_range(int thread_id,
                                                std::uint64_t addr,
                                                std::uint64_t bytes,
                                                bool write,
                                                std::uint64_t now) {
  if (bytes == 0) return 0;
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t last = (addr + bytes - 1) >> line_shift_;
  if (first == last) return access(thread_id, addr, write, now);
  return access_range_multi(thread_id, first, last, write, now);
}

}  // namespace sbs::sim
