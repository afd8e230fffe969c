#include "sim/memory_system.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"

namespace sbs::sim {

namespace {
constexpr int kMaxCacheDepth = 7;  // ThreadInfo path arrays have 8 slots
constexpr int kMaxShards = SocketSet::kMaxSockets;
/// Outstanding-miss overlap: an isolated miss costs dram_latency / kMlp.
constexpr double kMlp = 4.0;
/// Extra cycles when the home socket is not the accessor's (a QPI hop on
/// the paper's machine).
constexpr std::uint64_t kRemotePenaltyCycles = 60;
}  // namespace

MemorySystem::MemorySystem(const machine::Topology& topo, MemoryParams params)
    : topo_(topo), params_(std::move(params)) {
  const machine::MachineConfig& cfg = topo.config();
  SBS_CHECK_MSG(topo.num_cache_levels() <= kMaxCacheDepth,
                "simulator supports at most 7 cache levels");

  line_bytes_ = cfg.levels.back().line;
  for (const auto& lvl : cfg.levels) {
    SBS_CHECK_MSG(lvl.line == line_bytes_,
                  "simulator requires a uniform line size across levels");
  }
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes_));
  innermost_depth_ = topo.num_cache_levels();
  page_lines_shift_ = static_cast<std::uint64_t>(
      std::countr_zero(cfg.page_bytes / line_bytes_));

  const int leaf_depth = topo.leaf_depth();

  // One Cache per cache node (depths 1..L), plus the per-node precomputation
  // the hot paths use instead of Topology queries.
  const int n_nodes = topo.num_nodes();
  caches_.resize(static_cast<std::size_t>(n_nodes));
  node_depth_.assign(static_cast<std::size_t>(n_nodes), -1);
  node_shard_.assign(static_cast<std::size_t>(n_nodes), -1);
  child_first_.assign(static_cast<std::size_t>(n_nodes), 0);
  child_count_.assign(static_cast<std::size_t>(n_nodes), 0);
  node_mask_ok_.assign(static_cast<std::size_t>(n_nodes), 0);
  inner_first_thread_.assign(static_cast<std::size_t>(n_nodes), -1);
  inner_thread_count_.assign(static_cast<std::size_t>(n_nodes), 0);

  const std::vector<int> sockets = topo.nodes_at_depth(1);
  const int n_shards = static_cast<int>(sockets.size());
  SBS_CHECK_MSG(n_shards >= 1 && n_shards <= kMaxShards,
                "simulator supports 1..1024 sockets");
  const int first_socket_id = sockets.front();
  socket_node_.assign(sockets.begin(), sockets.end());

  for (int id = 0; id < n_nodes; ++id) {
    const machine::Node& node = topo.node(id);
    node_depth_[static_cast<std::size_t>(id)] = node.depth;
    child_first_[static_cast<std::size_t>(id)] = node.first_child;
    child_count_[static_cast<std::size_t>(id)] = node.num_children;
    node_mask_ok_[static_cast<std::size_t>(id)] = node.num_children <= 16;
    if (node.depth < 1) continue;
    node_shard_[static_cast<std::size_t>(id)] =
        topo.ancestor_at_depth(id, 1) - first_socket_id;
    if (node.depth < leaf_depth) {
      const machine::LevelSpec& lvl = topo.level_of(id);
      caches_[static_cast<std::size_t>(id)] =
          std::make_unique<Cache>(lvl.size, lvl.line, lvl.assoc,
                                  params_.cache);
    }
  }

  // Flattened per-thread paths, innermost cache first.
  const int n_threads = topo.num_threads();
  tinfo_.resize(static_cast<std::size_t>(n_threads));
  memo_.assign(static_cast<std::size_t>(n_threads), Memo{});
  range_memo_.assign(static_cast<std::size_t>(n_threads), RangeMemo{});
  last_miss_line_.assign(static_cast<std::size_t>(n_threads),
                         ~std::uint64_t{0});
  memo_enabled_ = innermost_depth_ >= 1 && n_threads > 0;
  for (int t = 0; t < n_threads; ++t) {
    ThreadInfo& ti = tinfo_[static_cast<std::size_t>(t)];
    ti.leaf_id = topo.leaf_of_thread(t);
    ti.inner_depth = innermost_depth_;
    for (int id = topo.node(ti.leaf_id).parent; topo.node(id).depth >= 1;
         id = topo.node(id).parent) {
      const std::size_t i = static_cast<std::size_t>(ti.path_len++);
      ti.node[i] = id;
      ti.depth[i] = node_depth_[static_cast<std::size_t>(id)];
      ti.hit_cycles[i] = topo.level_of(id).hit_cycles;
      ti.cache[i] = caches_[static_cast<std::size_t>(id)].get();
    }
    for (int i = 0; i + 1 < ti.path_len; ++i) {
      const int parent = ti.node[static_cast<std::size_t>(i + 1)];
      ti.slot[static_cast<std::size_t>(i)] =
          node_mask_ok_[static_cast<std::size_t>(parent)]
              ? static_cast<std::uint8_t>(
                    ti.node[static_cast<std::size_t>(i)] -
                    child_first_[static_cast<std::size_t>(parent)])
              : std::uint8_t{0xFF};
    }
    if (ti.path_len > 0) {
      const int inner = ti.node[0];
      ti.shard = node_shard_[static_cast<std::size_t>(inner)];
      // Threads below one innermost cache are contiguous (breadth-first
      // leaf ids), so a (first, count) pair addresses its memo owners.
      std::int32_t& first = inner_first_thread_[static_cast<std::size_t>(inner)];
      if (first < 0) first = t;
      ++inner_thread_count_[static_cast<std::size_t>(inner)];
    } else {
      memo_enabled_ = false;
    }
  }

  socket_next_free_.assign(static_cast<std::size_t>(n_shards), 0);
  if (params_.allowed_sockets.empty()) {
    for (int s = 0; s < n_shards; ++s) params_.allowed_sockets.push_back(s);
  }
  for (int s : params_.allowed_sockets)
    SBS_CHECK_MSG(s >= 0 && s < n_shards, "allowed socket out of range");

  transfer_cycles_ =
      static_cast<double>(line_bytes_) / cfg.socket_bytes_per_cycle;
  isolated_miss_cycles_ = static_cast<std::uint64_t>(
      static_cast<double>(cfg.dram_latency_cycles) / kMlp);
  counters_.level.resize(static_cast<std::size_t>(leaf_depth));

  shards_.resize(static_cast<std::size_t>(n_shards));
  for (Shard& sh : shards_)
    sh.link_view.assign(static_cast<std::size_t>(n_shards), 0);
  link_used_.assign(static_cast<std::size_t>(n_shards), 0);
}

int MemorySystem::home_socket(std::uint64_t line) const {
  const std::uint64_t page = line >> page_lines_shift_;
  return params_.allowed_sockets[page % params_.allowed_sockets.size()];
}

namespace {
/// Remove `line` from the run [*lo, *hi), keeping the larger remnant.
inline void shrink_range(std::uint64_t line, std::uint64_t* lo,
                         std::uint64_t* hi) {
  if (line < *lo || line >= *hi) return;
  if (line - *lo < *hi - 1 - line) {
    *lo = line + 1;
  } else {
    *hi = line;
  }
}
}  // namespace

void MemorySystem::memo_drop(int inner_node, std::uint64_t line) {
  const int first = inner_first_thread_[static_cast<std::size_t>(inner_node)];
  const int cnt = inner_thread_count_[static_cast<std::size_t>(inner_node)];
  const std::size_t slot = line & (kMemoSlots - 1);
  for (int t = first; t < first + cnt; ++t) {
    Memo& memo = memo_[static_cast<std::size_t>(t)];
    if ((memo.entry[slot] >> 1) == line) {
      memo.entry[slot] = ~std::uint64_t{0};
    }
    RangeMemo& rm = range_memo_[static_cast<std::size_t>(t)];
    shrink_range(line, &rm.lo, &rm.hi);
    shrink_range(line, &rm.cand_lo, &rm.cand_hi);
  }
}

void MemorySystem::share_children(int node_id, std::uint32_t mask,
                                  std::uint64_t line, std::uint8_t bits,
                                  std::uint8_t stop_bits) {
  const int first = child_first_[static_cast<std::size_t>(node_id)];
  const int cnt = child_count_[static_cast<std::size_t>(node_id)];
  if (cnt == 0 || caches_[static_cast<std::size_t>(first)] == nullptr)
    return;  // children are hardware-thread leaves
  const auto visit = [&](int c) {
    std::uint8_t old = 0;
    const int holders =
        caches_[static_cast<std::size_t>(c)]->mark_shared(line, bits, &old);
    if (holders < 0) return;           // stale holder bit
    if ((old & stop_bits) != 0) return;  // see share_socket
    if (node_depth_[static_cast<std::size_t>(c)] != innermost_depth_) {
      share_children(c, static_cast<std::uint32_t>(holders), line, bits,
                     stop_bits);
    }
  };
  if (node_mask_ok_[static_cast<std::size_t>(node_id)]) {
    for (std::uint32_t m = mask; m != 0; m &= m - 1) {
      visit(first + std::countr_zero(m));
    }
  } else {
    for (int c = first; c < first + cnt; ++c) visit(c);
  }
}

void MemorySystem::share_socket(int shard, std::uint64_t line,
                                std::uint8_t bits, std::uint8_t stop_bits) {
  // `stop_bits`: if the visited way already carries any of these, its whole
  // subtree does too, so descent stops. Cross marking passes
  // CrossShared|CrossUnknown — sound because cross bits are *sticky* (fills
  // inherit them and writes never clear them), so a non-exclusive root can
  // never hide an exclusive descendant. Sock marking passes 0 (full
  // descent): a write resets only the writer's innermost way, so a stale
  // sock-shared ancestor can sit above a sock-exclusive leaf.
  const int socket = socket_node_[static_cast<std::size_t>(shard)];
  std::uint8_t old = 0;
  const int holders =
      caches_[static_cast<std::size_t>(socket)]->mark_shared(line, bits, &old);
  if (holders < 0) return;   // already evicted (directory bit lags a window)
  if ((old & stop_bits) != 0) return;
  if (innermost_depth_ != 1) {
    share_children(socket, static_cast<std::uint32_t>(holders), line, bits,
                   stop_bits);
  }
}

std::uint64_t MemorySystem::use_link(int shard, int home, std::uint64_t now) {
  std::uint64_t& next_free =
      shards_[static_cast<std::size_t>(shard)]
          .link_view[static_cast<std::size_t>(home)];
  const std::uint64_t wait = next_free > now ? next_free - now : 0;
  const auto transfer = static_cast<std::uint64_t>(transfer_cycles_);
  next_free = std::max(next_free, now) + transfer;
  link_used_[static_cast<std::size_t>(home)] += transfer;
  link_touched_ = true;
  return wait;
}

std::uint64_t MemorySystem::access_slow(ThreadInfo& ti, int thread_id,
                                        std::uint64_t line, bool write,
                                        std::uint64_t now) {
  // Start the outermost level's tag load now: its array is far larger than
  // the host cache, so by the time the inner probes miss, the line the L-1
  // probe needs is already in flight. (Inner tag arrays are small enough to
  // stay host-resident — prefetching them measured as pure overhead.)
  if (ti.path_len > 1) {
    ti.cache[static_cast<std::size_t>(ti.path_len - 1)]->prefetch(line);
  }

  // Probe inside-out. Dirtiness is tracked at the innermost level holding
  // the line and propagates outward on eviction.
  std::uint64_t cost = 0;
  int hit = -1;
  std::uint8_t hflags = 0;
  std::uint16_t hholders = 0;
  for (int i = 0; i < ti.path_len; ++i) {
    if (ti.cache[static_cast<std::size_t>(i)]->probe_and_touch(
            line, write && i == 0, &hflags, &hholders)) {
      hit = i;
      break;
    }
    ++counters_
          .level[static_cast<std::size_t>(
              ti.depth[static_cast<std::size_t>(i)])]
          .misses;
  }

  std::uint8_t flags = 0;
  if (hit >= 0) {
    ++counters_
          .level[static_cast<std::size_t>(
              ti.depth[static_cast<std::size_t>(hit)])]
          .hits;
    if (hit > 0) {
      // Fill the inner levels we missed in (inclusive hierarchy). The new
      // ways' flags derive from the hit way: they inherit its cross state,
      // and are sock-shared if it is, or if other branches hang off it (the
      // untrackable-mask fallback is conservatively shared).
      const std::uint8_t myslot = ti.slot[static_cast<std::size_t>(hit - 1)];
      const bool sock =
          (hflags & Cache::kFlagSockShared) != 0 || myslot == 0xFF ||
          (hholders & ~(1u << myslot)) != 0;
      flags = static_cast<std::uint8_t>(
          (hflags & (Cache::kFlagCrossShared | Cache::kFlagCrossUnknown)) |
          (sock ? Cache::kFlagSockShared : 0));
      flags = fill_path(ti, line, write, hit - 1, now, flags);
    } else {
      flags = hflags;
    }
    cost = ti.hit_cycles[static_cast<std::size_t>(hit)];
  } else {
    // Miss everywhere: fetch from the home socket's memory link.
    const int home = home_socket(line);
    const std::uint64_t wait = use_link(ti.shard, home, now);
    counters_.queue_wait_cycles += wait;
    ++counters_.dram_reads;

    std::uint64_t latency = 0;
    std::uint64_t& last = last_miss_line_[static_cast<std::size_t>(thread_id)];
    if (line != last + 1) {  // not a prefetchable streak
      latency = isolated_miss_cycles_;
    }
    last = line;
    if (home != ti.shard) {
      latency += kRemotePenaltyCycles;
      ++counters_.remote_dram_accesses;
    }

    flags = fill_path(ti, line, write, ti.path_len - 1, now, 0);
    cost = wait + static_cast<std::uint64_t>(transfer_cycles_) + latency;
  }

  if (write && flags != 0) {
    // Some copy may live outside our path: sweep, then clear the innermost
    // way's sock bit (the sweep verified the socket is ours alone). Cross
    // bits stay — they are sticky by design (see share_socket), and repeat
    // writes are memo-absorbed anyway.
    write_invalidate(ti, line, flags);
    ti.cache[0]->set_flags(
        line, flags & (Cache::kFlagCrossShared | Cache::kFlagCrossUnknown));
  }

  if (memo_enabled_) {
    // Insert (or refresh) the direct-mapped slot; a write-after-read
    // upgrade keeps the old dirty knowledge via the OR.
    std::uint64_t& e =
        memo_[static_cast<std::size_t>(thread_id)]
            .entry[line & (kMemoSlots - 1)];
    const std::uint64_t w =
        (write ? 1u : 0u) | ((e >> 1) == line ? (e & 1) : 0u);
    e = (line << 1) | w;
    extend_streak(range_memo_[static_cast<std::size_t>(thread_id)], line,
                  write);
  }
  return cost;
}

std::uint64_t MemorySystem::access_range_multi(int thread_id,
                                               std::uint64_t first,
                                               std::uint64_t last, bool write,
                                               std::uint64_t now) {
  if (memo_enabled_) {
    // Whole-range absorb: a re-sweep of a buffer the range memo proves
    // innermost-resident is one compare and a bulk counter update.
    const RangeMemo& rm = range_memo_[static_cast<std::size_t>(thread_id)];
    if (first >= rm.lo && last < rm.hi && (!write || rm.wrote != 0)) {
      const ThreadInfo& ti = tinfo_[static_cast<std::size_t>(thread_id)];
      const std::uint64_t n = last - first + 1;
      counters_.accesses += n;
      if (write) counters_.writes += n;
      counters_.level[static_cast<std::size_t>(ti.inner_depth)].hits += n;
      return n * ti.hit_cycles[0];
    }
  }
  std::uint64_t cost = 0;
  for (std::uint64_t line = first; line <= last; ++line) {
    cost += access(thread_id, line << line_shift_, write, now + cost);
  }
  return cost;
}

std::uint8_t MemorySystem::fill_path(const ThreadInfo& ti, std::uint64_t line,
                                     bool write, int from_index,
                                     std::uint64_t now, std::uint8_t flags) {
  // Fill outermost-first so inclusion always holds. Every level in
  // [0, from_index] was probed and missed by the caller, and handling an
  // eviction at an outer level never inserts this line anywhere, so the
  // unchecked fill (no probe scan) is safe.
  for (int i = from_index; i >= 0; --i) {
    if (ti.depth[static_cast<std::size_t>(i)] == 1) {
      // DRAM fill of the outermost level: by inclusion nothing in this
      // socket holds the line (we would have hit), so sock-exclusive. With
      // one socket nothing is ever cross; otherwise the directory is
      // read-only until the barrier, so start cross-unknown (a later write
      // posts an outbox event regardless) and record the fill.
      flags = 0;
      if (shards_.size() > 1) {
        sd_delta_.push_back(SdDelta{line, ti.shard, true});
        flags = Cache::kFlagCrossUnknown;
      }
    }
    const Cache::Evicted evicted =
        ti.cache[static_cast<std::size_t>(i)]->fill(line, write && i == 0,
                                                    flags);
    if (evicted.valid)
      handle_eviction(ti.node[static_cast<std::size_t>(i)], evicted, now);
    // Flag this branch in the parent's holder mask (the parent holds the
    // line — it sits above us on the just-filled path).
    if (i + 1 < ti.path_len && ti.slot[static_cast<std::size_t>(i)] != 0xFF) {
      const std::uint16_t old =
          ti.cache[static_cast<std::size_t>(i + 1)]->set_holder_bit(
              line, ti.slot[static_cast<std::size_t>(i)]);
      // Joining existing holders at the hit boundary makes them shared.
      // (Deeper parents are fresh fills whose only holder is us, and a
      // write is about to sweep those siblings out anyway.)
      if (i == from_index && !write) {
        const std::uint16_t others = static_cast<std::uint16_t>(
            old & ~(1u << ti.slot[static_cast<std::size_t>(i)]));
        if (others != 0) {
          share_children(ti.node[static_cast<std::size_t>(i + 1)], others,
                         line, Cache::kFlagSockShared, /*stop_bits=*/0);
        }
      }
    } else if (i + 1 < ti.path_len && i == from_index && !write) {
      // Untrackable parent mask: mark every sibling subtree conservatively.
      share_children(ti.node[static_cast<std::size_t>(i + 1)], 0xFFFF, line,
                     Cache::kFlagSockShared, /*stop_bits=*/0);
    }
  }
  return flags;
}

void MemorySystem::invalidate_children(int node_id, std::uint32_t mask,
                                       std::uint64_t line, bool* dirty,
                                       bool coherence) {
  const int first = child_first_[static_cast<std::size_t>(node_id)];
  const int cnt = child_count_[static_cast<std::size_t>(node_id)];
  if (cnt == 0 || caches_[static_cast<std::size_t>(first)] == nullptr)
    return;  // children are hardware-thread leaves
  const auto visit = [&](int c) {
    bool inner_dirty = false;
    std::uint16_t cmask = 0;
    if (!caches_[static_cast<std::size_t>(c)]->invalidate(line, &inner_dirty,
                                                          &cmask)) {
      return;  // stale holder bit — the child evicted the line on its own
    }
    *dirty = *dirty || inner_dirty;
    const int d = node_depth_[static_cast<std::size_t>(c)];
    LevelCounters& lc = counters_.level[static_cast<std::size_t>(d)];
    if (coherence) {
      ++lc.coherence_invalidations;
    } else {
      ++lc.back_invalidations;
    }
    if (d == innermost_depth_) {
      memo_drop(c, line);
    } else {
      invalidate_children(c, cmask, line, dirty, coherence);
    }
  };
  if (node_mask_ok_[static_cast<std::size_t>(node_id)]) {
    for (std::uint32_t m = mask; m != 0; m &= m - 1) {
      visit(first + std::countr_zero(m));
    }
  } else {
    for (int c = first; c < first + cnt; ++c) visit(c);
  }
}

void MemorySystem::handle_eviction(int node_id, const Cache::Evicted& evicted,
                                   std::uint64_t now) {
  const int depth = node_depth_[static_cast<std::size_t>(node_id)];
  ++counters_.level[static_cast<std::size_t>(depth)].evictions;

  bool dirty = evicted.dirty;
  if (depth == innermost_depth_) {
    memo_drop(node_id, evicted.line);
  } else {
    // Inclusive hierarchy: evicting here back-invalidates every descendant
    // copy; a dirty inner copy dirties the outgoing line. The victim way's
    // holder mask names the children that may hold it.
    invalidate_children(node_id, evicted.holders, evicted.line, &dirty,
                        /*coherence=*/false);
  }

  if (depth == 1) {
    const int shard = node_shard_[static_cast<std::size_t>(node_id)];
    if (shards_.size() > 1)
      sd_delta_.push_back(SdDelta{evicted.line, shard, false});
    // Leaving the outermost cache: dirty lines are written back to memory,
    // consuming home-link bandwidth (asynchronously: no core stall).
    if (dirty) {
      use_link(shard, home_socket(evicted.line), now);
      ++counters_.dram_writebacks;
    }
  } else if (dirty) {
    // Propagate dirtiness to the parent cache, which holds the line by
    // inclusion (unless a concurrent parent eviction raced it out — then the
    // line is already on its way to memory via that eviction's handling).
    const int parent = topo_.node(node_id).parent;
    caches_[static_cast<std::size_t>(parent)]->probe_and_touch(evicted.line,
                                                               true);
  }
}

void MemorySystem::write_invalidate(const ThreadInfo& ti, std::uint64_t line,
                                    std::uint8_t flags) {
  // Copies inside our own socket, outside our own path: walk the path
  // outermost-in and sweep the sibling subtrees hanging off each path node,
  // consulting each path cache's holder mask. The caller's sock-shared flag
  // already proved a line with no such copies needs no sweep at all, so
  // reaching the loop means some mask is worth reading.
  for (int i = (flags & Cache::kFlagSockShared) ? ti.path_len - 1 : 0; i >= 1;
       --i) {
    const int parent = ti.node[static_cast<std::size_t>(i)];
    const int first = child_first_[static_cast<std::size_t>(parent)];
    const int cnt = child_count_[static_cast<std::size_t>(parent)];
    if (cnt <= 1) continue;  // only my own branch hangs off this node
    const auto sweep = [&](int c) {
      std::uint16_t cmask = 0;
      if (!caches_[static_cast<std::size_t>(c)]->invalidate(line, nullptr,
                                                            &cmask)) {
        return;  // stale holder bit
      }
      const int d = node_depth_[static_cast<std::size_t>(c)];
      ++counters_.level[static_cast<std::size_t>(d)].coherence_invalidations;
      if (d == innermost_depth_) {
        memo_drop(c, line);
      } else {
        bool ignored = false;
        invalidate_children(c, cmask, line, &ignored, /*coherence=*/true);
      }
    };
    const std::uint8_t myslot = ti.slot[static_cast<std::size_t>(i - 1)];
    if (myslot != 0xFF) {
      // The path cache holds the line (inclusion), so its mask exists.
      std::uint16_t* mp =
          ti.cache[static_cast<std::size_t>(i)]->holder_mask(line);
      SBS_ASSERT(mp != nullptr);
      const std::uint16_t others =
          static_cast<std::uint16_t>(*mp & ~(1u << myslot));
      for (std::uint32_t m = others; m != 0; m &= m - 1) {
        sweep(first + std::countr_zero(m));
      }
      // Every flagged sibling is now verified gone (invalidated or stale):
      // scrub the bits so the next write is mask-read only. `mp` is still
      // valid — sibling invalidations never touch this cache's sets.
      *mp = static_cast<std::uint16_t>(*mp & ~others);
    } else {
      const int me = ti.node[static_cast<std::size_t>(i - 1)];
      for (int c = first; c < first + cnt; ++c) {
        if (c != me) sweep(c);
      }
    }
  }

  // Copies in other sockets. Cross-exclusive lines — the overwhelming
  // majority — already skipped this via the flags gate in access(). The
  // event is deferred to the barrier without consulting the directory
  // (cross-unknown lines may post a redundant event; the barrier lookup
  // resolves it).
  if ((flags & (Cache::kFlagCrossShared | Cache::kFlagCrossUnknown)) != 0)
    outbox_.push_back(InvalEvent{line, ti.shard});
}

bool MemorySystem::apply_remote_invalidate(int victim_shard,
                                           std::uint64_t line) {
  // The victim's outermost cache holds every copy below it (inclusion), so
  // one probe decides whether any sweep is needed at all. Remote dirty
  // copies are dropped without a writeback (the writer supplies the data).
  const int socket = socket_node_[static_cast<std::size_t>(victim_shard)];
  Cache* sc = caches_[static_cast<std::size_t>(socket)].get();
  std::uint16_t cmask = 0;
  if (!sc->invalidate(line, nullptr, &cmask)) return false;
  ++counters_.level[1].coherence_invalidations;
  if (innermost_depth_ == 1) {
    memo_drop(socket, line);
  } else {
    bool ignored = false;
    invalidate_children(socket, cmask, line, &ignored, /*coherence=*/true);
  }
  return true;
}

bool MemorySystem::merge_window() {
  if (sd_delta_.empty() && outbox_.empty() && !link_touched_) return false;
  // Every event comes from the window just run, whose shards ran in index
  // order, so append order is shard order.
  //
  // 1. Sharing-directory updates: after this, sharing_ reflects
  //    end-of-window outermost-cache residency. A fill that joins existing
  //    holders is where cross-socket sharing is first discovered, so the
  //    other holders' subtrees are marked here (idempotent — share_socket
  //    stops at an already-marked root). The directory table is far larger
  //    than the host cache, so lookups are pipelined with a prefetch
  //    lookahead.
  const std::size_t nd = sd_delta_.size();
  for (std::size_t k = 0; k < nd; ++k) {
    if (k + 8 < nd) sharing_.prefetch(sd_delta_[k + 8].line);
    const SdDelta& d = sd_delta_[k];
    if (d.fill) {
      SocketSet& holders = sharing_[d.line];
      const bool others = holders.any_other(d.shard);
      holders.set(d.shard);
      if (others) {
        // The other holders — possibly marked exclusive — learn of the
        // join. The filler's own ways are fresh cross-unknown fills and
        // already behave conservatively, so only the others need a walk,
        // and it short-circuits at any already-non-exclusive root.
        holders.for_each_other(d.shard, [&](int other) {
          share_socket(other, d.line, Cache::kFlagCrossShared,
                       Cache::kFlagCrossShared | Cache::kFlagCrossUnknown);
        });
      }
    } else {
      SocketSet* holders = sharing_.find(d.line);
      if (holders != nullptr) {
        holders->reset(d.shard);
        if (holders->none()) sharing_.erase(d.line);
      }
    }
  }
  sd_delta_.clear();
  // 2. Cross-shard write-invalidations. Most events come from
  //    cross-unknown writers and resolve to "no other holder".
  const std::size_t ni = outbox_.size();
  for (std::size_t k = 0; k < ni; ++k) {
    if (k + 8 < ni) sharing_.prefetch(outbox_[k + 8].line);
    const InvalEvent& ev = outbox_[k];
    SocketSet* sd = sharing_.find(ev.line);
    if (sd == nullptr) continue;
    sd->for_each_other(ev.writer_shard, [&](int victim) {
      apply_remote_invalidate(victim, ev.line);
    });
    sd->clear_others(ev.writer_shard);
    if (sd->none()) sharing_.erase(ev.line);
  }
  outbox_.clear();
  // 3. Link views: each shard served its requests privately from the same
  //    committed baseline. The merged link frees no earlier than any
  //    shard's local estimate (requests end when the last one finishes) and
  //    no earlier than serving every shard's actual consumption back to
  //    back from the baseline (full backlog when oversubscribed). Idle gaps
  //    a view skipped over with max(view, now) are *not* consumption —
  //    summing raw view advances would compound those gaps shard-fold every
  //    window and run the link away from the clocks.
  for (std::size_t h = 0; h < socket_next_free_.size(); ++h) {
    std::uint64_t next = socket_next_free_[h] + link_used_[h];
    for (const Shard& sh : shards_) next = std::max(next, sh.link_view[h]);
    socket_next_free_[h] = next;
    for (Shard& sh : shards_) sh.link_view[h] = next;
    link_used_[h] = 0;
  }
  link_touched_ = false;
  return true;
}

std::uint64_t MemorySystem::resident_lines(int node_id) const {
  const auto& cache = caches_[static_cast<std::size_t>(node_id)];
  return cache ? cache->resident_lines() : 0;
}

std::uint64_t MemorySystem::filter_skips_total() const {
  std::uint64_t total = 0;
  for (const auto& cache : caches_) {
    if (cache) total += cache->filter_skips();
  }
  return total;
}

void MemorySystem::reset() {
  for (auto& cache : caches_) {
    if (cache) cache->clear();
  }
  sharing_.clear();
  std::fill(socket_next_free_.begin(), socket_next_free_.end(), 0);
  std::fill(last_miss_line_.begin(), last_miss_line_.end(), ~std::uint64_t{0});
  std::fill(memo_.begin(), memo_.end(), Memo{});
  std::fill(range_memo_.begin(), range_memo_.end(), RangeMemo{});
  counters_ = Counters{};
  counters_.level.resize(static_cast<std::size_t>(topo_.leaf_depth()));
  for (Shard& sh : shards_)
    std::fill(sh.link_view.begin(), sh.link_view.end(), 0);
  sd_delta_.clear();
  outbox_.clear();
  std::fill(link_used_.begin(), link_used_.end(), 0);
  link_touched_ = false;
}

}  // namespace sbs::sim
