#include "sim/cache.h"

#include <algorithm>

namespace sbs::sim {

Cache::Cache(std::uint64_t size_bytes, std::uint32_t line_bytes,
             std::uint32_t assoc, const CacheOptions& options)
    : assoc_(assoc) {
  SBS_CHECK(size_bytes > 0 && line_bytes > 0);
  const std::uint64_t lines = size_bytes / line_bytes;
  if (assoc_ == 0 || assoc_ >= lines) {
    assoc_ = static_cast<std::uint32_t>(lines);  // fully associative
  }
  num_sets_ = lines / assoc_;
  SBS_CHECK_MSG(num_sets_ * assoc_ == lines,
                "cache lines must divide evenly into sets");
  SBS_CHECK_MSG((num_sets_ & (num_sets_ - 1)) == 0,
                "number of cache sets must be a power of two");
  tags_.assign(num_sets_ * assoc_, 0);
  meta_.assign(num_sets_ * assoc_, Meta{});

  const std::uint64_t tag_bytes = num_sets_ * assoc_ * sizeof(std::uint64_t);
  filter_on_ =
      options.presence_filter && tag_bytes >= options.filter_min_tag_bytes;
  if (filter_on_) filter_.assign(num_sets_, 0);
}

bool Cache::probe_and_touch(std::uint64_t line, bool mark_dirty,
                            std::uint8_t* flags, std::uint16_t* holders) {
  const std::uint64_t h = hash_of(line);
  const std::uint64_t set = set_of_hash(h);
  if (filter_on_ && filter_absent(set, bucket_of_hash(h))) {
    ++filter_skips_;
    return false;
  }
  std::uint64_t* tags = tags_at(set);
  const int w = find_way(tags, key_of(line));
  if (w < 0) return false;
  Meta* meta = meta_at(set);
  if (mark_dirty) meta[w].dirty = 1;
  if (flags != nullptr) *flags = meta[w].flags;
  if (holders != nullptr) *holders = meta[w].holders;
  if (w > 0) rotate_to_front(tags, meta, static_cast<std::uint32_t>(w));
  return true;
}

void Cache::insert_line(std::uint64_t set, std::uint64_t* tags, Meta* meta,
                        std::uint64_t line, bool dirty, std::uint8_t flags,
                        Evicted* out) {
  *out = Evicted{};
  // Victim = the LRU way (back). If any way is invalid the set is not
  // full, and the back way is one of them: invalid ways sink to the back
  // on invalidate().
  const std::uint64_t vt = tags[assoc_ - 1];
  if (vt != 0) {
    out->valid = true;
    out->line = vt >> 1;
    out->dirty = meta[assoc_ - 1].dirty != 0;
    out->holders = meta[assoc_ - 1].holders;
    if (filter_on_) filter_sub(set, out->line);
    --resident_;
  }
  for (std::uint32_t i = assoc_ - 1; i > 0; --i) {
    tags[i] = tags[i - 1];
    meta[i] = meta[i - 1];
  }
  tags[0] = key_of(line);
  meta[0] = Meta{0, static_cast<std::uint8_t>(dirty ? 1 : 0), flags};
  if (filter_on_) filter_add(set, line);
  ++resident_;
}

Cache::Evicted Cache::fill(std::uint64_t line, bool dirty,
                           std::uint8_t flags) {
  const std::uint64_t set = set_index(line);
  SBS_ASSERT(!contains(line));
  Evicted out;
  insert_line(set, tags_at(set), meta_at(set), line, dirty, flags, &out);
  return out;
}

bool Cache::set_flags(std::uint64_t line, std::uint8_t flags) {
  const std::uint64_t set = set_index(line);
  const int w = find_way(tags_at(set), key_of(line));
  if (w < 0) return false;
  meta_at(set)[w].flags = flags;
  return true;
}

int Cache::mark_shared(std::uint64_t line, std::uint8_t bits,
                       std::uint8_t* old_flags) {
  const std::uint64_t set = set_index(line);
  const int w = find_way(tags_at(set), key_of(line));
  if (w < 0) return -1;
  Meta& m = meta_at(set)[w];
  if (old_flags != nullptr) *old_flags = m.flags;
  m.flags |= bits;
  if (bits & kFlagCrossShared) m.flags &= ~kFlagCrossUnknown;
  return m.holders;
}

bool Cache::invalidate(std::uint64_t line, bool* was_dirty,
                       std::uint16_t* holders) {
  const std::uint64_t h = hash_of(line);
  const std::uint64_t set = set_of_hash(h);
  if (filter_on_ && filter_absent(set, bucket_of_hash(h))) {
    // Coherence and back-invalidation sweeps descend conservative holder
    // masks, so probing a cache that does not hold the line is routine —
    // the filter answers it without the tag scan.
    ++filter_skips_;
    return false;
  }
  std::uint64_t* tags = tags_at(set);
  const int w = find_way(tags, key_of(line));
  if (w < 0) return false;
  Meta* meta = meta_at(set);
  if (was_dirty != nullptr) *was_dirty = meta[w].dirty != 0;
  if (holders != nullptr) *holders = meta[w].holders;
  // Shift the tail up so invalid ways stay at the back (LRU end).
  for (std::uint32_t i = static_cast<std::uint32_t>(w); i + 1 < assoc_; ++i) {
    tags[i] = tags[i + 1];
    meta[i] = meta[i + 1];
  }
  tags[assoc_ - 1] = 0;
  meta[assoc_ - 1] = Meta{};
  if (filter_on_) filter_sub(set, line);
  --resident_;
  return true;
}

std::uint16_t Cache::set_holder_bit(std::uint64_t line, std::uint32_t bit) {
  const std::uint64_t set = set_index(line);
  const int w = find_way(tags_at(set), key_of(line));
  SBS_CHECK_MSG(w >= 0, "set_holder_bit on a non-resident line (inclusion)");
  Meta& m = meta_at(set)[w];
  const std::uint16_t old = m.holders;
  m.holders = old | static_cast<std::uint16_t>(1u << bit);
  return old;
}

std::uint16_t* Cache::holder_mask(std::uint64_t line) {
  const std::uint64_t set = set_index(line);
  const int w = find_way(tags_at(set), key_of(line));
  return w < 0 ? nullptr : &meta_at(set)[w].holders;
}

bool Cache::contains(std::uint64_t line) const {
  const std::uint64_t h = hash_of(line);
  const std::uint64_t set = set_of_hash(h);
  if (filter_on_ && filter_absent(set, bucket_of_hash(h))) return false;
  return find_way(tags_at(set), key_of(line)) >= 0;
}

void Cache::clear() {
  // Invalid ways are (0, Meta{}) and sink to the back, so a set whose way
  // 0 is invalid holds no line and is already clear. With a filter, a zero
  // presence word proves the same from one sequential read per set; a
  // word left nonzero by a saturated bucket only costs a redundant clear.
  for (std::uint64_t set = 0; set < num_sets_; ++set) {
    if (filter_on_ ? filter_[set] == 0 : tags_at(set)[0] == 0) continue;
    std::fill_n(tags_at(set), assoc_, 0);
    std::fill_n(meta_at(set), assoc_, Meta{});
    if (filter_on_) filter_[set] = 0;
  }
  resident_ = 0;
  filter_skips_ = 0;
}

}  // namespace sbs::sim
