// Unit + property tests for the set-associative LRU cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "sim/cache.h"
#include "util/rng.h"

namespace sbs::sim {
namespace {

TEST(Cache, HitAfterFill) {
  Cache cache(/*size=*/1024, /*line=*/64, /*assoc=*/4);
  EXPECT_FALSE(cache.probe_and_touch(7, false));
  cache.fill(7, false);
  EXPECT_TRUE(cache.probe_and_touch(7, false));
  EXPECT_EQ(cache.resident_lines(), 1u);
}

TEST(Cache, FullyAssociativeWhenAssocZero) {
  Cache cache(/*size=*/512, /*line=*/64, /*assoc=*/0);
  EXPECT_EQ(cache.associativity(), 8u);
  EXPECT_EQ(cache.num_sets(), 1u);
}

TEST(Cache, LruEvictionOrderFullyAssociative) {
  Cache cache(/*size=*/256, /*line=*/64, /*assoc=*/0);  // 4 lines, 1 set
  for (std::uint64_t l = 0; l < 4; ++l) cache.fill(l, false);
  // Touch 0 to make it MRU; the next fill must evict 1 (now LRU).
  EXPECT_TRUE(cache.probe_and_touch(0, false));
  const Cache::Evicted victim = cache.fill(99, false);
  ASSERT_TRUE(victim.valid);
  EXPECT_EQ(victim.line, 1u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
}

TEST(Cache, DirtyBitTravelsWithEviction) {
  Cache cache(/*size=*/128, /*line=*/64, /*assoc=*/0);  // 2 lines
  cache.fill(1, false);
  EXPECT_TRUE(cache.probe_and_touch(1, /*mark_dirty=*/true));
  cache.fill(2, false);
  const Cache::Evicted victim = cache.fill(3, false);  // evicts 1 (LRU)
  ASSERT_TRUE(victim.valid);
  EXPECT_EQ(victim.line, 1u);
  EXPECT_TRUE(victim.dirty);
}

TEST(Cache, InvalidateReportsDirtyAndFreesSlot) {
  Cache cache(/*size=*/256, /*line=*/64, /*assoc=*/4);
  cache.fill(5, true);
  bool dirty = false;
  EXPECT_TRUE(cache.invalidate(5, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_FALSE(cache.contains(5));
  EXPECT_EQ(cache.resident_lines(), 0u);
  EXPECT_FALSE(cache.invalidate(5, &dirty));
}

TEST(Cache, ClearEmptiesEverything) {
  Cache cache(/*size=*/1024, /*line=*/64, /*assoc=*/4);
  for (std::uint64_t l = 0; l < 10; ++l) cache.fill(l * 977, false);
  cache.clear();
  EXPECT_EQ(cache.resident_lines(), 0u);
  for (std::uint64_t l = 0; l < 10; ++l) EXPECT_FALSE(cache.contains(l * 977));
}

// A saturated filter bucket stays at 15 after its lines leave (sticky), so
// a set that holds no line can still have a nonzero presence word. clear()
// must reset it, or the next probe into that bucket scans the tags where a
// new cache skips them.
TEST(Cache, ClearResetsSaturatedFilterBucket) {
  CacheOptions options;
  options.filter_min_tag_bytes = 0;
  Cache cache(/*size=*/64 * 64, /*line=*/64, /*assoc=*/0, options);
  ASSERT_TRUE(cache.filter_enabled());
  // One set; 16 lines in filter bucket 0 (hash bits 28..31).
  std::vector<std::uint64_t> same_bucket;
  for (std::uint64_t line = 0; same_bucket.size() < 16; ++line) {
    if (((line * 0x9e3779b97f4a7c15ULL) >> 28 & 0xF) == 0)
      same_bucket.push_back(line);
  }
  for (const std::uint64_t line : same_bucket) cache.fill(line, false);
  bool dirty = false;
  for (const std::uint64_t line : same_bucket)
    EXPECT_TRUE(cache.invalidate(line, &dirty));
  EXPECT_EQ(cache.resident_lines(), 0u);
  EXPECT_FALSE(cache.probe_and_touch(same_bucket[0], false));
  EXPECT_EQ(cache.filter_skips(), 0u);  // sticky: the bucket says "maybe"
  cache.clear();
  EXPECT_FALSE(cache.probe_and_touch(same_bucket[0], false));
  EXPECT_EQ(cache.filter_skips(), 1u);
}

TEST(Cache, WorkingSetSmallerThanCacheNeverMisses) {
  // Classic property: with LRU and a working set ≤ capacity (fully
  // associative), every line faults exactly once.
  Cache cache(/*size=*/64 * 64, /*line=*/64, /*assoc=*/0);  // 64 lines
  int fills = 0;
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t l = 0; l < 64; ++l) {
      const std::uint64_t line = 1000 + (round % 2 ? 63 - l : l);
      if (!cache.probe_and_touch(line, false)) {
        cache.fill(line, false);
        ++fills;
      }
    }
  }
  EXPECT_EQ(fills, 64);
}

/// Property test: the cache must agree exactly with a reference model
/// (per-set std::list LRU) over a long random trace of probes, fills,
/// invalidations and clears. The model is the cache's only independent
/// check of its victim order, so the geometries include the preset L2/L3
/// associativities (16, 24). An invalidated line leaves a free way that
/// the next fill into its set must take before evicting any valid line.
/// A clear() must leave the cache indistinguishable from a new one: from
/// then on a fresh twin sees every operation too and must skip exactly the
/// same filtered tag scans. The filtered geometries draw their lines from
/// two filter buckets, so the 64-way set saturates a bucket, which stays
/// at 15 (sticky) until clear() resets it.
class CacheModelTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelTest,
    ::testing::Values(std::make_tuple(1, 64, false),   // direct-mapped
                      std::make_tuple(4, 64, false),   // 4-way, 16 sets
                      std::make_tuple(8, 64, false),   // 8-way, 8 sets
                      std::make_tuple(16, 64, false),  // 16-way, 4 sets
                      std::make_tuple(24, 96, false),  // 24-way, 4 sets
                      std::make_tuple(0, 64, false),   // fully associative
                      std::make_tuple(4, 64, true),    // filtered, 16 sets
                      std::make_tuple(0, 64, true)));  // filtered, one set

TEST_P(CacheModelTest, MatchesReferenceLru) {
  const auto [assoc_param, lines_param, filtered] = GetParam();
  const auto lines = static_cast<std::uint64_t>(lines_param);
  CacheOptions options;
  options.presence_filter = filtered;
  options.filter_min_tag_bytes = 0;
  const auto new_cache = [&] {
    return std::make_unique<Cache>(
        lines * 64, 64, static_cast<std::uint32_t>(assoc_param), options);
  };
  std::unique_ptr<Cache> cache = new_cache();
  ASSERT_EQ(cache->filter_enabled(), filtered);
  std::unique_ptr<Cache> twin;  // new at the last clear()

  const std::uint32_t assoc = cache->associativity();
  const std::uint64_t nsets = cache->num_sets();
  // Mirror the implementation's hash-based set index and filter bucket.
  const auto hash = [](std::uint64_t line) {
    return line * 0x9e3779b97f4a7c15ULL;
  };
  const auto bucket = [&](std::uint64_t line) {
    return (hash(line) >> 28) & 0xF;
  };
  // Reference: per set, an LRU list of (line, dirty), MRU first.
  std::vector<std::list<std::pair<std::uint64_t, bool>>> model(nsets);
  auto model_set = [&](std::uint64_t line) -> auto& {
    return model[(hash(line) >> 32) & (nsets - 1)];
  };
  // Three times as many lines as the cache holds.
  std::vector<std::uint64_t> domain;
  for (std::uint64_t line = 0; domain.size() < 3 * lines; ++line) {
    if (!filtered || bucket(line) < 2) domain.push_back(line);
  }

  Rng rng(123);
  int hits = 0, misses = 0, invalidations = 0, free_fills = 0, clears = 0;
  bool saturated = false;
  std::uint64_t resident = 0;
  for (int step = 0; step < 40000; ++step) {
    if (twin != nullptr) {
      ASSERT_EQ(cache->filter_skips(), twin->filter_skips())
          << "step " << step;
    }
    if (rng.next_below(1000) == 0) {
      cache->clear();
      for (auto& set : model) set.clear();
      resident = 0;
      ++clears;
      ASSERT_EQ(cache->resident_lines(), 0u) << "step " << step;
      twin = new_cache();
      continue;
    }
    const std::uint64_t line = domain[rng.next_below(domain.size())];
    auto& set = model_set(line);
    auto it = set.begin();
    for (; it != set.end(); ++it) {
      if (it->first == line) break;
    }
    const bool model_hit = it != set.end();
    if (rng.next_below(8) == 0) {  // invalidate
      bool dirty = false;
      ASSERT_EQ(cache->invalidate(line, &dirty), model_hit)
          << "step " << step << " line " << line;
      if (twin != nullptr) twin->invalidate(line, &dirty);
      if (model_hit) {
        ++invalidations;
        ASSERT_EQ(dirty, it->second) << "step " << step << " line " << line;
        set.erase(it);
        --resident;
      }
      ASSERT_EQ(cache->resident_lines(), resident) << "step " << step;
      continue;
    }
    const bool write = rng.next_below(4) == 0;
    const bool cache_hit = cache->probe_and_touch(line, write);
    ASSERT_EQ(cache_hit, model_hit) << "step " << step << " line " << line;
    if (twin != nullptr) twin->probe_and_touch(line, write);
    if (model_hit) {
      ++hits;
      auto entry = *it;
      entry.second = entry.second || write;
      set.erase(it);
      set.push_front(entry);
    } else {
      ++misses;
      const Cache::Evicted victim = cache->fill(line, write);
      if (twin != nullptr) twin->fill(line, write);
      if (set.size() == assoc) {
        ASSERT_TRUE(victim.valid) << "step " << step;
        ASSERT_EQ(victim.line, set.back().first) << "step " << step;
        ASSERT_EQ(victim.dirty, set.back().second) << "step " << step;
        set.pop_back();
      } else {
        // A free way exists (never filled, or freed by an invalidation):
        // the fill must take it and evict nothing.
        ASSERT_FALSE(victim.valid)
            << "step " << step << ": evicted line " << victim.line
            << " while the set had a free way";
        ++free_fills;
        ++resident;
      }
      set.push_front({line, write});
      saturated = saturated || std::count_if(set.begin(), set.end(),
                                             [&](const auto& entry) {
                                               return bucket(entry.first) ==
                                                      bucket(line);
                                             }) >= 15;
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
  EXPECT_GT(invalidations, 0);
  EXPECT_GT(clears, 0);
  EXPECT_GT(free_fills, static_cast<int>(lines));  // refills of freed ways
  if (filtered && assoc >= 15) {
    EXPECT_TRUE(saturated);
  }
}

}  // namespace
}  // namespace sbs::sim
