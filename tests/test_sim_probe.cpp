// The presence filter (sim/cache.h CacheOptions::presence_filter) is a
// pure host-side representation choice: a filtered cache must produce
// bit-identical simulation results to an unfiltered one — same makespan,
// same coherence counters, same eviction victims. This suite asserts that
// at two levels: a lockstep cache-churn model, and full engine runs across
// schedulers × kernels. Plus the huge64 guarantee that presence filters
// actually engage (filter_skips > 0).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "kernels/kernel.h"
#include "machine/config.h"
#include "machine/topology.h"
#include "sched/registry.h"
#include "sim/cache.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace sbs::sim {
namespace {

// --- lockstep churn, filtered vs unfiltered ---

struct Rep {
  const char* name;
  bool filter;
};

constexpr Rep kReps[] = {
    {"reference", false},
    {"filter", true},
};

CacheOptions options_of(const Rep& rep) {
  CacheOptions o;
  o.presence_filter = rep.filter;
  o.filter_min_tag_bytes = 0;  // force filters onto the tiny test caches
  return o;
}

/// Drive both representations through the same random access/invalidate
/// churn and require identical observable behavior at every step: hit and
/// miss outcomes, eviction victims (line, dirty bit), invalidation
/// results, and residency. Geometries cover narrow, odd, and wide sets and
/// the fully-associative single-set shape.
class CacheChurnEquivalence : public ::testing::TestWithParam<
                                  std::tuple<std::uint32_t, std::uint64_t>> {
};

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheChurnEquivalence,
    ::testing::Values(std::make_tuple(4u, 64ull * 32),    // 4-way, 8 sets
                      std::make_tuple(8u, 64ull * 64),    // 8-way, 8 sets
                      std::make_tuple(9u, 64ull * 144),   // odd, 16 sets
                      std::make_tuple(24u, 64ull * 192),  // L3-ish, 8 sets
                      std::make_tuple(0u, 64ull * 32)));  // fully assoc

TEST_P(CacheChurnEquivalence, IdenticalVictimsHitsAndResidency) {
  const auto& [assoc, size] = GetParam();
  std::vector<Cache> caches;
  caches.reserve(std::size(kReps));
  for (const Rep& rep : kReps) {
    caches.emplace_back(size, 64, assoc, options_of(rep));
  }
  Rng rng(2024);
  const std::uint64_t line_space = 3 * size / 64;  // ~3x overcommit
  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t line = rng.next_below(line_space);
    const int op = static_cast<int>(rng.next_below(8));
    if (op == 0) {  // invalidate
      bool ref_dirty = false;
      const bool ref_found = caches[0].invalidate(line, &ref_dirty);
      for (std::size_t i = 1; i < caches.size(); ++i) {
        bool dirty = false;
        ASSERT_EQ(caches[i].invalidate(line, &dirty), ref_found)
            << kReps[i].name << " step " << step;
        ASSERT_EQ(dirty, ref_dirty) << kReps[i].name << " step " << step;
      }
    } else {  // probe; fill on miss (the walk's pattern)
      const bool write = rng.next_below(3) == 0;
      const bool ref_hit = caches[0].probe_and_touch(line, write);
      Cache::Evicted ref_ev;
      if (!ref_hit) ref_ev = caches[0].fill(line, write);
      for (std::size_t i = 1; i < caches.size(); ++i) {
        ASSERT_EQ(caches[i].probe_and_touch(line, write), ref_hit)
            << kReps[i].name << " step " << step << " line " << line;
        if (!ref_hit) {
          const Cache::Evicted ev = caches[i].fill(line, write);
          ASSERT_EQ(ev.valid, ref_ev.valid) << kReps[i].name;
          ASSERT_EQ(ev.line, ref_ev.line) << kReps[i].name;
          ASSERT_EQ(ev.dirty, ref_ev.dirty) << kReps[i].name;
        }
      }
    }
    for (std::size_t i = 1; i < caches.size(); ++i) {
      ASSERT_EQ(caches[i].resident_lines(), caches[0].resident_lines())
          << kReps[i].name << " step " << step;
    }
  }
  // The filtered cache must actually have exercised the fast path.
  EXPECT_GT(caches[1].filter_skips(), 0u);
  EXPECT_EQ(caches[0].filter_skips(), 0u);
}

TEST(CacheRepresentation, IntrospectionMatchesOptions) {
  CacheOptions filt;
  filt.filter_min_tag_bytes = 0;
  EXPECT_TRUE(Cache(4096, 64, 8, filt).filter_enabled());
  // Default threshold leaves a tiny tag array unfiltered.
  EXPECT_FALSE(Cache(4096, 64, 8).filter_enabled());
}

TEST(CacheRepresentation, ClearResetsFilterAndSkipCount) {
  CacheOptions o;
  o.filter_min_tag_bytes = 0;
  Cache cache(4096, 64, 4, o);
  for (std::uint64_t l = 0; l < 200; ++l) {
    if (!cache.probe_and_touch(l, false)) cache.fill(l, false);
  }
  for (std::uint64_t l = 1000; l < 1200; ++l) {
    cache.probe_and_touch(l, false);
  }
  EXPECT_GT(cache.filter_skips(), 0u);
  cache.clear();
  EXPECT_EQ(cache.filter_skips(), 0u);
  EXPECT_EQ(cache.resident_lines(), 0u);
  // Post-clear churn still behaves (filter was zeroed with the tags).
  for (std::uint64_t l = 0; l < 200; ++l) {
    if (!cache.probe_and_touch(l, false)) cache.fill(l, false);
    EXPECT_TRUE(cache.contains(l));
  }
}

// --- full engine equivalence ---

SimResult run_rep(const machine::Topology& topo, const std::string& sched,
                  const std::string& kernel_name, std::size_t n, bool filter,
                  std::uint64_t filter_min_tag_bytes = 0) {
  kernels::KernelParams kp;
  kp.n = n;
  auto kernel = kernels::MakeKernel(kernel_name, kp);
  kernel->prepare(1);
  auto s = sched::MakeScheduler(sched);
  SimParams sp;
  sp.memory.cache.presence_filter = filter;
  // Scaled-down preset caches are small, so the default threshold would
  // leave every level unfiltered; callers on real-size machines pass the
  // production threshold instead.
  sp.memory.cache.filter_min_tag_bytes = filter_min_tag_bytes;
  SimEngine engine(topo, sp);
  const SimResult r = engine.run(*s, kernel->make_root());
  EXPECT_TRUE(kernel->verify()) << sched << "/" << kernel_name;
  return r;
}

/// Everything except filter_skips must match bit for bit; filter_skips is
/// compared only when `same_filter` (a filterless run trivially has 0).
void expect_identical(const SimResult& a, const SimResult& b,
                      bool same_filter, const std::string& label) {
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles) << label;
  const Counters& x = a.counters;
  const Counters& y = b.counters;
  EXPECT_EQ(x.accesses, y.accesses) << label;
  EXPECT_EQ(x.writes, y.writes) << label;
  EXPECT_EQ(x.dram_reads, y.dram_reads) << label;
  EXPECT_EQ(x.dram_writebacks, y.dram_writebacks) << label;
  EXPECT_EQ(x.remote_dram_accesses, y.remote_dram_accesses) << label;
  EXPECT_EQ(x.queue_wait_cycles, y.queue_wait_cycles) << label;
  EXPECT_EQ(x.fiber_switches, y.fiber_switches) << label;
  EXPECT_EQ(x.windows_executed, y.windows_executed) << label;
  EXPECT_EQ(x.window_merges, y.window_merges) << label;
  EXPECT_EQ(x.pump_passes, y.pump_passes) << label;
  EXPECT_EQ(x.inline_strands, y.inline_strands) << label;
  if (same_filter) {
    EXPECT_EQ(x.filter_skips, y.filter_skips) << label;
  }
  ASSERT_EQ(x.level.size(), y.level.size()) << label;
  for (std::size_t lvl = 1; lvl < x.level.size(); ++lvl) {
    EXPECT_EQ(x.level[lvl].hits, y.level[lvl].hits) << label << " L" << lvl;
    EXPECT_EQ(x.level[lvl].misses, y.level[lvl].misses)
        << label << " L" << lvl;
    EXPECT_EQ(x.level[lvl].evictions, y.level[lvl].evictions)
        << label << " L" << lvl;
    EXPECT_EQ(x.level[lvl].back_invalidations,
              y.level[lvl].back_invalidations)
        << label << " L" << lvl;
    EXPECT_EQ(x.level[lvl].coherence_invalidations,
              y.level[lvl].coherence_invalidations)
        << label << " L" << lvl;
  }
}

class SimProbeEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

INSTANTIATE_TEST_SUITE_P(
    SchedulerByKernel, SimProbeEquivalence,
    ::testing::Combine(::testing::Values("WS", "PWS", "SB", "SB-D"),
                       ::testing::Values("quicksort", "samplesort")),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';  // "SB-D" → valid gtest name
      }
      return name;
    });

TEST_P(SimProbeEquivalence, RepresentationsAreBitIdentical) {
  const auto& [sched_name, kernel_name] = GetParam();
  const machine::Topology topo(machine::Preset("xeon7560_s8"));
  const std::size_t n = 20000;
  const std::string tag = sched_name + "/" + kernel_name;
  const SimResult ref =
      run_rep(topo, sched_name, kernel_name, n, /*filter=*/false);
  const SimResult filt =
      run_rep(topo, sched_name, kernel_name, n, /*filter=*/true);
  expect_identical(ref, filt, /*same_filter=*/false, tag + " filter");
  EXPECT_EQ(ref.counters.filter_skips, 0u) << tag;
  EXPECT_GT(filt.counters.filter_skips, 0u) << tag;
}

// --- huge64: filters must engage on the big outer levels ---

// configs/huge64_4level.cfg, inlined because ctest runs from the build
// tree. Multi-MB L2/L3 tag arrays put every outer level past the default
// filter_min_tag_bytes threshold.
constexpr char kHuge64Config[] = R"(
int num_procs = 512;
int num_levels = 5;
int fan_outs[5] = {64, 2, 4, 1, 1};
long long int sizes[5] = {0, 32*(1<<20), 4*(1<<20), 1<<18, 1<<15};
int block_sizes[5] = {64, 64, 64, 64, 64};
int assoc[5] = {0, 16, 16, 8, 8};
)";

TEST(SimProbeHuge64, PresenceFiltersEngageAndPreserveResults) {
  const machine::Topology topo(machine::ParseConfig(kHuge64Config));
  const std::size_t n = 20000;
  // Production threshold: the strict filter_skips > 0 assert holds for the
  // defaults real runs use, not a test-forced configuration.
  const std::uint64_t threshold = CacheOptions{}.filter_min_tag_bytes;
  const SimResult off =
      run_rep(topo, "WS", "samplesort", n, /*filter=*/false, threshold);
  const SimResult on =
      run_rep(topo, "WS", "samplesort", n, /*filter=*/true, threshold);
  expect_identical(off, on, /*same_filter=*/false, "huge64 filter");
  EXPECT_GT(on.counters.filter_skips, 0u)
      << "presence filters never engaged on huge64";
  EXPECT_EQ(off.counters.filter_skips, 0u);
}

}  // namespace
}  // namespace sbs::sim
