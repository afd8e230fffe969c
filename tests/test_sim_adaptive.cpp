// Engine fast-path knobs must be invisible to the simulation:
//
//  - Adaptive windows (SimParams::adaptive_window) only coalesce merge
//    barriers across quiet windows; for every scheduler and kernel the
//    results must be bit-identical to the fixed-quantum baseline —
//    makespan, every traffic counter, and every engine counter including
//    fiber_switches. The one counter allowed to move is window_merges, and
//    it may only drop.
//
//  - Inline strand execution (SimParams::inline_strands) runs pure
//    scheduler-interaction strands (empty join continuations) on the pump
//    without a fiber switch; everything except fiber_switches and the
//    inline_strands counter must match the all-fibers baseline.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "kernels/kernel.h"
#include "machine/topology.h"
#include "sched/registry.h"
#include "sim/engine.h"

namespace sbs::sim {
namespace {

SimResult run_once(const machine::Topology& topo,
                   const std::string& sched_name,
                   const std::string& kernel_name, std::size_t n,
                   bool adaptive, bool inline_strands) {
  kernels::KernelParams kp;
  kp.n = n;
  auto kernel = kernels::MakeKernel(kernel_name, kp);
  kernel->prepare(1);
  auto sched = sched::MakeScheduler(sched_name);
  SimParams sp;
  sp.adaptive_window = adaptive;
  sp.inline_strands = inline_strands;
  SimEngine engine(topo, sp);
  const SimResult r = engine.run(*sched, kernel->make_root());
  EXPECT_TRUE(kernel->verify()) << sched_name << "/" << kernel_name;
  return r;
}

/// Everything the simulation observes: makespan, traffic, per-level stats.
void expect_simulation_identical(const SimResult& a_r, const SimResult& b_r,
                                 const std::string& label) {
  EXPECT_EQ(a_r.makespan_cycles, b_r.makespan_cycles) << label;
  const Counters& a = a_r.counters;
  const Counters& b = b_r.counters;
  EXPECT_EQ(a.accesses, b.accesses) << label;
  EXPECT_EQ(a.writes, b.writes) << label;
  EXPECT_EQ(a.dram_reads, b.dram_reads) << label;
  EXPECT_EQ(a.dram_writebacks, b.dram_writebacks) << label;
  EXPECT_EQ(a.remote_dram_accesses, b.remote_dram_accesses) << label;
  EXPECT_EQ(a.queue_wait_cycles, b.queue_wait_cycles) << label;
  ASSERT_EQ(a.level.size(), b.level.size()) << label;
  for (std::size_t lvl = 1; lvl < a.level.size(); ++lvl) {
    EXPECT_EQ(a.level[lvl].hits, b.level[lvl].hits) << label << " L" << lvl;
    EXPECT_EQ(a.level[lvl].misses, b.level[lvl].misses)
        << label << " L" << lvl;
    EXPECT_EQ(a.level[lvl].evictions, b.level[lvl].evictions)
        << label << " L" << lvl;
    EXPECT_EQ(a.level[lvl].back_invalidations, b.level[lvl].back_invalidations)
        << label << " L" << lvl;
    EXPECT_EQ(a.level[lvl].coherence_invalidations,
              b.level[lvl].coherence_invalidations)
        << label << " L" << lvl;
  }
}

class SimAdaptiveEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

INSTANTIATE_TEST_SUITE_P(
    SchedulerByKernel, SimAdaptiveEquivalence,
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

TEST_P(SimAdaptiveEquivalence, AdaptiveWindowsDoNotChangeResults) {
  const auto& [sched_name, kernel_name] = GetParam();
  const machine::Topology topo(machine::Preset("xeon7560_s8"));
  const std::size_t n = 20000;

  const SimResult fixed = run_once(topo, sched_name, kernel_name, n,
                                   /*adaptive=*/false,
                                   /*inline_strands=*/true);
  const std::string label = sched_name + "/" + kernel_name + " adaptive";
  const SimResult ad = run_once(topo, sched_name, kernel_name, n,
                                /*adaptive=*/true, /*inline_strands=*/true);
  expect_simulation_identical(fixed, ad, label);
  // The engine's own work must also be unchanged — coalescing skips
  // merges, it does not re-chunk execution.
  EXPECT_EQ(fixed.counters.windows_executed, ad.counters.windows_executed)
      << label;
  EXPECT_EQ(fixed.counters.pump_passes, ad.counters.pump_passes) << label;
  EXPECT_EQ(fixed.counters.fiber_switches, ad.counters.fiber_switches)
      << label;
  EXPECT_EQ(fixed.counters.inline_strands, ad.counters.inline_strands)
      << label;
  // The point of the knob: strictly fewer merge barriers. Every run has
  // at least one quiet stretch (startup), so "≤" would hide a no-op.
  EXPECT_LT(ad.counters.window_merges, fixed.counters.window_merges)
      << label;
}

TEST(SimInlineStrands, InliningDropsFiberSwitchesOnly) {
  const machine::Topology topo(machine::Preset("xeon7560_s8"));
  const std::size_t n = 20000;
  for (const char* sched : {"WS", "SB"}) {
    const SimResult fibers = run_once(topo, sched, "samplesort", n,
                                      /*adaptive=*/true,
                                      /*inline_strands=*/false);
    const SimResult inlined = run_once(topo, sched, "samplesort", n,
                                       /*adaptive=*/true,
                                       /*inline_strands=*/true);
    const std::string label = std::string(sched) + "/samplesort inline";
    expect_simulation_identical(fibers, inlined, label);
    // Windows whose only work was an inlined strand are skipped outright,
    // so the engine-work counters may only drop, never grow.
    EXPECT_LE(inlined.counters.windows_executed,
              fibers.counters.windows_executed)
        << label;
    EXPECT_LE(inlined.counters.window_merges, fibers.counters.window_merges)
        << label;
    EXPECT_EQ(fibers.counters.inline_strands, 0u) << label;
    // Samplesort's fork tree is full of empty join continuations, so the
    // inline path must actually fire and shed their fiber switches.
    EXPECT_GT(inlined.counters.inline_strands, 0u) << label;
    EXPECT_LT(inlined.counters.fiber_switches, fibers.counters.fiber_switches)
        << label;
  }
}

}  // namespace
}  // namespace sbs::sim
