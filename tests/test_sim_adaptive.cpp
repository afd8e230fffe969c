// Inline strand execution (SimParams::inline_strands) must be invisible to
// the simulation: it runs pure scheduler-interaction strands (empty join
// continuations) on the pump without a fiber switch, and everything except
// the engine-work counters must match the all-fibers baseline.
#include <gtest/gtest.h>

#include <string>

#include "kernels/kernel.h"
#include "machine/topology.h"
#include "sched/registry.h"
#include "sim/engine.h"

namespace sbs::sim {
namespace {

SimResult run_once(const machine::Topology& topo,
                   const std::string& sched_name,
                   const std::string& kernel_name, std::size_t n,
                   bool inline_strands) {
  kernels::KernelParams kp;
  kp.n = n;
  auto kernel = kernels::MakeKernel(kernel_name, kp);
  kernel->prepare(1);
  auto sched = sched::MakeScheduler(sched_name);
  SimParams sp;
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

TEST(SimInlineStrands, InliningDropsFiberSwitchesOnly) {
  const machine::Topology topo(machine::Preset("xeon7560_s8"));
  const std::size_t n = 20000;
  for (const char* sched : {"WS", "SB"}) {
    const SimResult fibers = run_once(topo, sched, "samplesort", n,
                                      /*inline_strands=*/false);
    const SimResult inlined = run_once(topo, sched, "samplesort", n,
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
