// Tests for the online invariant checker (src/verify/): SB admission edge
// cases run clean under --verify semantics, and the two seeded scheduler
// mutations (over-admission, mis-anchoring) are flagged.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "machine/topology.h"
#include "runtime/jobs.h"
#include "runtime/mem.h"
#include "sched/registry.h"
#include "sched/sb.h"
#include "sim/engine.h"
#include "verify/invariants.h"

namespace sbs::verify {
namespace {

using machine::Preset;
using machine::Topology;
using runtime::Job;
using runtime::Strand;
using runtime::make_job;
using runtime::make_nop;

/// Fork-join tree of annotated tasks, halving the footprint per level.
Job* tree(std::uint64_t bytes, int depth) {
  if (depth == 0) return make_job([](Strand&) {}, bytes);
  return make_job(
      [bytes, depth](Strand& strand) {
        strand.fork2(tree(bytes / 2, depth - 1), tree(bytes / 2, depth - 1),
                     make_nop());
      },
      bytes, 64);
}

/// Like tree() but every strand burns simulated cycles, so sibling tasks
/// overlap in virtual time and anchor concurrently.
Job* busy_tree(std::uint64_t bytes, int depth, std::uint64_t cycles) {
  if (depth == 0)
    return make_job([cycles](Strand&) { mem::work(cycles); }, bytes);
  return make_job(
      [bytes, depth, cycles](Strand& strand) {
        mem::work(cycles);
        strand.fork2(busy_tree(bytes / 2, depth - 1, cycles),
                     busy_tree(bytes / 2, depth - 1, cycles), make_nop());
      },
      bytes, 64);
}

/// Tree with fanout-64 footprint drop: children befit two-plus cache levels
/// below their parent's anchor (skip-level tasks).
Job* skip_tree(std::uint64_t bytes, int depth) {
  if (depth == 0) return make_job([](Strand&) {}, bytes);
  return make_job(
      [bytes, depth](Strand& strand) {
        strand.fork2(skip_tree(bytes / 64, depth - 1),
                     skip_tree(bytes / 64, depth - 1), make_nop());
      },
      bytes, 64);
}

/// Run `root` on `preset` under a verified SB scheduler; return the checker
/// report (empty prefix "verify: OK" when clean).
std::string run_verified(const std::string& preset, Job* root,
                         sched::SpaceBounded::Options options,
                         bool* ok = nullptr) {
  const Topology topo(Preset(preset));
  auto checker = std::make_unique<VerifyingScheduler>(
      std::make_unique<sched::SpaceBounded>(options));
  sim::SimEngine engine(topo);
  engine.run(*checker, root);
  if (ok != nullptr) *ok = checker->ok();
  return checker->report();
}

TEST(Verify, SkipLevelTasksPassOnDeepHierarchy) {
  // mini_deep: L3 256K / L2 32K / L1 4K, σ=0.5. A 1 MB root forks 16 KB
  // children (befit L2, depth 2) directly under a root-anchored parent —
  // the charge path spans the skipped L3 as well.
  bool ok = false;
  const std::string report =
      run_verified("mini_deep", skip_tree(1u << 20, 2),
                   sched::SpaceBounded::Options{}, &ok);
  EXPECT_TRUE(ok) << report;
}

TEST(Verify, ExactlyAtSigmaMBoundaryAdmits) {
  // mini: L2 64K, L1 4K, σ=0.5. The halving tree hits 32768 = σ·M_L2 and
  // 2048 = σ·M_L1 exactly — the boundary is inclusive (S ≤ σM).
  bool ok = false;
  const std::string report = run_verified(
      "mini", tree(1u << 16, 6), sched::SpaceBounded::Options{}, &ok);
  EXPECT_TRUE(ok) << report;
}

TEST(Verify, MuCapSaturationByStrandCharges) {
  // Strands carrying footprints far above µM: every live strand charges the
  // capped amount on each cache below its anchor. The shadow accounting
  // must mirror the scheduler's µ-capped charges exactly.
  sched::SpaceBounded::Options options;
  options.mu = 0.1;
  bool ok = false;
  const std::string report =
      run_verified("mini", busy_tree(1u << 18, 8, 2000), options, &ok);
  EXPECT_TRUE(ok) << report;
}

TEST(Verify, MuCapDisabledStillMirrors) {
  // Ablation A (mu_cap=false): strands charge their full size; the shadow
  // accounting must follow the ablation flag.
  sched::SpaceBounded::Options options;
  options.mu_cap = false;
  bool ok = false;
  const std::string report =
      run_verified("mini", busy_tree(1u << 17, 6, 1000), options, &ok);
  EXPECT_TRUE(ok) << report;
}

TEST(Verify, RootTaskLargerThanEveryCache) {
  // A 4 MB root on mini (L2 64K) befits no finite cache; it anchors at the
  // root (unbounded memory level) and only its descendants charge caches.
  bool ok = false;
  const std::string report = run_verified(
      "mini", tree(1u << 22, 8), sched::SpaceBounded::Options{}, &ok);
  EXPECT_TRUE(ok) << report;
}

TEST(Verify, DistributedTopPassesToo) {
  sched::SpaceBounded::Options options;
  options.distributed_top = true;
  bool ok = false;
  const std::string report =
      run_verified("mini_deep", busy_tree(1u << 19, 8, 500), options, &ok);
  EXPECT_TRUE(ok) << report;
}

TEST(Verify, WrapsWorkStealingLifecycleOnly) {
  // WS has no anchors; the checker still proves the fork/join lifecycle.
  const Topology topo(Preset("mini"));
  sched::SchedulerSpec spec;
  spec.name = "WS";
  auto checker =
      std::make_unique<VerifyingScheduler>(sched::MakeScheduler(spec));
  sim::SimEngine engine(topo);
  engine.run(*checker, tree(1u << 16, 8));
  EXPECT_TRUE(checker->ok()) << checker->report();
  EXPECT_GT(checker->checks(), 0u);
}

TEST(Verify, ReportCountsChecks) {
  const Topology topo(Preset("mini"));
  auto checker = std::make_unique<VerifyingScheduler>(
      std::make_unique<sched::SpaceBounded>(sched::SpaceBounded::Options{}));
  sim::SimEngine engine(topo);
  engine.run(*checker, tree(1u << 16, 4));
  EXPECT_TRUE(checker->ok());
  EXPECT_NE(checker->report().find("verify: OK"), std::string::npos);
  EXPECT_GT(checker->checks(), 100u);
  EXPECT_EQ(checker->total_violations(), 0u);
}

// --- mutation tests: seeded scheduler bugs the checker must flag ---

TEST(VerifyMutation, OverAdmissionCaught) {
  // force_admission skips the bounded-occupancy check in try_charge_path.
  // With σ=1.0 a single anchored task fills its whole cache, so any two
  // concurrently anchored siblings on one L2 break the bounded property.
  sched::SpaceBounded::Options options;
  options.sigma = 1.0;
  options.test_faults.force_admission = true;
  bool ok = true;
  const std::string report =
      run_verified("mini", busy_tree(1u << 20, 6, 200000), options, &ok);
  EXPECT_FALSE(ok) << "checker missed the over-admission mutation";
  EXPECT_NE(report.find("bounded property violated"), std::string::npos)
      << report;
}

TEST(VerifyMutation, MisAnchorCaught) {
  // anchor_depth_bias=1 anchors maximal tasks one level above their
  // befitting cache — the anchoring property (anchor depth == befit depth)
  // must be flagged on the first admission.
  sched::SpaceBounded::Options options;
  options.test_faults.anchor_depth_bias = 1;
  bool ok = true;
  const std::string report =
      run_verified("mini", tree(1u << 16, 6), options, &ok);
  EXPECT_FALSE(ok) << "checker missed the mis-anchor mutation";
  EXPECT_NE(report.find("befitting depth"), std::string::npos) << report;
}

TEST(VerifyMutation, CleanRunStaysClean) {
  // Control: identical workloads without the fault flags stay violation-free
  // (guards against the mutation tests passing for the wrong reason).
  sched::SpaceBounded::Options options;
  options.sigma = 1.0;
  bool ok = false;
  run_verified("mini", busy_tree(1u << 20, 6, 200000), options, &ok);
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace sbs::verify
