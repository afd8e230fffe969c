// Ablation A (paper §4.1): the µ-capped strand occupancy rule.
//
// The paper modifies the boundedness property so a live strand charges only
// min(µM, S(l)) at each cache below its task's anchor (µ=0.2): "several
// large strands [can then be] explored simultaneously without their space
// measure taking too much of the space bound", revealing parallelism early.
// Strands are *large* exactly when they are not separately annotated and
// default to their enclosing task's size — which is also why the paper
// calls per-strand sizes an important optional optimization (footnote 1).
//
// This ablation therefore crosses both knobs on SB:
//   (1) per-strand sizes on, µ cap on     — the paper's full configuration;
//   (2) strand sizes OFF, µ cap on        — µ rescues task-size accounting;
//   (3) strand sizes OFF, µ cap OFF       — the un-generalized definition:
//       every live strand charges its whole task's footprint.
//
// Expected: (3) shows clearly more empty-queue (load-imbalance) time than
// (2), which in turn is at or above (1).
#include "harness/figure.h"

int main(int argc, char** argv) {
  using namespace sbs;
  harness::Figure fig(
      "ablation_mu",
      "Ablation: SB's mu strand-occupancy cap x per-strand sizes");
  if (!fig.parse(argc, argv)) return 0;

  Table table("Ablation — µ strand cap × strand sizes (SB, " +
              fig.options().machine_for() + ")");
  table.set_header({"kernel", "configuration", "active(s)", "empty(ms)",
                    "total(s)", "L3 misses"});

  struct Arm {
    const char* label;
    bool strand_sizes;
    bool mu_cap;
  };
  const Arm arms[] = {
      {"strand sizes + µ (paper)", true, true},
      {"task-size strands, µ cap", false, true},
      {"task-size strands, no cap", false, false},
  };
  for (const char* kernel : {"rrm", "quadtree"}) {
    for (const Arm& arm : arms) {
      harness::ExperimentSpec spec = fig.spec(kernel, 1'000'000, 10'000'000);
      spec.schedulers = {"SB"};
      spec.sb.mu_cap = arm.mu_cap;
      spec.sb.use_strand_sizes = arm.strand_sizes;
      const std::string group =
          std::string(kernel) + (arm.strand_sizes ? "_ssz" : "_tsz") +
          (arm.mu_cap ? "_mu" : "_nomu");
      const harness::CellResult c = fig.run(group, spec)[0];
      table.add_row({kernel, arm.label, fmt_double(c.active_s, 4),
                     fmt_double(c.empty_s * 1e3, 2),
                     fmt_double(c.active_s + c.overhead_s, 4),
                     fmt_millions(c.llc_misses, 2)});
    }
  }
  table.print();
  return fig.write() ? 0 : 1;
}
