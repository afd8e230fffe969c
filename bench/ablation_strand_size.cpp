// Ablation B (paper §4.1): per-strand size annotations.
//
// The paper generalizes space-bounded schedulers to let each strand carry
// its own size, noting: "While results in [6] show that it is not necessary
// ... we found that the flexibility it enables is an important running time
// optimization." Without per-strand sizes, every strand is accounted at its
// enclosing task's full size, inflating the occupancy bound that anchoring
// competes against.
//
// Expected: with strand sizes off, SB shows more admission failures / idle
// time and a slower run on fork-heavy kernels.
#include "harness/figure.h"

int main(int argc, char** argv) {
  using namespace sbs;
  harness::Figure fig(
      "ablation_strand_size",
      "Ablation: SB with and without per-strand size annotations");
  if (!fig.parse(argc, argv)) return 0;

  Table table("Ablation — per-strand sizes (SB, " +
              fig.options().machine_for() + ")");
  table.set_header({"kernel", "strand sizes", "active(s)", "empty(ms)",
                    "total(s)", "L3 misses"});
  for (const char* kernel : {"quicksort", "rrm"}) {
    for (bool use : {true, false}) {
      harness::ExperimentSpec spec = fig.spec(kernel, 1'000'000, 10'000'000);
      spec.schedulers = {"SB"};
      spec.sb.use_strand_sizes = use;
      const harness::CellResult c =
          fig.run(std::string(kernel) + (use ? "_ssz" : "_tsz"), spec)[0];
      table.add_row({kernel, use ? "per-strand (paper)" : "task size",
                     fmt_double(c.active_s, 4),
                     fmt_double(c.empty_s * 1e3, 2),
                     fmt_double(c.active_s + c.overhead_s, 4),
                     fmt_millions(c.llc_misses, 2)});
    }
  }
  table.print();
  return fig.write() ? 0 : 1;
}
