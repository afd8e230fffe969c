// Fig. 10 (paper §5.3): empty-queue (load-imbalance) time of the quad-tree
// benchmark under SB and SB-D as the dilation parameter σ varies over
// {0.5, 0.7, 0.9, 1.0}.
//
// Paper-reported shape: empty-queue time grows sharply as σ→1 — with σ=1 a
// single befitting task can fill a cache, leaving no room to anchor more
// work under it, so cores idle; σ≈0.5 admits several tasks per cache and
// load-balances well.
#include <cstdio>

#include "harness/figure.h"

int main(int argc, char** argv) {
  using namespace sbs;
  harness::Figure fig(
      "fig10_sigma",
      "Reproduce paper Fig. 10: quad-tree empty-queue time vs sigma");
  if (!fig.parse(argc, argv)) return 0;

  Table table("Fig. 10 — Quad-tree empty-queue time vs dilation σ (" +
              fig.options().machine_for() + ")");
  table.set_header({"sigma", "scheduler", "empty(ms)", "overhead(ms)",
                    "total(s)", "L3 misses"});
  for (double sigma : {0.5, 0.7, 0.9, 1.0}) {
    harness::ExperimentSpec spec =
        fig.spec("quadtree", 1'000'000, 100'000'000);
    spec.schedulers = {"SB", "SB-D"};
    spec.sb.sigma = sigma;
    const auto results = fig.run("sigma" + fmt_double(sigma, 1), spec);
    for (const auto& c : results) {
      table.add_row({"σ=" + fmt_double(sigma, 1), c.scheduler,
                     fmt_double(c.empty_s * 1e3, 2),
                     fmt_double(c.overhead_s * 1e3, 2),
                     fmt_double(c.active_s + c.overhead_s, 4),
                     fmt_millions(c.llc_misses, 2)});
    }
  }
  table.print();
  std::printf(
      "Expected shape (paper): empty-queue time rises steeply as σ→1.\n");
  return fig.write() ? 0 : 1;
}
