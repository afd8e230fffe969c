// Fig. 7 (paper §5.3): L3 cache misses for RRM and RRG as the number of
// active cores per socket grows (4×1, 4×2, 4×4, 4×8, 4×8×2 HT), under
// {WS, PWS, SB, SB-D}.
//
// Paper-reported shape: SB/SB-D miss counts are flat — cores share each L3
// constructively regardless of how many there are — while WS/PWS misses
// grow steadily with cores per socket (the cache is effectively split
// among them), roughly doubling from 4×1 to 4×8×2.
#include <algorithm>
#include <cstdio>

#include "harness/figure.h"

int main(int argc, char** argv) {
  using namespace sbs;
  harness::Figure fig(
      "fig7_cores",
      "Reproduce paper Fig. 7: L3 misses vs active cores per socket");
  if (!fig.parse(argc, argv)) return 0;

  const char* suffixes[] = {"_4x1", "_4x2", "_4x4", "", "_ht"};
  const char* labels[] = {"4x1", "4x2", "4x4", "4x8", "4x8x2(HT)"};

  Table table("Fig. 7 — L3 misses (millions) vs cores per socket");
  table.set_header(
      {"cores", "scheduler", "RRM misses", "RRG misses"});
  for (int m = 0; m < 5; ++m) {
    std::vector<harness::CellResult> rrm, rrg;
    for (const char* kernel : {"rrm", "rrg"}) {
      const bool is_rrm = kernel == std::string("rrm");
      harness::ExperimentSpec spec = fig.spec(
          kernel, is_rrm ? 1'250'000 : 600'000, 10'000'000, suffixes[m]);
      // Every machine runs all of its threads.
      spec.num_threads = -1;
      spec.repetitions = std::max(1, fig.options().repetitions() - 1);
      (is_rrm ? rrm : rrg) =
          fig.run(std::string(kernel) + "_" + labels[m], spec);
    }
    for (std::size_t s = 0; s < rrm.size(); ++s) {
      table.add_row({labels[m], rrm[s].scheduler,
                     fmt_millions(rrm[s].llc_misses, 2),
                     fmt_millions(rrg[s].llc_misses, 2)});
    }
  }
  table.print();
  std::printf(
      "Expected shape (paper): WS/PWS misses grow with cores per socket; "
      "SB/SB-D stay flat.\n");
  return fig.write() ? 0 : 1;
}
