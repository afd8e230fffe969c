// Fig. 6 (paper §5.3): RRG on 10M doubles under {CilkWS, WS, PWS, SB, SB-D}
// at 100/75/50/25% memory bandwidth.
//
// Paper-reported shape: same as RRM (Fig. 5) but even more bandwidth-bound
// — the gathers are random, so active time degrades faster as bandwidth
// shrinks; SB/SB-D cut L3 misses by ~42-44% at all bandwidths.
#include <cstdio>

#include "harness/figure.h"

int main(int argc, char** argv) {
  using namespace sbs;
  harness::Figure fig("fig6_rrg",
                      "Reproduce paper Fig. 6: RRG vs schedulers vs bandwidth");
  if (!fig.parse(argc, argv)) return 0;

  // Per-element instrumented gathers make RRG the slowest benchmark to
  // simulate; the quick default is 600K elements (still ~4x the scaled L3).
  harness::ExperimentSpec spec = fig.spec("rrg", 600'000, 10'000'000);
  spec.schedulers = {"CilkWS", "WS", "PWS", "SB", "SB-D"};
  spec.bandwidth_sockets = {4, 3, 2, 1};
  const auto results = fig.run("", spec);
  Table table = harness::MakeFigureTable(
      "Fig. 6 — RRG (" + std::to_string(spec.params.n) +
          " doubles), schedulers x bandwidth",
      results);
  table.print();

  double ws = 0, sb = 0, ws25 = 0, ws100 = 0;
  for (const auto& c : results) {
    if (c.bw_sockets == 4 && c.scheduler == "WS") {
      ws = c.llc_misses;
      ws100 = c.active_s + c.overhead_s;
    }
    if (c.bw_sockets == 4 && c.scheduler == "SB") sb = c.llc_misses;
    if (c.bw_sockets == 1 && c.scheduler == "WS")
      ws25 = c.active_s + c.overhead_s;
  }
  if (ws > 0) {
    std::printf("SB reduces L3 misses vs WS by %.1f%% at full bandwidth "
                "(paper: ~42-44%%)\n",
                100.0 * (1.0 - sb / ws));
    std::printf("WS slows down %.2fx from 100%% to 25%% bandwidth "
                "(bandwidth-bound, paper Fig. 6 shape)\n",
                ws25 / ws100);
  }
  return fig.write() ? 0 : 1;
}
