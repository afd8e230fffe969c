// Fig. 5 (paper §5.3): RRM on 10M doubles under {CilkWS, WS, PWS, SB, SB-D}
// at 100/75/50/25% memory bandwidth — active time, scheduler overhead, and
// L3 cache misses.
//
// Paper-reported shape: space-bounded schedulers incur ~42-44% fewer L3
// misses than the work-stealing schedulers at every bandwidth; L3 misses
// are bandwidth-insensitive; active time tracks misses ever more closely
// as bandwidth shrinks (up to ~25% faster at 25% b/w). CilkWS validates
// that WS is representative of a production work stealer.
#include <cstdio>

#include "harness/figure.h"
#include "machine/config.h"

int main(int argc, char** argv) {
  using namespace sbs;
  harness::Figure fig("fig5_rrm",
                      "Reproduce paper Fig. 5: RRM vs schedulers vs bandwidth");
  if (!fig.parse(argc, argv)) return 0;

  // The paper's 10M doubles, divided by the machine's cache scale.
  const int scale = machine::PresetScale(fig.options().machine_for());
  harness::ExperimentSpec spec = fig.spec(
      "rrm", 10'000'000 / static_cast<std::size_t>(scale), 10'000'000);
  spec.schedulers = {"CilkWS", "WS", "PWS", "SB", "SB-D"};
  spec.bandwidth_sockets = {4, 3, 2, 1};
  const auto results = fig.run("", spec);
  Table table = harness::MakeFigureTable(
      "Fig. 5 — RRM (" + std::to_string(spec.params.n) +
          " doubles), schedulers x bandwidth",
      results);
  table.print();

  // Headline ratio, as the paper reports it: SB misses vs WS misses.
  double ws = 0, sb = 0;
  for (const auto& c : results) {
    if (c.bw_sockets == 4 && c.scheduler == "WS") ws = c.llc_misses;
    if (c.bw_sockets == 4 && c.scheduler == "SB") sb = c.llc_misses;
  }
  if (ws > 0) {
    std::printf("SB reduces L3 misses vs WS by %.1f%% at full bandwidth "
                "(paper: ~42-44%%)\n",
                100.0 * (1.0 - sb / ws));
  }
  return fig.write() ? 0 : 1;
}
