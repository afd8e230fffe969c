// Fig. 8 (paper §5.3): the five algorithmic kernels at full bandwidth —
// active time, scheduler overhead, and L3 misses under {WS, PWS, SB, SB-D}.
//
// Paper-reported shape: SB/SB-D cut L3 misses significantly on 4 of the 5
// kernels (up to ~65% on matmul); the cache-oblivious samplesort shows no
// miss difference and runs ~7% slower under SB (pure overhead); the
// memory-intensive kernels (quicksort, aware samplesort, quad-tree) gain
// up to ~25% in running time; matmul gains nothing at full bandwidth
// because it is compute-bound.
//
// --low-bw reproduces Fig. 9 instead: the same kernels at 25% memory
// bandwidth (pages homed on one of the four sockets), written to
// BENCH_fig9_kernels_lowbw.json. Paper-reported shape: the miss reductions
// now translate into larger running-time gains — up to ~40% for the
// memory-intensive kernels, and ~50% for matmul, which becomes
// bandwidth-bound at a quarter of the machine's bandwidth.
#include <cstdio>

#include "harness/figure.h"

namespace {

struct KernelCase {
  const char* kernel;
  std::size_t quick_n;
  std::size_t full_n;
  const char* label;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sbs;
  harness::Figure fig(
      "fig8_kernels",
      "Reproduce paper Fig. 8: algorithmic kernels at full bandwidth");
  bool low_bw = false;
  fig.cli().add_flag("low-bw", &low_bw,
                     "run at 25% bandwidth instead (reproduces Fig. 9)");
  if (!fig.parse(argc, argv)) return 0;
  if (low_bw) fig.set_name("fig9_kernels_lowbw");

  const KernelCase cases[] = {
      {"quicksort", 1'000'000, 100'000'000, "Quicksort"},
      {"samplesort", 1'000'000, 100'000'000, "Samplesort"},
      {"aware-samplesort", 1'000'000, 100'000'000, "AwareSamplesort"},
      {"quadtree", 1'000'000, 100'000'000, "Quad-Tree"},
      {"matmul", 512, 5120, "MatMul"},
  };

  const std::string machine = fig.options().machine_for();
  const char* figure = low_bw ? "Fig. 9" : "Fig. 8";
  Table table(std::string(figure) + " — kernels at " +
              (low_bw ? "25%" : "100%") + " bandwidth on " + machine);
  table.set_header({"kernel", "scheduler", "active(s)", "overhead(s)",
                    "empty(s)", "total(s)", "L3 misses"});
  for (const KernelCase& kc : cases) {
    harness::ExperimentSpec spec = fig.spec(kc.kernel, kc.quick_n, kc.full_n);
    // --n counts elements; matmul's size is a matrix order, so it keeps
    // its own (a power of two, which matmul requires).
    if (kc.kernel == std::string("matmul"))
      spec.params.n = fig.options().full ? kc.full_n : kc.quick_n;
    spec.bandwidth_sockets = {low_bw ? 1 : 4};
    const auto results = fig.run(kc.kernel, spec);
    for (const auto& c : results) {
      table.add_row({kc.label, c.scheduler, fmt_double(c.active_s, 4),
                     fmt_double(c.overhead_s, 4), fmt_double(c.empty_s, 4),
                     fmt_double(c.active_s + c.overhead_s, 4),
                     fmt_millions(c.llc_misses, 2)});
    }
    const double ws = results[0].llc_misses;
    const double sb = results[2].llc_misses;
    const double ws_t = results[0].active_s + results[0].overhead_s;
    const double sb_t = results[2].active_s + results[2].overhead_s;
    std::fprintf(stderr, "  %s: SB misses %+0.1f%%, SB time %+0.1f%% vs WS\n",
                 kc.label, 100.0 * (sb / ws - 1.0),
                 100.0 * (sb_t / ws_t - 1.0));
  }
  table.print();
  return fig.write() ? 0 : 1;
}
