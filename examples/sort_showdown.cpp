// Sort showdown: run the paper's quicksort on the simulated 4-socket Xeon
// under every scheduler, and watch the space-bounded schedulers trade a
// little scheduling overhead for a lot of L3 locality.
//
//   ./sort_showdown [n] [machine]    (default 1M doubles on xeon7560_s8)
#include <cstdio>

#include "kernels/kernel.h"
#include "machine/topology.h"
#include "sched/registry.h"
#include "sim/engine.h"
#include "util/table.h"

using namespace sbs;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::stoull(argv[1]) : 1'000'000;
  const std::string machine_name = argc > 2 ? argv[2] : "xeon7560_s8";

  const machine::Topology topo(machine::Preset(machine_name));
  std::printf("%s\n", topo.describe().c_str());

  kernels::KernelParams params;
  params.n = n;
  params.machine_scale = machine::PresetScale(machine_name);
  auto kernel = kernels::MakeKernel("quicksort", params);
  kernel->prepare(/*seed=*/2026);

  Table table("Quicksort, " + std::to_string(n) + " doubles on " +
              machine_name);
  table.set_header({"scheduler", "sim time", "active", "overhead",
                    "L3 misses", "verified"});

  sim::SimEngine engine(topo);
  for (const auto& name : sched::SchedulerNames()) {
    auto sched = sched::MakeScheduler(name);
    const sim::SimResult r = engine.run(*sched, kernel->make_root());
    const bool ok = kernel->verify();
    table.add_row({name, fmt_seconds(r.stats.wall_s),
                   fmt_seconds(r.stats.avg_active_s()),
                   fmt_seconds(r.stats.avg_overhead_s()),
                   fmt_millions(static_cast<double>(r.counters.llc_misses()), 2),
                   ok ? "yes" : "NO"});
  }
  table.print();
  return 0;
}
