// General-purpose experiment driver: any kernel × any scheduler × any
// machine × either engine, from the command line. The "main" of the
// framework a downstream user would reach for first.
//
//   ./run_any --kernel=quicksort --sched=SB --machine=xeon7560_s8 --n=1000000
//   ./run_any --kernel=rrm --sched=WS --engine=threads --threads=4
//   ./run_any --kernel=matmul --n=512 --sched=SB-D --sigma=0.7 --sockets=1
//   ./run_any --kernel=quicksort --sched=SB --trace=out.json
//             --metrics-json=metrics.jsonl   # Perfetto trace + summary line
//   ./run_any --kernel=quicksort --sched=SB --verify
//             --trace-jsonl=run.jsonl        # invariant checking + replay file
#include <cstdio>
#include <memory>
#include <utility>

#include "kernels/kernel.h"
#include "machine/topology.h"
#include "runtime/thread_pool.h"
#include "sched/registry.h"
#include "sim/engine.h"
#include "trace/analysis.h"
#include "trace/chrome_trace.h"
#include "trace/jsonl_trace.h"
#include "util/cli.h"
#include "verify/invariants.h"

using namespace sbs;

int main(int argc, char** argv) {
  std::string kernel_name = "rrm";
  std::string sched_name = "WS";
  std::string machine_name = "xeon7560_s8";
  std::string machine_file;
  std::string engine_name = "sim";
  std::int64_t n = 0;
  std::int64_t threads = -1;
  std::int64_t sockets = 0;  // memory sockets (bandwidth); 0 = all
  std::int64_t quantum = 0;  // 0 = SimParams default
  std::int64_t seed = 12345;
  double sigma = 0.5, mu = 0.2;
  bool verify_invariants = false;
  std::string trace_path;
  std::string jsonl_trace_path;
  std::string metrics_path;

  Cli cli("run_any", "run any kernel under any scheduler on any machine");
  cli.add_string("kernel", &kernel_name,
                 "rrm|rrg|quicksort|samplesort|aware-samplesort|quadtree|matmul");
  cli.add_string("sched", &sched_name, "WS|PWS|CilkWS|SB|SB-D");
  cli.add_string("machine", &machine_name, "machine preset name");
  cli.add_string("machine-file", &machine_file,
                 "Fig.4-syntax config file (overrides --machine)");
  cli.add_string("engine", &engine_name,
                 "sim (PMH simulator) or threads (real thread pool)");
  cli.add_int("n", &n, "problem size (elements; matrix order for matmul)");
  cli.add_int("threads", &threads, "worker count (-1 = all)");
  cli.add_int("sockets", &sockets,
              "memory sockets in use (simulator bandwidth throttle)");
  cli.add_int("quantum", &quantum,
              "simulator skew quantum in cycles (0 = default)");
  cli.add_int("seed", &seed, "input seed");
  cli.add_double("sigma", &sigma, "space-bounded dilation");
  cli.add_double("mu", &mu, "space-bounded strand cap");
  cli.add_flag("verify", &verify_invariants,
               "wrap the scheduler in the online invariant checker "
               "(src/verify); exit nonzero on any violation");
  cli.add_string("trace", &trace_path,
                 "write a Chrome trace (Perfetto-loadable) of the run here");
  cli.add_string("trace-jsonl", &jsonl_trace_path,
                 "write a JSONL trace (tools/trace_check input) here");
  cli.add_string("metrics-json", &metrics_path,
                 "write a one-line JSONL metrics summary of the run here");
  if (!cli.parse(argc, argv)) return 0;

  const machine::MachineConfig cfg =
      machine_file.empty() ? machine::Preset(machine_name)
                           : machine::LoadConfigFile(machine_file);
  const machine::Topology topo(cfg);
  std::printf("%s\n", topo.describe().c_str());

  kernels::KernelParams params;
  params.machine_scale = machine::PresetScale(cfg.name);
  params.n = n > 0 ? static_cast<std::size_t>(n)
                   : (kernel_name == "matmul" ? 512 : 1'000'000);
  params.base = params.scaled(2048);
  auto kernel = kernels::MakeKernel(kernel_name, params);
  kernel->prepare(static_cast<std::uint64_t>(seed));
  std::printf("kernel %s, n=%zu (%.1f MB footprint)\n",
              kernel->name().c_str(), params.n,
              static_cast<double>(kernel->problem_bytes()) / (1 << 20));

  sched::SchedulerSpec spec;
  spec.name = sched_name;
  spec.sb.sigma = sigma;
  spec.sb.mu = mu;
  std::unique_ptr<runtime::Scheduler> sched = sched::MakeScheduler(spec);
  verify::VerifyingScheduler* checker = nullptr;
  if (verify_invariants) {
    auto wrapped =
        std::make_unique<verify::VerifyingScheduler>(std::move(sched));
    checker = wrapped.get();
    sched = std::move(wrapped);
  }

  const bool tracing = !trace_path.empty() || !jsonl_trace_path.empty() ||
                       !metrics_path.empty();
  const auto export_trace = [&](const trace::Recorder& rec,
                                const trace::EngineOverheads* engine_ov) {
    if (!trace_path.empty()) {
      trace::TraceInfo info;
      info.engine = engine_name;
      info.scheduler = sched_name;
      info.machine = cfg.name;
      info.label = kernel_name;
      if (trace::WriteChromeTrace(rec, trace_path, info)) {
        std::printf("trace: %s (%llu events, %llu dropped)\n",
                    trace_path.c_str(),
                    static_cast<unsigned long long>(rec.total_recorded()),
                    static_cast<unsigned long long>(rec.total_dropped()));
      } else {
        std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
      }
    }
    if (!jsonl_trace_path.empty()) {
      trace::TraceInfo info;
      info.engine = engine_name;
      info.scheduler = sched_name;
      info.machine = cfg.name;
      info.label = kernel_name;
      trace::JsonlTraceParams params;
      params.config_text = machine::ToConfigText(cfg);
      if (sched_name == "SB" || sched_name == "SB-D") {
        params.sigma = sigma;
        params.mu = mu;
      }
      if (trace::WriteJsonlTrace(rec, jsonl_trace_path, info, params)) {
        std::printf("trace-jsonl: %s (%llu events, %llu dropped)\n",
                    jsonl_trace_path.c_str(),
                    static_cast<unsigned long long>(rec.total_recorded()),
                    static_cast<unsigned long long>(rec.total_dropped()));
      } else {
        std::fprintf(stderr, "failed to write %s\n",
                     jsonl_trace_path.c_str());
      }
    }
    if (!metrics_path.empty()) {
      const std::string label = kernel_name + "/" + sched_name;
      if (trace::WriteMetricsJsonl(trace::Analyze(rec), metrics_path, label,
                                   /*truncate=*/true, engine_ov)) {
        std::printf("metrics: %s\n", metrics_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", metrics_path.c_str());
      }
    }
  };

  if (engine_name == "threads") {
    runtime::ThreadPool pool(topo, static_cast<int>(threads));
    if (tracing) pool.enable_tracing();
    const runtime::RunStats stats = pool.run(*sched, kernel->make_root());
    std::printf("[threads] %s\n", stats.summary().c_str());
    if (tracing) export_trace(*pool.recorder(), nullptr);
  } else {
    sim::SimParams sp;
    sp.num_threads = static_cast<int>(threads);
    if (quantum > 0) sp.skew_quantum = static_cast<std::uint64_t>(quantum);
    for (int s = 0; s < sockets; ++s) sp.memory.allowed_sockets.push_back(s);
    sim::SimEngine engine(topo, sp);
    if (tracing) engine.enable_tracing();
    const sim::SimResult r = engine.run(*sched, kernel->make_root());
    std::printf("[sim] %s\n", r.stats.summary().c_str());
    std::printf("[sim] %s\n", r.counters.summary().c_str());
    if (tracing) {
      trace::EngineOverheads ov;
      ov.windows_executed = r.counters.windows_executed;
      ov.window_merges = r.counters.window_merges;
      ov.pump_passes = r.counters.pump_passes;
      ov.fiber_switches = r.counters.fiber_switches;
      export_trace(*engine.recorder(), &ov);
    }
  }
  std::printf("scheduler stats: %s\n", sched->stats_string().c_str());
  if (checker != nullptr) {
    std::printf("%s\n", checker->report().c_str());
  }
  std::printf("verify: %s\n", kernel->verify() ? "OK" : "FAILED");
  const bool ok = kernel->verify() && (checker == nullptr || checker->ok());
  return ok ? 0 : 1;
}
