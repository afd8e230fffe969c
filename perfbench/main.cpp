// perfbench: one benchmark run of one workload.
//
//   perfbench --workload sim-fig8 --seed 1 --seconds 20 --trace 0
//             [--smoke] [--spans out.json]
//
// Prints a table of every metric with its unit and sample count, then, as
// the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see README.md). perfbench/run.py builds and drives it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sim-fig8|sim-huge64|service-poisson --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) {
        return Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!(args.seconds > 0 && args.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }

  perfbench::Report report;
  perfbench::Report context;
  perfbench::SpanLog spans;
  perfbench::SpanLog* span_log = args.trace ? &spans : nullptr;
  perfbench::Outcome outcome;
  if (args.workload == "sim-fig8" || args.workload == "sim-huge64") {
    outcome = perfbench::RunSimWorkload(args, report, context, span_log);
  } else if (args.workload == "service-poisson") {
    outcome = perfbench::RunServiceWorkload(args, report, context, span_log);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  if (span_log != nullptr && !args.spans_path.empty() &&
      !spans.WriteChromeTrace(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_path.c_str());
    return 1;
  }
  std::printf("# %s seed=%llu seconds=%g trace=%d: %llu ops, %llu failed%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0,
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.correct ? "" : ", OUTPUT CHECK FAILED");
  std::printf("# context (not part of the result):\n");
  context.Print();
  std::printf("# metrics:\n");
  report.Print();
  std::printf("%s\n", report
                          .ResultJson(outcome.correct, outcome.attempted,
                                      outcome.failed)
                          .c_str());
  return std::fflush(stdout) == 0 ? 0 : 1;
}
