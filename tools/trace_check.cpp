// trace_check — offline re-verification of exported JSONL traces.
//
//   ./run_any --kernel=quicksort --sched=SB --trace-jsonl=run.trace.jsonl
//   ./trace_check run.trace.jsonl [more.trace.jsonl ...]
//
// Parses each trace, rebuilds the machine from the embedded
// config, and replays the scheduler-level invariants (see
// src/verify/trace_check.h for the exact property list). Exit status 0 iff
// every trace passes.
#include <cstdio>

#include "util/cli.h"
#include "verify/trace_check.h"

int main(int argc, char** argv) {
  bool quiet = false;
  sbs::Cli cli("trace_check",
               "re-verify scheduler invariants from JSONL trace files");
  cli.add_flag("quiet", &quiet, "print only failing traces");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.positional().empty()) {
    std::fprintf(stderr, "usage: trace_check [--quiet] <trace.jsonl>...\n");
    return 2;
  }

  int failures = 0;
  for (const std::string& path : cli.positional()) {
    const sbs::verify::TraceCheckResult result =
        sbs::verify::CheckTraceFile(path);
    if (!result.ok()) ++failures;
    if (!result.ok() || !quiet) {
      std::printf("%s: %s\n", path.c_str(), result.report().c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}
