// The figure driver shared by the figure-reproduction bench binaries.
//
// A figure bench declares its cells as groups, one ExperimentSpec each, and
// keeps only its table and headline. Figure does the rest: it parses the
// standard bench flags, builds each spec from them, runs the groups into
// one metrics file, and writes every group's cells to BENCH_<name>.json.
//
// Defaults are sized so the whole bench suite regenerates every figure in
// minutes on a laptop-class host; --full switches to the paper's problem
// sizes (10M-element synthetics, 100M-element kernels, 5.12K² matmul) and
// 10 repetitions, which takes correspondingly longer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "util/cli.h"

namespace sbs::harness {

/// The standard bench flags.
struct BenchOptions {
  bool full = false;
  std::int64_t n = 0;      ///< 0 = per-bench default
  std::int64_t reps = 0;   ///< 0 = per-bench default (2; 10 with --full)
  std::string machine;     ///< empty = per-bench default
  std::int64_t seed = 12345;
  double sigma = 0.5;
  double mu = 0.2;
  std::int64_t threads = -1;
  /// --verify: wrap every scheduler in the verify:: invariant checker
  /// (correctness run; callbacks are serialized, timings meaningless).
  bool verify = false;
  std::string trace;         ///< Chrome trace of each cell's first repetition
  std::string metrics_json;  ///< JSONL metrics summary, one line per cell

  int repetitions() const {
    if (reps > 0) return static_cast<int>(reps);
    return full ? 10 : 2;
  }
  std::size_t problem_n(std::size_t dflt, std::size_t full_n) const {
    if (n > 0) return static_cast<std::size_t>(n);
    return full ? full_n : dflt;
  }
  /// Machine for this run: --machine wins; otherwise the paper's machine
  /// with --full and the ÷8-scaled twin (identical ratios) by default.
  std::string machine_for(const std::string& suffix = "") const {
    if (!machine.empty()) return machine;
    return (full ? "xeon7560" : "xeon7560_s8") + suffix;
  }
};

class Figure {
 public:
  /// `name` names the binary in --help and the BENCH_<name>.json file.
  Figure(std::string name, const std::string& description);
  // The parsed flags' targets are this object's members.
  Figure(const Figure&) = delete;
  Figure& operator=(const Figure&) = delete;

  /// The command line; a bench registers its own flags here before parse().
  Cli& cli() { return cli_; }
  /// Registers the standard flags and parses argv, then empties the
  /// --metrics-json file. Returns false on --help (the caller exits 0).
  bool parse(int argc, char** argv);
  const BenchOptions& options() const { return opts_; }
  /// Names the BENCH file after `name` instead of the binary.
  void set_name(std::string name) { name_ = std::move(name); }

  /// A spec for `kernel` on machine_for(`machine_suffix`) with every flag
  /// applied: the machine's scale and the RRM/RRG base (2048 / scale),
  /// problem_n(quick_n, full_n), repetitions, seed, σ, µ, threads,
  /// --verify, and the trace and metrics paths. Schedulers and bandwidth
  /// keep ExperimentSpec's defaults.
  ExperimentSpec spec(const std::string& kernel, std::size_t quick_n,
                      std::size_t full_n,
                      const std::string& machine_suffix = "") const;

  /// Runs one group and records its cells for the BENCH file. A nonempty
  /// `group` suffixes the trace path and prefixes the metrics labels, so
  /// groups neither overwrite each other's traces nor share labels.
  std::vector<CellResult> run(const std::string& group, ExperimentSpec spec);

  /// Writes every group run so far to BENCH_<name>.json in the current
  /// directory. Returns false, after saying so on stderr, on failure.
  bool write() const;

 private:
  struct Group {
    std::string label;
    ExperimentSpec spec;
    std::vector<CellResult> cells;
  };

  std::string name_;
  Cli cli_;
  BenchOptions opts_;
  std::vector<Group> groups_;
};

}  // namespace sbs::harness
