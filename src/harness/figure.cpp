#include "harness/figure.h"

#include <cstdio>

#include "machine/config.h"
#include "util/assert.h"
#include "util/json.h"

namespace sbs::harness {

Figure::Figure(std::string name, const std::string& description)
    : name_(std::move(name)), cli_(name_, description) {}

bool Figure::parse(int argc, char** argv) {
  cli_.add_flag("full", &opts_.full,
                "paper-scale problem sizes and 10 repetitions");
  cli_.add_int("n", &opts_.n, "problem size override (elements)");
  cli_.add_int("reps", &opts_.reps,
               "repetitions per cell (default 2; 10 with --full)");
  cli_.add_string("machine", &opts_.machine,
                  "machine preset (default xeon7560_s8; xeon7560 with --full)");
  cli_.add_int("seed", &opts_.seed, "input-generation seed");
  cli_.add_double("sigma", &opts_.sigma,
                  "space-bounded dilation parameter (default 0.5)");
  cli_.add_double("mu", &opts_.mu,
                  "space-bounded strand occupancy cap (default 0.2)");
  cli_.add_int("threads", &opts_.threads,
               "worker threads (-1 = all hardware threads)");
  cli_.add_flag("verify", &opts_.verify,
                "check scheduler invariants on every run (serializes "
                "callbacks; use for correctness, not timing)");
  cli_.add_string("trace", &opts_.trace,
                  "write a Chrome trace of each cell's first repetition here");
  cli_.add_string("metrics-json", &opts_.metrics_json,
                  "write a JSONL metrics summary line per cell to this path");
  if (!cli_.parse(argc, argv)) return false;
  if (!opts_.metrics_json.empty()) {
    // Every group appends its cells' lines; start the file empty.
    std::FILE* f = std::fopen(opts_.metrics_json.c_str(), "w");
    SBS_CHECK_MSG(f != nullptr && std::fclose(f) == 0,
                  "failed to write --metrics-json output");
  }
  return true;
}

ExperimentSpec Figure::spec(const std::string& kernel, std::size_t quick_n,
                            std::size_t full_n,
                            const std::string& machine_suffix) const {
  ExperimentSpec spec;
  spec.kernel = kernel;
  spec.machine = opts_.machine_for(machine_suffix);
  spec.params.machine_scale = machine::PresetScale(spec.machine);
  spec.params.n = opts_.problem_n(quick_n, full_n);
  spec.params.base = 2048 / static_cast<std::size_t>(spec.params.machine_scale);
  spec.repetitions = opts_.repetitions();
  spec.seed = static_cast<std::uint64_t>(opts_.seed);
  spec.sb.sigma = opts_.sigma;
  spec.sb.mu = opts_.mu;
  spec.num_threads = static_cast<int>(opts_.threads);
  spec.verify_invariants = opts_.verify;
  spec.trace_path = opts_.trace;
  spec.metrics_path = opts_.metrics_json;
  return spec;
}

std::vector<CellResult> Figure::run(const std::string& group,
                                    ExperimentSpec spec) {
  if (!group.empty()) {
    if (!spec.trace_path.empty())
      spec.trace_path = WithPathSuffix(spec.trace_path, group);
    spec.label_prefix = group;
  }
  std::vector<CellResult> cells = RunExperiment(spec);
  groups_.push_back({group, std::move(spec), cells});
  return cells;
}

bool Figure::write() const {
  JsonWriter w;
  w.begin_object();
  w.kv("bench", name_);
  w.kv("schema_version", 1);
  w.key("groups").begin_array();
  for (const Group& g : groups_) {
    w.begin_object();
    if (!g.label.empty()) w.kv("label", g.label);
    w.kv("kernel", g.spec.kernel);
    w.kv("machine", g.spec.machine);
    w.kv("n", static_cast<std::uint64_t>(g.spec.params.n));
    w.kv("repetitions", g.spec.repetitions);
    w.kv("sigma", g.spec.sb.sigma);
    w.kv("mu", g.spec.sb.mu);
    w.key("cells").begin_array();
    for (const CellResult& c : g.cells) {
      w.begin_object();
      w.kv("scheduler", c.scheduler);
      w.kv("bw_sockets", c.bw_sockets);
      w.kv("total_sockets", c.total_sockets);
      w.kv("active_s", c.active_s);
      w.kv("overhead_s", c.overhead_s);
      w.kv("empty_s", c.empty_s);
      w.kv("wall_s", c.wall_s);
      w.kv("llc_misses", c.llc_misses);
      w.kv("llc_hits", c.llc_hits);
      w.kv("dram_reads", c.dram_reads);
      w.kv("queue_wait_cycles", c.queue_wait_cycles);
      w.kv("strands", c.strands);
      w.kv("empty_wakeups", c.empty_wakeups);
      w.kv("verified", c.verified);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const std::string path = "BENCH_" + name_ + ".json";
  if (WriteJsonLine(path, w.str())) return true;
  std::fprintf(stderr, "failed to write %s\n", path.c_str());
  return false;
}

}  // namespace sbs::harness
