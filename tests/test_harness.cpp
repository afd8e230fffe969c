// Tests for the experiment harness: matrix shape, verification wiring,
// bandwidth sweeps, figure-table rendering, and the figure driver.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/figure.h"
#include "util/json.h"

namespace sbs::harness {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.kernel = "rrm";
  spec.machine = "mini";
  spec.params.n = 30000;
  spec.params.base = 512;
  spec.schedulers = {"WS", "SB"};
  spec.repetitions = 2;
  return spec;
}

TEST(Harness, MatrixShapeAndOrdering) {
  ExperimentSpec spec = small_spec();
  spec.bandwidth_sockets = {2, 1};
  const auto results = RunExperiment(spec, /*progress=*/false);
  ASSERT_EQ(results.size(), 4u);  // 2 bandwidths x 2 schedulers
  EXPECT_EQ(results[0].bw_sockets, 2);
  EXPECT_EQ(results[0].scheduler, "WS");
  EXPECT_EQ(results[1].scheduler, "SB");
  EXPECT_EQ(results[2].bw_sockets, 1);
  for (const auto& c : results) {
    EXPECT_TRUE(c.verified);
    EXPECT_GT(c.active_s, 0.0);
    EXPECT_GT(c.llc_misses, 0.0);
    EXPECT_EQ(c.total_sockets, 2);
  }
  EXPECT_DOUBLE_EQ(results[0].bw_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(results[2].bw_fraction(), 0.5);
}

TEST(Harness, DefaultSweepIsFullBandwidth) {
  const auto results = RunExperiment(small_spec(), false);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].bw_sockets, 2);  // all of mini's sockets
}

TEST(Harness, LessBandwidthNeverSpeedsUpMemoryBoundRuns) {
  ExperimentSpec spec = small_spec();
  spec.params.n = 60000;
  spec.schedulers = {"WS"};
  spec.bandwidth_sockets = {2, 1};
  const auto results = RunExperiment(spec, false);
  const double full = results[0].active_s;
  const double half = results[1].active_s;
  EXPECT_GE(half, full * 0.99);
}

TEST(Harness, FigureTableHasRowPerCell) {
  const auto results = RunExperiment(small_spec(), false);
  const Table table = MakeFigureTable("test", results);
  EXPECT_EQ(table.num_rows(), results.size());
  const std::string text = table.to_string();
  EXPECT_NE(text.find("WS"), std::string::npos);
  EXPECT_NE(text.find("SB"), std::string::npos);
  EXPECT_NE(text.find("100% b/w"), std::string::npos);
}

TEST(BenchCli, DefaultsAndOverrides) {
  BenchOptions opts;
  EXPECT_EQ(opts.repetitions(), 2);
  EXPECT_EQ(opts.machine_for(), "xeon7560_s8");
  EXPECT_EQ(opts.machine_for("_ht"), "xeon7560_s8_ht");
  EXPECT_EQ(opts.problem_n(100, 1000), 100u);
  opts.full = true;
  EXPECT_EQ(opts.repetitions(), 10);
  EXPECT_EQ(opts.machine_for(), "xeon7560");
  EXPECT_EQ(opts.problem_n(100, 1000), 1000u);
  opts.n = 7;
  opts.reps = 4;
  opts.machine = "mini";
  EXPECT_EQ(opts.problem_n(100, 1000), 7u);
  EXPECT_EQ(opts.repetitions(), 4);
  EXPECT_EQ(opts.machine_for(), "mini");
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(Figure, GroupsShareOneMetricsFileAndOneBenchFile) {
  // The BENCH file lands in the current directory: run in a fresh one.
  std::string dir = ::testing::TempDir() + "figure_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  char old_cwd[4096];
  ASSERT_NE(::getcwd(old_cwd, sizeof old_cwd), nullptr);
  ASSERT_EQ(::chdir(dir.c_str()), 0);
  std::ofstream("m.jsonl") << "{\"label\":\"stale\"}\n";

  Figure fig("figure_test", "two groups");
  std::vector<std::string> args = {"figure_test", "--machine=mini",
                                   "--n=20000", "--trace=t.json",
                                   "--metrics-json=m.jsonl"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  ASSERT_TRUE(fig.parse(static_cast<int>(argv.size()), argv.data()));
  for (const char* group : {"first", "second"}) {
    ExperimentSpec spec = fig.spec("rrm", 1'000'000, 10'000'000);
    spec.schedulers = {"WS", "SB"};
    EXPECT_EQ(fig.run(group, spec).size(), 2u);
  }
  ASSERT_TRUE(fig.write());

  const std::vector<std::string> lines = ReadLines("m.jsonl");
  ASSERT_EQ(lines.size(), 4u);  // the stale line is gone
  const char* labels[] = {"first/rrm@mini/WS/2bw", "first/rrm@mini/SB/2bw",
                          "second/rrm@mini/WS/2bw", "second/rrm@mini/SB/2bw"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    JsonValue line;
    ASSERT_TRUE(JsonParse(lines[i], &line)) << lines[i];
    EXPECT_EQ(line["label"].as_string(), labels[i]);
  }
  for (const char* trace : {"t.first.WS_2bw.json", "t.first.SB_2bw.json",
                            "t.second.WS_2bw.json", "t.second.SB_2bw.json"}) {
    EXPECT_TRUE(std::ifstream(trace).good()) << trace;
  }

  const std::vector<std::string> bench = ReadLines("BENCH_figure_test.json");
  ASSERT_EQ(bench.size(), 1u);
  JsonValue doc;
  ASSERT_TRUE(JsonParse(bench[0], &doc));
  EXPECT_EQ(doc["bench"].as_string(), "figure_test");
  const std::vector<JsonValue>& groups = doc["groups"].items();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0]["label"].as_string(), "first");
  EXPECT_EQ(groups[1]["label"].as_string(), "second");
  EXPECT_EQ(groups[1]["n"].as_u64(), 20000u);
  EXPECT_EQ(groups[1]["cells"].size(), 2u);
  ASSERT_EQ(::chdir(old_cwd), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sbs::harness
