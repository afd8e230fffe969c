// Tests for the execution-tracing subsystem: ring-buffer semantics, the
// virtual-clock contract with the simulator, exporter validity (the Chrome
// trace must parse as JSON), and a golden comparison of the trace's anchor
// histogram against the space-bounded scheduler's own counters.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/kernel.h"
#include "machine/topology.h"
#include "runtime/jobs.h"
#include "runtime/thread_pool.h"
#include "sched/registry.h"
#include "sched/sb.h"
#include "sim/engine.h"
#include "trace/analysis.h"
#include "trace/chrome_trace.h"
#include "trace/recorder.h"
#include "util/json.h"

namespace sbs::trace {
namespace {

using machine::Preset;
using machine::Topology;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Unique per process, so that test cases run side by side never share a
/// file.
std::string temp_path(const char* name) {
  return ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
}

/// True if `text` is one complete JSON value.
bool parses(const std::string& text, std::string* error = nullptr) {
  JsonValue doc;
  return JsonParse(text, &doc, error);
}

TEST(Recorder, RingWraparoundKeepsNewestInOrder) {
  Recorder rec(1, 8);
  rec.begin_run(/*virtual_time=*/true, 1e9);
  for (std::uint64_t i = 0; i < 20; ++i)
    rec.record(0, EventKind::kStrand, /*ts=*/i);

  EXPECT_EQ(rec.recorded(0), 20u);
  EXPECT_EQ(rec.dropped(0), 12u);
  const std::vector<Event> events = rec.events(0);
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].ts, 12 + i);  // the 8 newest, oldest first
}

TEST(Recorder, CapacityRoundsUpToPowerOfTwo) {
  Recorder rec(1, 6);  // rounds to 8
  rec.begin_run(true, 1e9);
  for (std::uint64_t i = 0; i < 8; ++i)
    rec.record(0, EventKind::kStrand, i);
  EXPECT_EQ(rec.dropped(0), 0u);
  rec.record(0, EventKind::kStrand, 8);
  EXPECT_EQ(rec.dropped(0), 1u);
}

TEST(Recorder, BeginRunResetsRings) {
  Recorder rec(2, 8);
  rec.begin_run(true, 1e9);
  rec.record(0, EventKind::kStrand, 1);
  rec.record(1, EventKind::kStrand, 2);
  rec.begin_run(true, 1e9);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.events(0).empty());
}

TEST(Recorder, EmitWithoutActiveRecorderIsSafe) {
  ASSERT_EQ(active(), nullptr);
  emit(0, EventKind::kStealAttempt, 1);  // must not crash
  Recorder rec(1, 8);
  rec.begin_run(true, 1e9);
  {
    Scope scope(&rec);
    ASSERT_EQ(active(), &rec);
    emit(0, EventKind::kStealAttempt, /*a=*/3);
  }
  EXPECT_EQ(active(), nullptr);
  const auto events = rec.events(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kStealAttempt);
  EXPECT_EQ(events[0].a, 3u);
}

TEST(Recorder, DisabledEnginesRecordNothing) {
  const Topology topo(Preset("mini"));
  runtime::ThreadPool pool(topo);
  EXPECT_EQ(pool.recorder(), nullptr);  // tracing is strictly opt-in

  kernels::KernelParams params;
  params.n = 20000;
  params.base = 512;
  auto kernel = kernels::MakeKernel("rrm", params);
  kernel->prepare(1);
  sim::SimEngine engine(topo);
  EXPECT_EQ(engine.recorder(), nullptr);
  auto sched = sched::MakeScheduler("WS");
  engine.run(*sched, kernel->make_root());
  EXPECT_EQ(engine.recorder(), nullptr);
}

/// Run a kernel on the simulator with tracing enabled; returns the engine
/// so the caller can inspect the recorder.
struct TracedSimRun {
  std::unique_ptr<sim::SimEngine> engine;
  std::unique_ptr<runtime::Scheduler> sched;
};

// The SB runs use the ÷8-scaled paper machine: "mini"'s two-level tree is
// too shallow for small quicksort tasks to ever befit a non-root cache.
TracedSimRun traced_sim_run(const std::string& kernel_name,
                            const std::string& sched_name, std::size_t n,
                            const std::string& machine = "mini") {
  const Topology topo(Preset(machine));
  kernels::KernelParams params;
  params.n = n;
  params.base = 512;
  auto kernel = kernels::MakeKernel(kernel_name, params);
  kernel->prepare(1);
  TracedSimRun run;
  run.engine = std::make_unique<sim::SimEngine>(topo);
  run.engine->enable_tracing();
  sched::SchedulerSpec spec;
  spec.name = sched_name;
  run.sched = sched::MakeScheduler(spec);
  run.engine->run(*run.sched, kernel->make_root());
  return run;
}

TEST(SimTracing, PerCoreVirtualTimestampsAreMonotone) {
  const TracedSimRun run = traced_sim_run("quicksort", "WS", 20000);
  const Recorder& rec = *run.engine->recorder();
  EXPECT_TRUE(rec.virtual_time());
  EXPECT_GT(rec.total_recorded(), 0u);
  for (int w = 0; w < rec.num_workers(); ++w) {
    const auto events = rec.events(w);
    EXPECT_FALSE(events.empty()) << "worker " << w << " recorded nothing";
    std::uint64_t prev = 0;
    for (const Event& e : events) {
      EXPECT_GE(e.ts, prev) << "worker " << w << " went backwards";
      prev = e.ts;
    }
  }
}

TEST(SimTracing, EveryWorkerShowsUpInTheChromeTrace) {
  const TracedSimRun run =
      traced_sim_run("quicksort", "SB", 20000, "xeon7560_s8");
  const std::string path = temp_path("trace_sb.json");
  TraceInfo info;
  info.engine = "sim";
  info.scheduler = "SB";
  info.machine = "xeon7560_s8";
  ASSERT_TRUE(WriteChromeTrace(*run.engine->recorder(), path, info));

  const std::string text = slurp(path);
  std::string error;
  EXPECT_TRUE(parses(text, &error)) << error;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"anchor\""), std::string::npos);
  EXPECT_NE(text.find("\"level\""), std::string::npos);
  for (int w = 0; w < run.engine->recorder()->num_workers(); ++w) {
    const std::string tid = "\"tid\":" + std::to_string(w) + ",";
    EXPECT_NE(text.find(tid), std::string::npos) << "worker " << w;
  }
  std::remove(path.c_str());
}

TEST(SimTracing, GoldenAnchorHistogramMatchesScheduler) {
  const TracedSimRun run =
      traced_sim_run("quicksort", "SB", 20000, "xeon7560_s8");
  const auto* sb = dynamic_cast<const sched::SpaceBounded*>(run.sched.get());
  ASSERT_NE(sb, nullptr);
  ASSERT_GT(sb->total_anchors(), 0u);

  const TraceAnalysis analysis = Analyze(*run.engine->recorder());
  EXPECT_EQ(analysis.totals().anchors, sb->total_anchors());
  std::uint64_t histogram_total = 0;
  int occupied_levels = 0;
  for (std::size_t d = 0; d < analysis.anchors_by_level.size(); ++d) {
    EXPECT_EQ(analysis.anchors_by_level[d],
              sb->anchors_at_depth(static_cast<int>(d)))
        << "depth " << d;
    histogram_total += analysis.anchors_by_level[d];
    if (sb->anchors_at_depth(static_cast<int>(d)) > 0) {
      ++occupied_levels;
      // The acceptance bar: at least one level-tagged anchor event per
      // cache level the scheduler actually anchored to.
      EXPECT_GE(analysis.anchors_by_level[d], 1u);
    }
  }
  EXPECT_EQ(histogram_total, sb->total_anchors());
  EXPECT_GE(occupied_levels, 1);
}

TEST(SimTracing, MetricsJsonlLinesEachValidate) {
  const TracedSimRun run =
      traced_sim_run("quicksort", "SB", 20000, "xeon7560_s8");
  const TraceAnalysis analysis = Analyze(*run.engine->recorder());
  EXPECT_GT(analysis.totals().strands, 0u);
  EXPECT_GT(analysis.load_imbalance(), 0.0);

  const std::string path = temp_path("metrics.jsonl");
  ASSERT_TRUE(WriteMetricsJsonl(analysis, path, "first", /*truncate=*/true));
  ASSERT_TRUE(WriteMetricsJsonl(analysis, path, "second"));

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    std::string error;
    EXPECT_TRUE(parses(line, &error)) << "line " << lines << ": " << error;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(ThreadTracing, RealEngineProducesAValidTrace) {
  const Topology topo(Preset("mini"));
  runtime::ThreadPool pool(topo);
  pool.enable_tracing();
  kernels::KernelParams params;
  params.n = 20000;
  params.base = 512;
  auto kernel = kernels::MakeKernel("rrm", params);
  kernel->prepare(1);
  auto sched = sched::MakeScheduler("WS");
  pool.run(*sched, kernel->make_root());

  ASSERT_NE(pool.recorder(), nullptr);
  EXPECT_FALSE(pool.recorder()->virtual_time());
  EXPECT_GT(pool.recorder()->total_recorded(), 0u);

  const std::string path = temp_path("trace_threads.json");
  ASSERT_TRUE(WriteChromeTrace(*pool.recorder(), path));
  std::string error;
  EXPECT_TRUE(parses(slurp(path), &error)) << error;
  std::remove(path.c_str());

  const TraceAnalysis analysis = Analyze(*pool.recorder());
  EXPECT_FALSE(analysis.virtual_time);
  EXPECT_GT(analysis.totals().strands, 0u);
  EXPECT_GT(analysis.totals().active_ticks, 0u);
}

TEST(Json, WriterAndValidatorRoundTrip) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", std::string("a\"b\\c\n"));
  w.kv("pi", 3.25);
  w.kv("neg", std::int64_t{-7});
  w.kv("big", std::uint64_t{18446744073709551615ull});
  w.kv("flag", true);
  w.key("arr").begin_array().value(1).value(2).end_array();
  w.key("nested").begin_object().kv("x", 0.5).end_object();
  w.end_object();

  std::string error;
  EXPECT_TRUE(parses(w.str(), &error)) << error << "\n" << w.str();
  EXPECT_FALSE(parses("{\"unterminated\": ", &error));
  EXPECT_FALSE(parses("{} trailing", &error));
  EXPECT_TRUE(parses("[1, 2.5e-3, \"\\u00e9\", null, false]"));
}

TEST(Json, WriteJsonLineReportsAFailedFlush) {
  // /dev/full opens, and the write fails when fclose flushes it.
  EXPECT_FALSE(WriteJsonLine("/dev/full", "{}"));
  EXPECT_FALSE(WriteJsonLine("/dev/full", "{}", /*append=*/true));
}

}  // namespace
}  // namespace sbs::trace
