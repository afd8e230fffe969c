// Tests for the JSONL trace format (schema 2) and the
// offline replay checker (verify::CheckTrace / tools/trace_check).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "machine/config.h"
#include "machine/topology.h"
#include "runtime/jobs.h"
#include "sched/registry.h"
#include "sim/engine.h"
#include "trace/jsonl_trace.h"
#include "verify/trace_check.h"

namespace sbs::verify {
namespace {

using machine::Preset;
using machine::Topology;
using runtime::Job;
using runtime::Strand;
using runtime::make_job;
using runtime::make_nop;
using trace::EventKind;
using trace::JsonlTrace;

Job* tree(std::uint64_t bytes, int depth) {
  if (depth == 0) return make_job([](Strand&) {}, bytes);
  return make_job(
      [bytes, depth](Strand& strand) {
        strand.fork2(tree(bytes / 2, depth - 1), tree(bytes / 2, depth - 1),
                     make_nop());
      },
      bytes, 64);
}

/// Unique per process, so that test cases run side by side never share a
/// file.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
}

/// Run `tree` under `sched_name` on mini with tracing and export the JSONL
/// trace; returns the file path.
std::string export_run(const std::string& sched_name) {
  const machine::MachineConfig cfg = Preset("mini");
  const Topology topo(cfg);
  sched::SchedulerSpec spec;
  spec.name = sched_name;
  auto sched = sched::MakeScheduler(spec);
  sim::SimEngine engine(topo);
  engine.enable_tracing();
  engine.run(*sched, tree(1u << 17, 8));

  trace::TraceInfo info;
  info.engine = "sim";
  info.scheduler = sched_name;
  info.machine = cfg.name;
  trace::JsonlTraceParams params;
  params.config_text = machine::ToConfigText(cfg);
  if (sched_name == "SB" || sched_name == "SB-D") {
    params.sigma = 0.5;
    params.mu = 0.2;
  }
  const std::string path = temp_path("trace_" + sched_name + ".jsonl");
  EXPECT_TRUE(trace::WriteJsonlTrace(*engine.recorder(), path, info, params));
  return path;
}

TEST(TraceCheck, RealTracesFromAllSchedulersPass) {
  for (const char* name : {"WS", "PWS", "SB", "SB-D"}) {
    const std::string path = export_run(name);
    const TraceCheckResult result = CheckTraceFile(path);
    std::remove(path.c_str());
    EXPECT_TRUE(result.ok()) << name << ": " << result.report();
    EXPECT_GT(result.events, 0u) << name;
  }
}

TEST(TraceCheck, SbTraceReplaysOccupancyAndBalances) {
  const std::string path = export_run("SB");
  const TraceCheckResult result = CheckTraceFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(result.ok()) << result.report();
  EXPECT_GT(result.anchors, 0u);
  EXPECT_EQ(result.anchors, result.releases);
  EXPECT_EQ(result.forks, result.joins);
  EXPECT_TRUE(result.replayed_occupancy);  // sim = virtual time
}

TEST(TraceCheck, RoundTripPreservesHeaderAndEvents) {
  const std::string path = export_run("SB");
  JsonlTrace parsed;
  std::string error;
  const bool read = trace::ReadJsonlTrace(path, &parsed, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(read) << error;
  EXPECT_EQ(parsed.scheduler, "SB");
  EXPECT_EQ(parsed.engine, "sim");
  EXPECT_TRUE(parsed.virtual_time);
  EXPECT_DOUBLE_EQ(parsed.params.sigma, 0.5);
  EXPECT_FALSE(parsed.params.config_text.empty());
  EXPECT_FALSE(parsed.records.empty());
}

// --- hand-built traces: targeted violations the checker must flag ---

struct TraceBuilder {
  machine::MachineConfig cfg = Preset("mini");
  Topology topo{cfg};
  JsonlTrace tr;

  TraceBuilder() {
    tr.engine = "sim";
    tr.scheduler = "SB";
    tr.virtual_time = true;
    tr.workers = topo.num_threads();
    tr.params.sigma = 0.5;
    tr.params.mu = 0.2;
    tr.params.config_text = machine::ToConfigText(cfg);
  }

  void event(int worker, EventKind kind, std::uint64_t ts, std::uint64_t dur,
             std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
    JsonlTrace::Record record;
    record.worker = worker;
    record.event.kind = kind;
    record.event.ts = ts;
    record.event.dur = dur;
    record.event.a = a;
    record.event.b = b;
    record.event.c = c;
    tr.records.push_back(record);
  }
  void anchor(int worker, std::uint64_t ts, std::uint64_t bytes, int node,
              int ceiling = 0) {
    event(worker, EventKind::kAnchor, ts, bytes,
          static_cast<std::uint64_t>(topo.node(node).depth),
          static_cast<std::uint64_t>(node),
          static_cast<std::uint64_t>(ceiling));
  }
  void release(int worker, std::uint64_t ts, std::uint64_t bytes, int node,
               int ceiling = 0) {
    event(worker, EventKind::kRelease, ts, bytes,
          static_cast<std::uint64_t>(topo.node(node).depth),
          static_cast<std::uint64_t>(node),
          static_cast<std::uint64_t>(ceiling));
  }
};

TEST(TraceCheck, HandBuiltCleanTracePasses) {
  TraceBuilder b;
  // mini: L2 = 64 KB at depth 1, σ = 0.5 → befitting sizes (2048, 32768].
  const int l2 = b.topo.cache_of_thread(0, 1);
  b.anchor(0, 10, 20000, l2);
  b.release(0, 20, 20000, l2);
  const TraceCheckResult result = CheckTrace(b.tr);
  EXPECT_TRUE(result.ok()) << result.report();
  EXPECT_TRUE(result.replayed_occupancy);
}

TEST(TraceCheck, FlagsAnchorOutsideWorkersSubtree) {
  TraceBuilder b;
  const int l2 = b.topo.cache_of_thread(0, 1);
  // Find a worker outside that L2's cluster (the other socket).
  int foreign = -1;
  for (int t = 0; t < b.topo.num_threads(); ++t) {
    if (!b.topo.thread_in_cluster(t, l2)) foreign = t;
  }
  ASSERT_GE(foreign, 0);
  b.anchor(foreign, 10, 20000, l2);
  b.release(foreign, 20, 20000, l2);
  const TraceCheckResult result = CheckTrace(b.tr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.report().find("outside its cache subtree"),
            std::string::npos)
      << result.report();
}

TEST(TraceCheck, FlagsOversizedAnchor) {
  TraceBuilder b;
  const int l2 = b.topo.cache_of_thread(0, 1);
  b.anchor(0, 10, 40000, l2);  // 40000 > σM = 32768
  b.release(0, 20, 40000, l2);
  const TraceCheckResult result = CheckTrace(b.tr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.report().find("exceeds sigma*M"), std::string::npos)
      << result.report();
}

TEST(TraceCheck, FlagsMisAnchoredTask) {
  TraceBuilder b;
  const int l2 = b.topo.cache_of_thread(0, 1);
  // 1000 bytes fits σM of the L1 below (2048) — anchoring it at L2 means it
  // sits above its befitting cache.
  b.anchor(0, 10, 1000, l2);
  b.release(0, 20, 1000, l2);
  const TraceCheckResult result = CheckTrace(b.tr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.report().find("above its befitting cache"),
            std::string::npos)
      << result.report();
}

TEST(TraceCheck, FlagsDepthPayloadMismatch) {
  TraceBuilder b;
  const int l2 = b.topo.cache_of_thread(0, 1);
  b.event(0, EventKind::kAnchor, 10, 20000, /*depth=*/2,
          static_cast<std::uint64_t>(l2), 0);
  const TraceCheckResult result = CheckTrace(b.tr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.report().find("does not match node"), std::string::npos)
      << result.report();
}

TEST(TraceCheck, FlagsUnreleasedAnchor) {
  TraceBuilder b;
  const int l2 = b.topo.cache_of_thread(0, 1);
  b.anchor(0, 10, 20000, l2);  // never released
  const TraceCheckResult result = CheckTrace(b.tr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.report().find("unbalanced"), std::string::npos)
      << result.report();
}

TEST(TraceCheck, FlagsSelfSteal) {
  TraceBuilder b;
  b.event(1, EventKind::kStealSuccess, 10, 0, /*victim=*/1, 0);
  const TraceCheckResult result = CheckTrace(b.tr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.report().find("stole from itself"), std::string::npos)
      << result.report();
}

TEST(TraceCheck, FlagsOverAdmissionInReplay) {
  TraceBuilder b;
  b.tr.params.sigma = 1.0;  // a single task may fill the whole cache
  const int l2 = b.topo.cache_of_thread(0, 1);
  int partner = -1;
  for (int t = 1; t < b.topo.num_threads(); ++t) {
    if (b.topo.thread_in_cluster(t, l2)) partner = t;
  }
  ASSERT_GE(partner, 0);
  // Two 40000-byte tasks live on one 65536-byte L2 at once: each is
  // individually befitting under σ=1.0 but together they break the bound.
  b.anchor(0, 10, 40000, l2);
  b.anchor(partner, 20, 40000, l2);
  b.release(0, 30, 40000, l2);
  b.release(partner, 40, 40000, l2);
  const TraceCheckResult result = CheckTrace(b.tr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.report().find("bounded property violated in replay"),
            std::string::npos)
      << result.report();
}

TEST(TraceCheck, SerializedAdmissionPassesReplay) {
  // Control for the previous test: the same two tasks one after the other.
  TraceBuilder b;
  b.tr.params.sigma = 1.0;
  const int l2 = b.topo.cache_of_thread(0, 1);
  b.anchor(0, 10, 40000, l2);
  b.release(0, 20, 40000, l2);
  b.anchor(0, 30, 40000, l2);
  b.release(0, 40, 40000, l2);
  const TraceCheckResult result = CheckTrace(b.tr);
  EXPECT_TRUE(result.ok()) << result.report();
}

TEST(TraceCheck, Schema1TraceIsRejected) {
  const std::string path = temp_path("schema1.jsonl");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f,
               "{\"schema\":1,\"engine\":\"sim\",\"scheduler\":\"WS\","
               "\"machine\":\"mini\",\"virtual_time\":true,\"workers\":4,"
               "\"dropped_events\":0}\n");
  std::fprintf(f, "{\"type\":\"event\",\"w\":0,\"k\":\"fork\",\"ts\":5,"
                  "\"dur\":0,\"a\":2,\"b\":0}\n");
  std::fclose(f);

  JsonlTrace parsed;
  std::string error;
  const bool read = trace::ReadJsonlTrace(path, &parsed, &error);
  std::remove(path.c_str());
  EXPECT_FALSE(read);
  EXPECT_NE(error.find("unsupported schema 1"), std::string::npos) << error;
}

TEST(TraceCheck, MissingConfigIsAViolation) {
  // Schedule-level checks need the header's machine config; without one the
  // checker says so instead of guessing.
  TraceBuilder b;
  b.tr.params.config_text.clear();
  const TraceCheckResult result = CheckTrace(b.tr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.report().find("no machine config"), std::string::npos)
      << result.report();
}

TEST(TraceCheck, MalformedFileIsAParseViolation) {
  const std::string path = temp_path("garbage.jsonl");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "this is not json\n");
  std::fclose(f);
  const TraceCheckResult result = CheckTraceFile(path);
  std::remove(path.c_str());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.report().find("does not parse"), std::string::npos);
}

}  // namespace
}  // namespace sbs::verify
