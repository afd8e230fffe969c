// Unit tests: machine configs, the Fig. 4 parser, and tree-of-caches topology.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "machine/config.h"
#include "machine/topology.h"

namespace sbs::machine {
namespace {

TEST(Config, Xeon7560PresetMatchesPaper) {
  const MachineConfig cfg = Preset("xeon7560");
  EXPECT_EQ(cfg.num_threads(), 32);
  EXPECT_EQ(cfg.num_cache_levels(), 3);
  ASSERT_EQ(cfg.levels.size(), 4u);
  EXPECT_EQ(cfg.levels[0].size, 0u);          // memory
  EXPECT_EQ(cfg.levels[1].size, 24ull << 20);  // 24 MB L3 (§5.2)
  EXPECT_EQ(cfg.levels[2].size, 1ull << 18);   // 256 KB L2
  EXPECT_EQ(cfg.levels[3].size, 1ull << 15);   // 32 KB L1
  EXPECT_EQ(cfg.levels[1].fanout, 8u);         // 8 cores per socket
  EXPECT_EQ(cfg.levels[0].fanout, 4u);         // 4 sockets
  for (const auto& lvl : cfg.levels) EXPECT_EQ(lvl.line, 64u);
}

TEST(Config, HyperthreadedPresetDoublesThreads) {
  const MachineConfig cfg = Preset("xeon7560_ht");
  EXPECT_EQ(cfg.num_threads(), 64);
  // Sibling hyperthreads sit on adjacent leaves under the same L1.
  EXPECT_EQ(cfg.leaf_position(0) + 1, cfg.leaf_position(32));
}

TEST(Config, PartialSocketPresets) {
  for (int cps : {1, 2, 4}) {
    const MachineConfig cfg = Preset("xeon7560_4x" + std::to_string(cps));
    EXPECT_EQ(cfg.num_threads(), 4 * cps);
  }
}

TEST(Config, PresetScale) {
  EXPECT_EQ(PresetScale("xeon7560"), 1);
  EXPECT_EQ(PresetScale("xeon7560_s8"), 8);
  EXPECT_EQ(PresetScale("xeon7560_s8_ht"), 8);
  EXPECT_EQ(PresetScale("xeon7560_s16_4x2"), 16);
  EXPECT_EQ(PresetScale("mini"), 1);
  EXPECT_EQ(PresetScale("mini_deep"), 1);
  EXPECT_EQ(PresetScale("custom"), 1);  // a file config's name
}

TEST(Config, PresetNamesAllConstruct) {
  for (const auto& name : PresetNames()) {
    EXPECT_NO_FATAL_FAILURE({ Preset(name).validate(); }) << name;
  }
}

TEST(Config, ParsesPaperFig4Verbatim) {
  // The literal specification entry from the paper's Fig. 4.
  const char* fig4 = R"(
    int num_procs=32;
    int num_levels = 4;
    int fan_outs[4] = {4,8,1,1};
    long long int sizes[4] = {0, 3*(1<<22), 1<<18, 1<<15};
    int block_sizes[4] = {64,64,64,64};
    int map[32] = {0,4,8,12,16,20,24,28,
                   2,6,10,14,18,22,26,30,
                   1,5,9,13,17,21,25,29,
                   3,7,11,15,19,23,27,31};
  )";
  const MachineConfig cfg = ParseConfig(fig4);
  EXPECT_EQ(cfg.num_threads(), 32);
  EXPECT_EQ(cfg.levels[1].size, 3ull * (1ull << 22));
  EXPECT_EQ(cfg.levels[2].size, 1ull << 18);
  EXPECT_EQ(cfg.core_map.size(), 32u);
  EXPECT_EQ(cfg.leaf_position(1), 4);
}

TEST(Config, ParserHandlesExtendedKeysAndComments) {
  const char* text = R"(
    // a toy two-level machine
    int num_levels = 2;
    int fan_outs[2] = {2, 2};
    long long int sizes[2] = {0, 1<<14};
    int block_sizes[2] = {64, 64};
    double ghz = 3.0;           /* block comment */
    int dram_latency = 77;
    double socket_bytes_per_cycle = 4.5;
  )";
  const MachineConfig cfg = ParseConfig(text);
  EXPECT_EQ(cfg.num_threads(), 4);
  EXPECT_DOUBLE_EQ(cfg.ghz, 3.0);
  EXPECT_EQ(cfg.dram_latency_cycles, 77u);
  EXPECT_DOUBLE_EQ(cfg.socket_bytes_per_cycle, 4.5);
}

TEST(Config, ToConfigTextRoundTrips) {
  for (const auto& name : {"xeon7560", "mini", "mini_deep"}) {
    const MachineConfig original = Preset(name);
    const MachineConfig reparsed = ParseConfig(ToConfigText(original));
    EXPECT_EQ(reparsed.num_threads(), original.num_threads());
    ASSERT_EQ(reparsed.levels.size(), original.levels.size());
    for (std::size_t i = 0; i < original.levels.size(); ++i) {
      EXPECT_EQ(reparsed.levels[i].size, original.levels[i].size) << name;
      EXPECT_EQ(reparsed.levels[i].fanout, original.levels[i].fanout) << name;
      EXPECT_EQ(reparsed.levels[i].line, original.levels[i].line) << name;
    }
    EXPECT_EQ(reparsed.core_map, original.core_map) << name;
  }
}

TEST(ConfigDeath, RejectsMismatchedNumProcs) {
  const char* bad = R"(
    int num_procs=8;
    int num_levels = 2;
    int fan_outs[2] = {2, 2};
    long long int sizes[2] = {0, 1<<14};
    int block_sizes[2] = {64, 64};
  )";
  EXPECT_DEATH({ ParseConfig(bad); }, "num_procs");
}

// Hostile numbers: each input below fails with a `config:` message, not
// with undefined behaviour, an uncaught exception or a stack overflow.
std::string ThreeLevels(const std::string& fan_outs, const std::string& sizes) {
  return "int num_levels = 3;\n"
         "int fan_outs[3] = " + fan_outs + ";\n"
         "long long int sizes[3] = " + sizes + ";\n"
         "int block_sizes[3] = {64, 64, 64};\n";
}

TEST(ConfigDeath, RejectsShiftPastWordWidth) {
  EXPECT_DEATH({ ParseConfig(ThreeLevels("{2,2,1}", "{0, 1<<64, 1<<12}")); },
               "config: a shift amount");
}

TEST(ConfigDeath, RejectsNegativeShift) {
  EXPECT_DEATH({ ParseConfig(ThreeLevels("{2,2,1}", "{0, 1<<16, 1<<-1}")); },
               "config: a shift amount");
}

TEST(ConfigDeath, RejectsNegativeFanOut) {
  EXPECT_DEATH(
      { ParseConfig(ThreeLevels("{-2,2,1}", "{0, 1<<16, 1<<12}")); },
      "config: fan_outs needs integers");
}

TEST(ConfigDeath, RejectsThreadCountOverflow) {
  const char* bad = R"(
    int num_levels = 4;
    int fan_outs[4] = {65536, 65536, 2, 1};
    long long int sizes[4] = {0, 1<<20, 1<<16, 1<<12};
    int block_sizes[4] = {64, 64, 64, 64};
  )";
  EXPECT_DEATH({ ParseConfig(bad); }, "config: the thread count");
}

TEST(ConfigDeath, RejectsOutOfRangeLiteral) {
  const std::string bad = ThreeLevels("{2,2,1}", "{0, 1<<16, 1<<12}") +
                          "int dram_latency = 99999999999999999999;\n";
  EXPECT_DEATH({ ParseConfig(bad); },
               "config: malformed or out-of-range number '99999999999999999999'");
}

TEST(ConfigDeath, RejectsMalformedLiteral) {
  const std::string bad =
      ThreeLevels("{2,2,1}", "{0, 1<<16, 1<<12}") + "int dram_latency = x;\n";
  EXPECT_DEATH({ ParseConfig(bad); },
               "config: malformed or out-of-range number 'x'");
}

TEST(ConfigDeath, RejectsDeepNesting) {
  const std::string bad = ThreeLevels("{2,2,1}", "{0, 1<<16, 1<<12}") +
                          "int dram_latency = " + std::string(200000, '(') +
                          "1" + std::string(200000, ')') + ";\n";
  EXPECT_DEATH({ ParseConfig(bad); }, "config: expression nested too deeply");
}

// Hostile preset names fail with a message, not an uncaught exception.
TEST(ConfigDeath, RejectsHugePresetScale) {
  EXPECT_DEATH({ Preset("xeon7560_s99999999999"); },
               "missing or out-of-range number in preset");
}

TEST(ConfigDeath, RejectsPresetScaleWithoutDigits) {
  EXPECT_DEATH({ Preset("xeon7560_s"); },
               "missing or out-of-range number in preset");
}

TEST(ConfigDeath, RejectsPresetCoresWithoutDigits) {
  EXPECT_DEATH({ Preset("xeon7560_4x"); },
               "missing or out-of-range number in preset");
}

TEST(ConfigDeath, RejectsHugePresetCores) {
  EXPECT_DEATH({ Preset("xeon7560_4x99999999999"); },
               "missing or out-of-range number in preset");
}

TEST(ConfigDeath, RejectsGrowingCaches) {
  MachineConfig cfg = Preset("mini");
  cfg.levels[2].size = cfg.levels[1].size * 2;  // L1 bigger than L2
  EXPECT_DEATH({ cfg.validate(); }, "decrease");
}

TEST(Topology, XeonShape) {
  const Topology topo(Preset("xeon7560"));
  EXPECT_EQ(topo.num_threads(), 32);
  EXPECT_EQ(topo.leaf_depth(), 4);
  EXPECT_EQ(topo.num_cache_levels(), 3);
  // 1 memory + 4 L3 + 32 L2 + 32 L1 + 32 leaves = 101 nodes.
  EXPECT_EQ(topo.num_nodes(), 101);
  EXPECT_EQ(topo.nodes_at_depth(1).size(), 4u);
  EXPECT_EQ(topo.nodes_at_depth(2).size(), 32u);
}

TEST(Topology, ClustersPartitionThreads) {
  const Topology topo(Preset("xeon7560"));
  std::set<int> seen;
  for (int socket : topo.nodes_at_depth(1)) {
    const auto threads = topo.threads_under(socket);
    EXPECT_EQ(threads.size(), 8u);
    for (int t : threads) {
      EXPECT_TRUE(seen.insert(t).second) << "thread in two socket clusters";
      EXPECT_TRUE(topo.thread_in_cluster(t, socket));
      EXPECT_EQ(topo.socket_of_thread(t), socket);
    }
  }
  EXPECT_EQ(seen.size(), 32u);
}

TEST(Topology, Fig4MapSpreadsLogicalCoresAcrossSockets) {
  const Topology topo(Preset("xeon7560"));
  // With the Fig. 4 numbering, logical cores 0..7 occupy positions
  // 0,4,8,...,28 — two per socket.
  std::set<int> sockets;
  for (int t = 0; t < 8; ++t) sockets.insert(topo.socket_of_thread(t));
  EXPECT_EQ(sockets.size(), 4u);
}

TEST(Topology, AncestorChainIsMonotonic) {
  const Topology topo(Preset("mini_deep"));
  for (int t = 0; t < topo.num_threads(); ++t) {
    const int leaf = topo.leaf_of_thread(t);
    EXPECT_EQ(topo.thread_of_leaf(leaf), t);
    int prev = leaf;
    for (int d = topo.leaf_depth() - 1; d >= 0; --d) {
      const int anc = topo.ancestor_at_depth(leaf, d);
      EXPECT_EQ(topo.node(anc).depth, d);
      EXPECT_EQ(topo.node(prev).parent, anc);
      prev = anc;
    }
    EXPECT_EQ(prev, topo.root());
  }
}

TEST(Topology, LeafCountsConsistent) {
  for (const auto& name : PresetNames()) {
    const Topology topo(Preset(name));
    EXPECT_EQ(topo.node(topo.root()).num_leaves, topo.num_threads()) << name;
    for (int id = 0; id < topo.num_nodes(); ++id) {
      const Node& n = topo.node(id);
      if (n.num_children == 0) continue;
      int child_leaves = 0;
      for (int c = n.first_child; c < n.first_child + n.num_children; ++c)
        child_leaves += topo.node(c).num_leaves;
      EXPECT_EQ(child_leaves, n.num_leaves) << name << " node " << id;
    }
  }
}

TEST(Topology, DescribeMentionsEveryLevel) {
  const Topology topo(Preset("xeon7560"));
  const std::string desc = topo.describe();
  for (const char* label : {"mem", "L3", "L2", "L1", "32 hardware"}) {
    EXPECT_NE(desc.find(label), std::string::npos) << label;
  }
}

}  // namespace
}  // namespace sbs::machine
