// Machine description: a symmetric parallel memory hierarchy (PMH).
//
// Following the paper (§2, Fig. 1(b), Fig. 4), a machine is a height-h tree
// of caches. We store levels top-down: levels[0] is main memory (size 0 =
// "infinitely large"), deeper entries are successively smaller caches, and
// the leaves below the last cache level are the hardware threads ("cores" in
// the paper's terminology). Each level carries the four PMH parameters
// (M_i, B_i, C_i, f_i) plus an associativity used by the simulator.
//
// Configs come from named presets (xeon7560, xeon7560_ht, mini, ...) or from
// a config file in the paper's Fig. 4 C-like syntax (see ParseConfig).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sbs::machine {

struct LevelSpec {
  std::string name;       ///< "mem", "L3", "L2", "L1" — for reporting.
  std::uint64_t size;     ///< capacity in bytes; 0 means infinite (memory).
  std::uint32_t line;     ///< block size B_i in bytes.
  std::uint32_t fanout;   ///< number of children (caches, or threads for the
                          ///< last cache level).
  std::uint32_t assoc;    ///< associativity; 0 means fully associative.
  std::uint32_t hit_cycles;  ///< access cost when the line hits this level.
};

struct MachineConfig {
  std::string name = "unnamed";
  double ghz = 2.27;  ///< core clock, used to convert cycles to seconds.

  /// Top-down: levels[0] is memory. Product of all fanouts = thread count.
  std::vector<LevelSpec> levels;

  // --- Memory-system timing (simulator cost model) ---
  std::uint32_t dram_latency_cycles = 190;
  /// Peak bandwidth of one socket's memory link, in bytes per core-cycle.
  double socket_bytes_per_cycle = 11.0;
  /// Page size for the page→socket home mapping (the paper pre-allocates
  /// 2 MB hugepages and places them with numactl).
  std::uint64_t page_bytes = 2ull << 20;

  // --- Scheduler-overhead timing (simulator cost model) ---
  /// Virtual cycles charged per instrumented scheduler operation
  /// (lock acquisition / queue op / tree-level visit) and per fork/join.
  std::uint32_t sched_op_cycles = 60;
  std::uint32_t fork_join_cycles = 120;
  /// How long an idle core waits before re-polling get() when the scheduler
  /// has no work for it (paper: "empty queue" overhead accumulates).
  std::uint32_t idle_poll_cycles = 400;

  /// map[logical thread id] = leaf position (left-to-right in the tree).
  /// Empty means identity.
  std::vector<int> core_map;

  // Derived helpers.
  int num_threads() const;
  int num_cache_levels() const;  ///< levels below memory.
  /// Leaf position of a logical thread id (applies core_map).
  int leaf_position(int thread_id) const;
  /// Validate invariants (sizes decrease going down, fanouts nonzero, ...).
  void validate() const;
};

/// Named presets. Throws via SBS_CHECK on unknown names.
/// - "xeon7560":     4 sockets × 8 cores, 24 MB L3 / 256 KB L2 / 32 KB L1.
/// - "xeon7560_ht":  same with 2 hardware threads per core (64 threads).
/// - "xeon7560_fig4":the literal Fig. 4 sizes (12 MB L3 as printed).
/// - "mini":         2 sockets × 2 cores with tiny caches, for tests.
/// - "mini_deep":    4-cache-level toy hierarchy, for tests.
MachineConfig Preset(const std::string& name);
std::vector<std::string> PresetNames();
/// The cache-size divisor of a preset name by Preset()'s grammar
/// ("xeon7560_s8_ht" -> 8); 1 for "mini", "mini_deep" and file configs
/// ("custom"). Fails like Preset() on a name it does not know.
int PresetScale(const std::string& name);

/// Parse the paper's Fig. 4 C-like config syntax:
///   int num_procs=32;
///   int num_levels = 4;
///   int fan_outs[4] = {4,8,1,1};
///   long long int sizes[4] = {0, 3*(1<<22), 1<<18, 1<<15};
///   int block_sizes[4] = {64,64,64,64};
///   int map[32] = {0,4,...};
/// plus optional extended keys (double ghz, int assoc[...], int hit_cycles[...],
/// int dram_latency, double socket_bytes_per_cycle). Arithmetic with +, *,
/// <<, and parentheses is supported in values.
MachineConfig ParseConfig(const std::string& text);

/// Load and parse a config file.
MachineConfig LoadConfigFile(const std::string& path);

/// Render a config in the Fig. 4 syntax (round-trips through ParseConfig).
std::string ToConfigText(const MachineConfig& cfg);

}  // namespace sbs::machine
