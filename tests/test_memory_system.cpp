// Unit tests for the simulated memory hierarchy: hit/miss placement,
// inclusion, coherence invalidation, writebacks, bandwidth queueing, the
// page→socket bandwidth throttle, and the window protocol that defers
// cross-socket effects to merge_window().
#include <gtest/gtest.h>

#include <string>

#include "machine/topology.h"
#include "sim/memory_system.h"

namespace sbs::sim {
namespace {

using machine::Preset;
using machine::Topology;

class MemSys : public ::testing::Test {
 protected:
  // mini: 2 sockets × 2 cores; L2 64 KB shared per socket, L1 4 KB private;
  // 4 KB pages; dram latency 100, 8 B/cycle per socket link.
  Topology topo{Preset("mini")};
  MemoryParams params;
};

TEST_F(MemSys, FirstTouchMissesThenHitsInL1) {
  MemorySystem mem(topo, params);
  const std::uint64_t c1 = mem.access(0, 0x100000, false, 0);
  EXPECT_EQ(mem.counters().dram_reads, 1u);
  const std::uint64_t c2 = mem.access(0, 0x100000, false, c1);
  EXPECT_EQ(mem.counters().dram_reads, 1u);
  EXPECT_EQ(c2, topo.config().levels[2].hit_cycles);  // L1 hit
  EXPECT_GT(c1, c2);
  EXPECT_EQ(mem.counters().level[2].hits, 1u);
  EXPECT_EQ(mem.counters().level[1].hits, 0u);
}

TEST_F(MemSys, SameSocketNeighborHitsInSharedL2) {
  MemorySystem mem(topo, params);
  mem.access(0, 0x200000, false, 0);
  // Thread 1 shares thread 0's socket-level L2 in the mini preset.
  const std::uint64_t cost = mem.access(1, 0x200000, false, 0);
  EXPECT_EQ(cost, topo.config().levels[1].hit_cycles);  // L2 hit
  EXPECT_EQ(mem.counters().dram_reads, 1u);
  // After the hit, the line was filled into thread 1's L1 too.
  EXPECT_EQ(mem.access(1, 0x200000, false, 0),
            topo.config().levels[2].hit_cycles);
}

TEST_F(MemSys, RemoteSocketMissesSeparately) {
  MemorySystem mem(topo, params);
  mem.access(0, 0x300000, false, 0);
  // Thread 2 is on the other socket: its L2 does not have the line.
  mem.access(2, 0x300000, false, 0);
  EXPECT_EQ(mem.counters().dram_reads, 2u);
}

TEST_F(MemSys, WriteInvalidatesRemoteCopies) {
  MemorySystem mem(topo, params);
  mem.access(0, 0x400000, false, 0);
  mem.access(2, 0x400000, false, 0);  // both sockets now share the line
  EXPECT_EQ(mem.counters().dram_reads, 2u);
  mem.merge_window();

  mem.access(0, 0x400000, true, 0);  // write by thread 0
  mem.merge_window();
  EXPECT_GT(mem.counters().level[1].coherence_invalidations +
                mem.counters().level[2].coherence_invalidations,
            0u);
  // Thread 2 must now re-fetch from memory (its copies were invalidated).
  mem.access(2, 0x400000, false, 0);
  EXPECT_EQ(mem.counters().dram_reads, 3u);
}

// --- the window protocol: cross-socket effects land at the barrier ---

TEST_F(MemSys, RemoteCopySurvivesUntilTheBarrier) {
  MemorySystem mem(topo, params);
  const std::uint64_t addr = 0x400000;
  const int remote_l1 = topo.node(topo.leaf_of_thread(2)).parent;
  const int remote_l2 = topo.nodes_at_depth(1)[1];
  mem.access(0, addr, false, 0);
  mem.access(2, addr, false, 0);
  EXPECT_TRUE(mem.merge_window());  // the directory learns both holders

  mem.access(0, addr, true, 0);
  // Within the window the writer sees only its own socket: thread 2's
  // copies are untouched, and nothing has been charged for them yet.
  EXPECT_EQ(mem.resident_lines(remote_l1), 1u);
  EXPECT_EQ(mem.resident_lines(remote_l2), 1u);
  EXPECT_EQ(mem.counters().level[1].coherence_invalidations, 0u);
  EXPECT_EQ(mem.counters().level[2].coherence_invalidations, 0u);

  EXPECT_TRUE(mem.merge_window());
  EXPECT_EQ(mem.resident_lines(remote_l1), 0u);
  EXPECT_EQ(mem.resident_lines(remote_l2), 0u);
  EXPECT_EQ(mem.counters().level[1].coherence_invalidations, 1u);
  EXPECT_EQ(mem.counters().level[2].coherence_invalidations, 1u);
}

TEST_F(MemSys, RemoteLinkTrafficQueuesOnlyAfterTheBarrier) {
  params.allowed_sockets = {0};  // every page homed on socket 0's link
  MemorySystem mem(topo, params);
  const std::uint64_t line = topo.config().levels[1].line;
  const auto transfer = static_cast<std::uint64_t>(
      static_cast<double>(line) / topo.config().socket_bytes_per_cycle);
  constexpr std::uint64_t kBurst = 16;
  for (std::uint64_t i = 0; i < kBurst; ++i)
    mem.access(0, 0x1000000 + i * line, false, 0);

  // Same window: socket 1's view of the link is still empty.
  std::uint64_t wait0 = mem.counters().queue_wait_cycles;
  mem.access(2, 0x2000000, false, 0);
  EXPECT_EQ(mem.counters().queue_wait_cycles, wait0);

  // After the barrier it queues behind both sockets' transfers, served
  // back to back from the committed baseline.
  EXPECT_TRUE(mem.merge_window());
  wait0 = mem.counters().queue_wait_cycles;
  mem.access(2, 0x3000000, false, 0);
  EXPECT_EQ(mem.counters().queue_wait_cycles - wait0, (kBurst + 1) * transfer);
}

TEST_F(MemSys, QuietWindowMergesNothing) {
  // Twin systems see the same traffic; only `a` calls merge_window() after
  // a window with no cross-socket traffic.
  params.allowed_sockets = {0};
  MemorySystem a(topo, params);
  MemorySystem b(topo, params);
  for (MemorySystem* m : {&a, &b}) {
    for (std::uint64_t i = 0; i < 16; ++i)
      m->access(0, 0x1000000 + i * 64, false, 0);
    EXPECT_TRUE(m->merge_window());
    // L1 hits only: no DRAM traffic, no outermost fill, no shared write.
    for (std::uint64_t i = 0; i < 16; ++i)
      m->access(0, 0x1000000 + i * 64, false, 1000);
  }
  const std::string before = a.counters().summary();
  EXPECT_FALSE(a.merge_window());
  EXPECT_EQ(a.counters().summary(), before);
  EXPECT_EQ(a.counters().summary(), b.counters().summary());
  // Link state too: the next DRAM read waits exactly as long in both.
  EXPECT_EQ(a.access(2, 0x2000000, false, 0), b.access(2, 0x2000000, false, 0));
  EXPECT_EQ(a.counters().summary(), b.counters().summary());
}

TEST_F(MemSys, DirtyEvictionWritesBack) {
  MemorySystem mem(topo, params);
  const std::uint64_t base = 0x10000000;
  mem.access(0, base, true, 0);  // dirty in L1
  // Stream enough distinct lines through to evict `base` from every level
  // of thread 0's path (L1 4 KB, L2 64 KB ⇒ 1024+ lines suffice).
  for (std::uint64_t i = 1; i <= 4096; ++i) {
    mem.access(0, base + i * 64, false, 0);
  }
  EXPECT_GE(mem.counters().dram_writebacks, 1u);
}

TEST_F(MemSys, InclusionBackInvalidatesHotL1Line) {
  MemorySystem mem(topo, params);
  const std::uint64_t hot = 0x20000000;
  mem.access(1, hot, false, 0);  // thread 1's private L1 + the shared L2
  // Thread 0 streams enough distinct lines through the shared L2 to evict
  // `hot` from it. Thread 1's private L1 is untouched by the stream, so its
  // copy is still resident when the L2 eviction lands — inclusion must
  // back-invalidate it.
  for (std::uint64_t i = 1; i <= 8192; ++i) {
    mem.access(0, hot + i * 64, false, 0);
  }
  EXPECT_GT(mem.counters().level[1].evictions, 0u);
  EXPECT_GT(mem.counters().level[2].back_invalidations, 0u);
  // The back-invalidation also dropped the line from thread 1's access
  // memo: its next touch must take the full miss path again (an absorbed
  // L1 hit here would mean the memo outlived the residency it proves).
  const std::uint64_t cost = mem.access(1, hot, false, 0);
  EXPECT_GT(cost, topo.config().levels[2].hit_cycles);
  EXPECT_EQ(mem.counters().dram_reads, 8194u);
}

TEST_F(MemSys, SequentialStreakSkipsLatency) {
  MemorySystem mem(topo, params);
  const std::uint64_t first = mem.access(0, 0x500000, false, 0);
  const std::uint64_t second = mem.access(0, 0x500040, false, 1000000);
  // Second access is the next line: prefetch streak, no latency component.
  EXPECT_LT(second, first);
}

TEST_F(MemSys, BandwidthQueueingDelaysBursts) {
  MemorySystem mem(topo, params);
  // Many threads hammering lines homed on one socket at the same virtual
  // time must see growing queue delays.
  params.allowed_sockets = {0};
  MemorySystem throttled(topo, params);
  for (int i = 0; i < 64; ++i) {
    throttled.access(i % 4, 0x30000000 + static_cast<std::uint64_t>(i) * 64,
                     false, /*now=*/0);
  }
  EXPECT_GT(throttled.counters().queue_wait_cycles, 0u);
}

TEST_F(MemSys, PageHomesRespectAllowedSockets) {
  params.allowed_sockets = {1};
  MemorySystem mem(topo, params);
  // All misses from socket 0 to socket-1-homed pages are remote.
  mem.access(0, 0x600000, false, 0);
  mem.access(0, 0x604000, false, 0);  // different 4 KB page
  EXPECT_EQ(mem.counters().remote_dram_accesses, 2u);
  // And from socket 1 they are local.
  mem.access(2, 0x7000000, false, 0);
  EXPECT_EQ(mem.counters().remote_dram_accesses, 2u);
}

TEST_F(MemSys, AccessRangeCountsEveryLine) {
  MemorySystem mem(topo, params);
  mem.access_range(0, 0x800000, 64 * 10, false, 0);
  EXPECT_EQ(mem.counters().accesses, 10u);
  // Unaligned range spanning a line boundary touches both lines.
  mem.access_range(0, 0x900020, 64, false, 0);
  EXPECT_EQ(mem.counters().accesses, 12u);
}

TEST_F(MemSys, ResetClearsState) {
  MemorySystem mem(topo, params);
  mem.access(0, 0xa00000, true, 0);
  mem.reset();
  EXPECT_EQ(mem.counters().accesses, 0u);
  mem.access(0, 0xa00000, false, 0);
  EXPECT_EQ(mem.counters().dram_reads, 1u);  // miss again after reset
}

TEST_F(MemSys, CapacityShapesL2Misses) {
  // Working set ≤ L2 ⇒ second sweep all L2-or-better hits.
  // Working set = 4× L2 ⇒ second sweep keeps missing at L2.
  MemorySystem mem(topo, params);
  const std::uint64_t l2 = topo.config().levels[1].size;

  auto sweep = [&](std::uint64_t base, std::uint64_t bytes) {
    for (std::uint64_t off = 0; off < bytes; off += 64)
      mem.access(0, base + off, false, 0);
  };
  sweep(0x40000000, l2 / 2);
  const std::uint64_t misses_before = mem.counters().level[1].misses;
  sweep(0x40000000, l2 / 2);
  EXPECT_EQ(mem.counters().level[1].misses, misses_before);

  mem.reset();
  sweep(0x50000000, l2 * 4);
  const std::uint64_t m1 = mem.counters().level[1].misses;
  sweep(0x50000000, l2 * 4);
  EXPECT_GT(mem.counters().level[1].misses, m1 + (l2 * 2) / 64);
}

}  // namespace
}  // namespace sbs::sim
