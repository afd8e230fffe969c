// The simulator pump's two-lane event queue (sim/event_queue.h) must pop
// exactly the sequence a single min-heap of (clock, thread id) pairs pops:
// the engine's determinism — and every golden makespan — rests on it.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace sbs::sim {
namespace {

using Event = std::pair<std::uint64_t, int>;
using Reference =
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

Event pop_one(EventQueue& q) {
  Event e{0, -1};
  EXPECT_TRUE(q.pop(&e.first, &e.second));
  return e;
}

TEST(EventQueue, EqualClocksPopInThreadOrder) {
  EventQueue q;
  q.reset(8);
  q.push_idle(10, 5);
  q.push_idle(10, 3);  // (10,3) < the ring's tail (10,5): heap lane
  q.push(10, 7);
  q.push_idle(10, 6);
  EXPECT_EQ(q.min_clock(), 10u);
  EXPECT_EQ(pop_one(q), Event(10, 3));
  EXPECT_EQ(pop_one(q), Event(10, 5));
  EXPECT_EQ(pop_one(q), Event(10, 6));
  EXPECT_EQ(pop_one(q), Event(10, 7));
  EXPECT_TRUE(q.empty());
  std::uint64_t clock = 0;
  int tid = 0;
  EXPECT_FALSE(q.pop(&clock, &tid));
}

TEST(EventQueue, CompletionFarAheadDoesNotBlockTheRing) {
  EventQueue q;
  q.reset(8);
  q.push(1'000'000'000, 0);  // a completion far ahead of every poll
  for (int t = 1; t < 8; ++t) q.push_idle(100 * static_cast<unsigned>(t), t);
  for (int t = 1; t < 8; ++t) {
    EXPECT_EQ(pop_one(q), Event(100 * static_cast<unsigned>(t), t));
    // Re-queued polls keep arriving in order behind the far completion.
    q.push_idle(1000 + 100 * static_cast<unsigned>(t), t);
  }
  for (int t = 1; t < 8; ++t)
    EXPECT_EQ(pop_one(q), Event(1000 + 100 * static_cast<unsigned>(t), t));
  EXPECT_EQ(pop_one(q), Event(1'000'000'000, 0));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, IdleKeyBelowTheRingTailStillPopsFirst) {
  EventQueue q;
  q.reset(4);
  q.push_idle(500, 0);
  q.push_idle(50, 1);
  q.push_idle(700, 2);
  q.push_idle(40, 3);
  EXPECT_EQ(q.min_clock(), 40u);
  EXPECT_EQ(pop_one(q), Event(40, 3));
  EXPECT_EQ(pop_one(q), Event(50, 1));
  EXPECT_EQ(pop_one(q), Event(500, 0));
  EXPECT_EQ(pop_one(q), Event(700, 2));
}

TEST(EventQueue, ClockMustFitFortyEightBits) {
  EventQueue q;
  q.reset(2);
  q.push((std::uint64_t{1} << 48) - 1, 1);
  EXPECT_EQ(pop_one(q), Event((std::uint64_t{1} << 48) - 1, 1));
  EXPECT_DEATH(q.push(std::uint64_t{1} << 48, 0), "48 bits");
  EXPECT_DEATH(q.reset((1 << 16) + 1), "thread id");
}

// Engine-shaped random traffic against std::priority_queue: a core is
// queued at most once; a popped core comes back as an idle poll at the
// popped clock plus a period (sometimes jumping further ahead, sometimes
// landing below the ring's tail) or as a completion anywhere from "now"
// to far ahead; the queue is drained and refilled between rounds.
TEST(EventQueue, MatchesPriorityQueueUnderEngineShapedTraffic) {
  constexpr int kThreads = 512;
  constexpr std::uint64_t kPeriod = 100;
  Rng rng(2024);
  EventQueue q;
  q.reset(kThreads);
  std::uint64_t base = 0;
  std::uint64_t pops = 0;
  for (int round = 0; round < 8; ++round) {
    Reference ref;
    std::vector<int> out;  // cores not in the queue (running a strand)
    // Refill: the initial fill goes through the heap lane, with many
    // equal clocks.
    for (int t = 0; t < kThreads; ++t) {
      if (rng.next_below(8) == 0) {
        out.push_back(t);
        continue;
      }
      const std::uint64_t clock = base + rng.next_below(4);
      q.push(clock, t);
      ref.emplace(clock, t);
    }
    std::uint64_t now = base;
    for (int step = 0; step < 40000; ++step) {
      const std::uint64_t r = rng.next_below(16);
      if (r < 2 && !out.empty()) {
        // A strand completes: its key may be anywhere ahead, including far
        // beyond every queued poll.
        const std::size_t i = rng.next_below(out.size());
        const int t = out[i];
        out[i] = out.back();
        out.pop_back();
        const std::uint64_t clock =
            now + (rng.next_below(4) == 0 ? 1'000'000 + rng.next_below(1000)
                                          : rng.next_below(3 * kPeriod));
        q.push(clock, t);
        ref.emplace(clock, t);
        continue;
      }
      if (ref.empty()) break;
      ASSERT_FALSE(q.empty());
      ASSERT_EQ(q.min_clock(), ref.top().first);
      const Event got = pop_one(q);
      ASSERT_EQ(got, ref.top()) << "round " << round << " step " << step;
      ref.pop();
      ++pops;
      now = got.first;
      const std::uint64_t action = rng.next_below(16);
      if (action < 2) {
        out.push_back(got.second);  // took work: leaves the queue
        continue;
      }
      // Idle poll: usually exactly one period on (equal clocks among
      // cores popped at the same time), sometimes a jump ahead, sometimes
      // a shorter charge that lands below the ring's tail.
      std::uint64_t clock = now + kPeriod;
      if (action < 4) clock += rng.next_below(5000);
      else if (action < 6) clock = now + rng.next_below(kPeriod);
      q.push_idle(clock, got.second);
      ref.emplace(clock, got.second);
    }
    // Drain completely, then the next round refills.
    while (!ref.empty()) {
      ASSERT_EQ(pop_one(q), ref.top()) << "drain, round " << round;
      ref.pop();
      ++pops;
    }
    ASSERT_TRUE(q.empty());
    base = now + 1;
  }
  EXPECT_GT(pops, 100000u);
}

}  // namespace
}  // namespace sbs::sim
