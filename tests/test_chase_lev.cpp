// Stress tests for the Chase–Lev deque under real concurrency: every
// pushed item is popped or stolen exactly once, across growth and
// owner/thief races.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sched/chase_lev.h"

namespace sbs::sched {
namespace {

TEST(ChaseLev, LifoForOwner) {
  ChaseLevDeque<int> deque;
  deque.push_bottom(1);
  deque.push_bottom(2);
  deque.push_bottom(3);
  int v = 0;
  ASSERT_TRUE(deque.pop_bottom(&v));
  EXPECT_EQ(v, 3);
  ASSERT_TRUE(deque.pop_bottom(&v));
  EXPECT_EQ(v, 2);
  ASSERT_TRUE(deque.pop_bottom(&v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(deque.pop_bottom(&v));
}

TEST(ChaseLev, FifoForThief) {
  ChaseLevDeque<int> deque;
  for (int i = 1; i <= 3; ++i) deque.push_bottom(i);
  int v = 0;
  ASSERT_TRUE(deque.steal_top(&v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(deque.steal_top(&v));
  EXPECT_EQ(v, 2);
}

TEST(ChaseLev, GrowsPastInitialCapacity) {
  ChaseLevDeque<int> deque(/*initial_capacity=*/4);
  for (int i = 0; i < 1000; ++i) deque.push_bottom(i);
  for (int i = 999; i >= 0; --i) {
    int v = -1;
    ASSERT_TRUE(deque.pop_bottom(&v));
    ASSERT_EQ(v, i);
  }
}

TEST(ChaseLev, EveryItemConsumedExactlyOnceUnderContention) {
  constexpr int kItems = 200000;
  constexpr int kThieves = 3;
  ChaseLevDeque<int> deque(8);
  std::vector<std::atomic<int>> seen(kItems);
  std::atomic<bool> done{false};
  std::atomic<int> consumed{0};

  auto consume = [&](int v) {
    seen[static_cast<std::size_t>(v)].fetch_add(1, std::memory_order_relaxed);
    consumed.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      int v;
      while (!done.load(std::memory_order_acquire) ||
             consumed.load(std::memory_order_relaxed) < kItems) {
        if (deque.steal_top(&v)) consume(v);
      }
    });
  }

  // Owner interleaves pushes and pops.
  int v;
  for (int i = 0; i < kItems; ++i) {
    deque.push_bottom(i);
    if ((i & 7) == 0 && deque.pop_bottom(&v)) consume(v);
  }
  while (deque.pop_bottom(&v)) consume(v);
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  EXPECT_EQ(consumed.load(), kItems);
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(ChaseLev, ManyDequesCrossStealLikeWorkStealing) {
  // The shape WS actually runs: every worker owns a deque, pushes and pops
  // its own bottom, and steals from the others' tops when empty. Checks
  // that no item is lost or duplicated across the full owner/thief matrix.
  constexpr int kWorkers = 4;
  constexpr int kItemsPerWorker = 50000;
  constexpr int kTotal = kWorkers * kItemsPerWorker;
  std::vector<std::unique_ptr<ChaseLevDeque<int>>> deques;
  for (int w = 0; w < kWorkers; ++w)
    deques.push_back(std::make_unique<ChaseLevDeque<int>>(8));
  std::vector<std::atomic<int>> seen(kTotal);
  std::atomic<int> consumed{0};

  auto consume = [&](int v) {
    seen[static_cast<std::size_t>(v)].fetch_add(1, std::memory_order_relaxed);
    consumed.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      ChaseLevDeque<int>& own = *deques[static_cast<std::size_t>(w)];
      int v;
      // Produce own items, popping some along the way.
      for (int i = 0; i < kItemsPerWorker; ++i) {
        own.push_bottom(w * kItemsPerWorker + i);
        if ((i & 3) == 0 && own.pop_bottom(&v)) consume(v);
      }
      // Drain: own bottom first, then steal round-robin until all done.
      while (consumed.load(std::memory_order_relaxed) < kTotal) {
        if (own.pop_bottom(&v)) {
          consume(v);
          continue;
        }
        for (int k = 1; k < kWorkers; ++k) {
          if (deques[static_cast<std::size_t>((w + k) % kWorkers)]
                  ->steal_top(&v)) {
            consume(v);
            break;
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_EQ(consumed.load(), kTotal);
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(ChaseLev, OwnerDrainRacesThieves) {
  // Owner pushes a block then immediately drains its own deque while
  // thieves hammer the top: exercises the pop_bottom/steal_top CAS race on
  // the last element, where double-consumption bugs live.
  constexpr int kRounds = 2000;
  constexpr int kBlock = 8;
  constexpr int kThieves = 3;
  ChaseLevDeque<int> deque(8);
  std::vector<std::atomic<int>> seen(kRounds * kBlock);
  std::atomic<bool> done{false};
  std::atomic<int> consumed{0};

  auto consume = [&](int v) {
    seen[static_cast<std::size_t>(v)].fetch_add(1, std::memory_order_relaxed);
    consumed.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      int v;
      while (!done.load(std::memory_order_acquire)) {
        if (deque.steal_top(&v)) consume(v);
      }
    });
  }

  int v;
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kBlock; ++i) deque.push_bottom(r * kBlock + i);
    while (deque.pop_bottom(&v)) consume(v);
  }
  while (consumed.load(std::memory_order_relaxed) < kRounds * kBlock) {
    if (deque.pop_bottom(&v)) consume(v);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  EXPECT_EQ(consumed.load(), kRounds * kBlock);
  for (int i = 0; i < kRounds * kBlock; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

}  // namespace
}  // namespace sbs::sched
