// The deterministic arena (runtime/mem.h) reserves its region on the
// process's first allocation. Two threads that make that allocation at once
// must share one region, or a chunk is later freed into the wrong stream.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "runtime/mem.h"

namespace sbs::mem {
namespace {

// The binary's only case, so that this is the process's first arena
// allocation.
TEST(MemArena, ConcurrentFirstAllocationsShareOneRegion) {
  constexpr std::size_t kBytes = 4096;
  std::atomic<int> waiting{2};
  void* ptrs[2] = {nullptr, nullptr};
  auto first_alloc = [&](int i) {
    waiting.fetch_sub(1);
    while (waiting.load() != 0) {
    }
    ptrs[i] = arena::alloc(kBytes);
    static_cast<std::byte*>(ptrs[i])[0] = std::byte{1};
  };
  std::thread a(first_alloc, 0);
  std::thread b(first_alloc, 1);
  a.join();
  b.join();
  // One host stream hands out consecutive 2 MB chunks.
  const auto lo = reinterpret_cast<std::uintptr_t>(ptrs[0]);
  const auto hi = reinterpret_cast<std::uintptr_t>(ptrs[1]);
  EXPECT_EQ(lo < hi ? hi - lo : lo - hi, std::uintptr_t{2} << 20);
  for (void* p : ptrs) arena::free(p, kBytes);
}

}  // namespace
}  // namespace sbs::mem
