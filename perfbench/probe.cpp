#include "probe.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

namespace perfbench {
namespace {

constexpr std::size_t kWays = 16;
constexpr int kSetBits = 15;  // 32768 sets x 16 ways x 8 B = 4 MB of tags
constexpr std::size_t kSets = std::size_t{1} << kSetBits;
constexpr std::uint64_t kAccesses = 1 << 20;
/// Sequential lines wrap over 4 MB of data; random lines span 64 MB.
constexpr std::uint64_t kSeqLines = 1 << 16;
constexpr std::uint64_t kRandomLines = 1 << 20;

constexpr std::size_t kSortSizes[] = {16 << 10, 32 << 10, 64 << 10};
constexpr std::size_t kSortMax = 64 << 10;
constexpr int kSortRounds = 6;  // each size twice
constexpr std::chrono::milliseconds kSortIdle{1};

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

HostProbe::HostProbe() : tags_(kSets * kWays, 0) {}

double HostProbe::run() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::uint64_t rng = 0x2545f4914f6cdd1dULL;
  std::uint64_t seq = 0;
  std::uint64_t hits = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kAccesses; ++i) {
    std::uint64_t line;
    if ((i & 3) != 3) {
      line = seq;
      seq = (seq + 1) & (kSeqLines - 1);
    } else {
      rng ^= rng >> 12;
      rng ^= rng << 25;
      rng ^= rng >> 27;
      line = kSeqLines + (rng * 0x2545f4914f6cdd1dULL) % kRandomLines;
    }
    const std::uint64_t tag = line + 1;  // 0 marks an empty way
    std::uint64_t* set =
        tags_.data() + ((line * 0x9e3779b97f4a7c15ULL) >> (64 - kSetBits)) *
                           kWays;
    std::size_t way = 0;
    while (way < kWays && set[way] != tag) ++way;
    if (way < kWays) {
      ++hits;
    } else {
      way = kWays - 1;  // miss: the LRU way is evicted
    }
    std::memmove(set + 1, set, way * sizeof(std::uint64_t));
    set[0] = tag;
  }
  const double seconds = Seconds(t0);
  hits_ += hits;
  samples_.push_back(seconds);
  return seconds;
}

SortProbe::SortProbe() : input_(kSortMax), buffer_(kSortMax) {
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (double& x : input_) {
    rng ^= rng >> 12;
    rng ^= rng << 25;
    rng ^= rng >> 27;
    x = static_cast<double>(rng * 0x2545f4914f6cdd1dULL >> 11) * 0x1p-53;
  }
}

double SortProbe::run() {
  std::mutex mutex;
  std::condition_variable cv;
  int requested = 0;
  int completed = 0;
  bool stop = false;
  double sort_s = 0;
  std::thread worker([&] {
    std::unique_lock<std::mutex> lock(mutex);
    for (int i = 0;; ++i) {
      cv.wait(lock, [&] { return requested > i || stop; });
      if (requested <= i) return;
      lock.unlock();
      const std::size_t n = kSortSizes[static_cast<std::size_t>(i) % 3];
      const auto t0 = std::chrono::steady_clock::now();
      std::copy_n(input_.begin(), n, buffer_.begin());
      std::sort(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(n));
      sort_s += Seconds(t0);
      lock.lock();
      completed = i + 1;
      cv.notify_all();
    }
  });
  double seconds = 0;
  for (int i = 0; i < kSortRounds; ++i) {
    std::this_thread::sleep_for(kSortIdle);
    const auto t0 = std::chrono::steady_clock::now();
    {
      const std::lock_guard<std::mutex> guard(mutex);
      requested = i + 1;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return completed == i + 1; });
    seconds += Seconds(t0);
  }
  {
    const std::lock_guard<std::mutex> guard(mutex);
    stop = true;
  }
  cv.notify_all();
  worker.join();
  samples_.push_back(seconds);
  sort_samples_.push_back(sort_s);
  return seconds;
}

}  // namespace perfbench
