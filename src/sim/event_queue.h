// EventQueue — the simulator pump's exact min-queue of (clock, thread)
// events: idle cores waiting to poll get() and cores whose strand finished
// and awaits done/settle/add.
//
// A key packs clock << kTidBits | tid, so integer order is (clock, tid)
// order, and the pop sequence is fully determined by the multiset of pushed
// keys — whichever data structure holds them. The queue does not require
// keys to be unique: the engine's idle fast-forward can leave a stale entry
// behind for a core it re-queues elsewhere, and it skips such entries itself
// (engine.h). Two lanes hold the keys here:
//
//  - a sorted ring (FIFO) for idle re-queues. An idle core is re-queued at
//    the popped minimum plus the poll period, so successive idle keys
//    mostly arrive in increasing order and append in O(1). A key below the
//    ring's tail, or one that finds the ring full (possible only while stale
//    entries are queued), goes to the heap instead, so the ring stays
//    sorted.
//  - a small binary heap for every other push: strand completions, the
//    initial fill, and out-of-order idle keys.
//    Completions never extend the ring: one far-ahead completion key at its
//    tail would send the following idle re-queues to the heap.
//
// pop() takes the smaller of the two heads. On the 512-core huge64 config,
// where nearly every pump event is an empty poll, this replaces an
// O(log P) heap sift per poll with a ring append and a head compare.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/assert.h"

namespace sbs::sim {

class EventQueue {
 public:
  static constexpr int kTidBits = 16;
  static constexpr int kClockBits = 64 - kTidBits;

  /// Empty the queue and size it for `num_threads` cores.
  void reset(int num_threads) {
    SBS_CHECK_MSG(num_threads >= 1 && num_threads <= (1 << kTidBits),
                  "EventQueue: thread id does not fit the packed key");
    std::size_t cap = 1;
    while (cap < static_cast<std::size_t>(num_threads)) cap *= 2;
    ring_.assign(cap, 0);
    ring_head_ = ring_size_ = 0;
    heap_.clear();
    heap_.reserve(static_cast<std::size_t>(num_threads));
  }

  bool empty() const { return ring_size_ == 0 && heap_.empty(); }

  /// Smallest queued clock; the queue must not be empty.
  std::uint64_t min_clock() const { return min_key() >> kTidBits; }

  /// The smallest (clock, tid) without popping it; the queue must not be
  /// empty.
  void peek(std::uint64_t* clock, int* tid) const {
    const std::uint64_t key = min_key();
    *clock = key >> kTidBits;
    *tid = static_cast<int>(key & kTidMask);
  }

  /// Queue a completion (or any key that may be out of order): heap lane.
  void push(std::uint64_t clock, int tid) { heap_push(pack(clock, tid)); }

  /// Queue an idle core's next poll: appended to the ring when it keeps
  /// the ring sorted and the ring has room, otherwise to the heap.
  void push_idle(std::uint64_t clock, int tid) {
    const std::uint64_t key = pack(clock, tid);
    if (ring_size_ == ring_.size() ||
        (ring_size_ != 0 && key < ring_at(ring_size_ - 1))) {
      heap_push(key);
      return;
    }
    ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] = key;
    ++ring_size_;
  }

  /// Pop the smallest (clock, tid); false when empty.
  bool pop(std::uint64_t* clock, int* tid) {
    std::uint64_t key;
    if (!heap_.empty() && (ring_size_ == 0 || heap_.front() < ring_at(0))) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      key = heap_.back();
      heap_.pop_back();
    } else if (ring_size_ != 0) {
      key = ring_at(0);
      ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
      --ring_size_;
    } else {
      return false;
    }
    *clock = key >> kTidBits;
    *tid = static_cast<int>(key & kTidMask);
    return true;
  }

 private:
  static constexpr std::uint64_t kTidMask =
      (std::uint64_t{1} << kTidBits) - 1;

  static std::uint64_t pack(std::uint64_t clock, int tid) {
    SBS_CHECK_MSG(clock >> kClockBits == 0,
                  "EventQueue: virtual clock exceeds 48 bits");
    return clock << kTidBits | static_cast<std::uint64_t>(tid);
  }

  void heap_push(std::uint64_t key) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  std::uint64_t min_key() const {
    SBS_ASSERT(!empty());
    if (ring_size_ == 0) return heap_.front();
    if (heap_.empty()) return ring_at(0);
    return std::min(heap_.front(), ring_at(0));
  }

  std::uint64_t ring_at(std::size_t i) const {
    return ring_[(ring_head_ + i) & (ring_.size() - 1)];
  }

  std::vector<std::uint64_t> ring_;  ///< power-of-two circular buffer
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::vector<std::uint64_t> heap_;  ///< min-heap under std::greater
};

}  // namespace sbs::sim
