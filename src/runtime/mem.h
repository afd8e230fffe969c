// Instrumented memory: the bridge between kernel code and the PMH simulator.
//
// Kernels allocate data in mem::Array<T> and perform their real computation
// on the underlying host memory (so results are exact and testable), while
// declaring the memory traffic of each strand through the thread-local
// AccessSink:
//   - touch(addr, bytes, write): one contiguous range access (a scan, a
//     block move, one random element);
//   - work(cycles): pure compute between accesses.
//
// On the real-threads engine the sink is null and every hook is a single
// predictable branch. The simulator installs a sink per virtual core; each
// hook advances that core's virtual clock through the cache hierarchy.
//
// Granularity contract: a `touch` of a multi-line range is replayed by the
// simulator line-by-line in order, so scans cost one cache lookup per line,
// not per element. Kernels therefore batch contiguous traffic into range
// touches and only issue per-element touches for data-dependent (random)
// accesses — RRG's gather, hash-partition scatters, and so on.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.h"

namespace sbs::mem {

class AccessSink {
 public:
  virtual ~AccessSink() = default;
  /// A contiguous [addr, addr+bytes) access by the current strand.
  virtual void touch(std::uintptr_t addr, std::uint64_t bytes, bool write) = 0;
  /// `cycles` of pure computation by the current strand.
  virtual void work(std::uint64_t cycles) = 0;
  /// Allocation stream of code running under this sink (see arena below).
  /// The simulator returns the virtual core id so that mid-run allocations
  /// are placed deterministically; the default (host stream) is for
  /// everything outside simulated strands.
  virtual int stream_id() const { return -1; }
};

/// The sink of the strand running on this (real or fiber) thread context.
/// Null outside simulation.
// Keep this declaration `constinit`, for the reason given at sched::tl_ops
// (sched/ops.h): without it gcc's UBSan aborted on the first read once GNU
// ld relaxed the TLS access. Defined in mem.cpp.
extern constinit thread_local AccessSink* tl_sink;

inline void touch(const void* addr, std::uint64_t bytes, bool write) {
  if (tl_sink != nullptr)
    tl_sink->touch(reinterpret_cast<std::uintptr_t>(addr), bytes, write);
}
inline void touch_read(const void* addr, std::uint64_t bytes) {
  touch(addr, bytes, false);
}
inline void touch_write(const void* addr, std::uint64_t bytes) {
  touch(addr, bytes, true);
}
inline void work(std::uint64_t cycles) {
  if (tl_sink != nullptr) tl_sink->work(cycles);
}

/// Deterministic allocation arena backing mem::Array.
///
/// Chunks are 2 MB-aligned and carved from one reserved region at a fixed
/// address hint, bump-allocated with exact-size recycling. Two benefits:
/// (i) simulated page→socket homes and cache set indices depend only on the
/// allocation *sequence*, not on ASLR, so every experiment is reproducible
/// across process runs; (ii) freed chunks release their physical pages
/// (MADV_DONTNEED) but keep their virtual address for the next same-size
/// array — repeated repetitions reuse identical addresses.
///
/// The region is split into a host stream plus one *transient stream* per
/// virtual core (keyed by AccessSink::stream_id() of the installed sink).
/// Arrays allocated inside a simulated strand come from the owning core's
/// stream, so their addresses are a pure function of that core's
/// deterministic execution — not of the order in which the engine runs
/// the shards of a window phase, which are independent of each other.
/// Without this, a kernel that allocates scratch arrays mid-run would see
/// its page→socket homes move with any change to that order, though no
/// simulated event changed. The engine calls reset_transient() at the
/// start of every run so repeated runs in one process replay identical
/// addresses.
namespace arena {
/// Transient streams, hence the largest virtual-core count a simulation
/// may use: 2048, the largest shipped config (huge128/huge256). The
/// reservation is PROT_NONE and MAP_NORESERVE, so each stream costs address
/// space only (128 MB each, 320 GB in all with the 64 GB host stream).
inline constexpr int kStreams = 2048;
void* alloc(std::size_t bytes);          ///< bytes rounded up to 2 MB chunks
void free(void* ptr, std::size_t bytes);
/// Rewind every per-core transient stream (all its chunks must have been
/// freed) so the next run's mid-strand allocations replay the same
/// addresses. Host-stream allocations (kernel inputs) are untouched.
void reset_transient();
}  // namespace arena

/// RAII installer used by the simulator around strand execution.
class SinkScope {
 public:
  explicit SinkScope(AccessSink* sink) : prev_(tl_sink) { tl_sink = sink; }
  ~SinkScope() { tl_sink = prev_; }
  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;

 private:
  AccessSink* prev_;
};

/// A fixed-size array of trivially-copyable elements, allocated on a page
/// boundary (the simulator maps pages to memory sockets by address, mirroring
/// the paper's hugepage placement). Element access is raw; instrumentation is
/// explicit via the touch helpers or the read()/write() convenience methods.
template <class T>
class Array {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  Array() = default;
  explicit Array(std::size_t n) { reset(n); }
  ~Array() { release(); }

  Array(const Array&) = delete;
  Array& operator=(const Array&) = delete;
  Array(Array&& other) noexcept { *this = std::move(other); }
  Array& operator=(Array&& other) noexcept {
    if (this != &other) {
      release();
      data_ = other.data_;
      n_ = other.n_;
      other.data_ = nullptr;
      other.n_ = 0;
    }
    return *this;
  }

  void reset(std::size_t n) {
    release();
    n_ = n;
    if (n == 0) return;
    // 2 MB chunks from the deterministic arena: matches the hugepage
    // allocation of the paper's setup and gives the simulator clean,
    // reproducible page→socket homes.
    data_ = static_cast<T*>(arena::alloc(n * sizeof(T)));
  }

  std::size_t size() const { return n_; }
  std::uint64_t bytes() const { return n_ * sizeof(T); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  /// Instrumented single-element access (use for data-dependent patterns).
  T read(std::size_t i) const {
    touch_read(&data_[i], sizeof(T));
    return data_[i];
  }
  void write(std::size_t i, const T& v) {
    touch_write(&data_[i], sizeof(T));
    data_[i] = v;
  }

  /// Declare a scan over [lo, hi) without per-element hooks.
  void touch_range(std::size_t lo, std::size_t hi, bool write_access) const {
    SBS_ASSERT(lo <= hi && hi <= n_);
    if (hi > lo) touch(&data_[lo], (hi - lo) * sizeof(T), write_access);
  }

 private:
  void release() {
    if (data_ != nullptr) arena::free(data_, n_ * sizeof(T));
    data_ = nullptr;
    n_ = 0;
  }

  T* data_ = nullptr;
  std::size_t n_ = 0;
};

}  // namespace sbs::mem
