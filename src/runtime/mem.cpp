#include "runtime/mem.h"

#include <sys/mman.h>

#include <map>
#include <vector>

#include "util/assert.h"
#include "util/thread_safety.h"

namespace sbs::mem {

constinit thread_local AccessSink* tl_sink = nullptr;

namespace arena {
namespace {

constexpr std::size_t kChunk = 2ull << 20;  // 2 MB (hugepage-sized)
// Region layout: one large host stream (kernel inputs, anything allocated
// outside a simulated strand) followed by kStreams (mem.h) fixed-size
// transient streams, one per virtual core (AccessSink::stream_id()).
constexpr std::size_t kHostSpan = 64ull << 30;
constexpr std::size_t kStreamSpan = 128ull << 20;  // per-core transient span
constexpr std::size_t kReserve =
    kHostSpan + static_cast<std::size_t>(kStreams) * kStreamSpan;
// Fixed hint well away from typical heap/stack/mmap bases; if the kernel
// cannot honor it we still get a stable base for the process lifetime.
void* const kBaseHint = reinterpret_cast<void*>(0x7e0000000000ull);

struct Stream {
  std::size_t bump = 0;  // next fresh chunk offset within the stream
  std::size_t live = 0;  // bytes currently handed out
  std::map<std::size_t, std::vector<void*>> free_by_size;  // rounded size
};

struct State {
  // The region is reserved in the constructor, so the function-local
  // static's thread-safe initialization covers it when two threads make the
  // process's first allocation at once.
  State() {
    void* region = mmap(kBaseHint, kReserve, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    SBS_CHECK_MSG(region != MAP_FAILED, "arena reservation failed");
    base = static_cast<std::byte*>(region);
  }

  util::Mutex lock;
  std::byte* base SBS_INIT_ONLY = nullptr;  // set once, in the constructor
  Stream host SBS_GUARDED_BY(lock);
  std::map<int, Stream> transient SBS_GUARDED_BY(lock);  // by stream id
};

State& state() {
  static State s;
  return s;
}

std::size_t round_up(std::size_t bytes) {
  return (bytes + kChunk - 1) / kChunk * kChunk;
}

/// The stream a chunk belongs to (by address), and its span bounds.
struct Placement {
  Stream* stream;
  std::size_t stream_base;  // offset of the stream within the region
  std::size_t stream_span;
};

Placement placement_of(State& s, std::size_t offset)
    SBS_REQUIRES(s.lock) {
  if (offset < kHostSpan) return {&s.host, 0, kHostSpan};
  const int id = static_cast<int>((offset - kHostSpan) / kStreamSpan);
  return {&s.transient[id],
          kHostSpan + static_cast<std::size_t>(id) * kStreamSpan,
          kStreamSpan};
}

Placement placement_for_alloc(State& s, int id)
    SBS_REQUIRES(s.lock) {
  if (id < 0) return {&s.host, 0, kHostSpan};
  SBS_CHECK_MSG(id < kStreams, "arena: virtual core id exceeds stream count");
  return {&s.transient[id],
          kHostSpan + static_cast<std::size_t>(id) * kStreamSpan,
          kStreamSpan};
}

}  // namespace

void* alloc(std::size_t bytes) {
  const std::size_t size = round_up(bytes);
  const int id = tl_sink != nullptr ? tl_sink->stream_id() : -1;
  State& s = state();
  util::MutexLock guard(s.lock);
  Placement p = placement_for_alloc(s, id);
  p.stream->live += size;
  auto it = p.stream->free_by_size.find(size);
  if (it != p.stream->free_by_size.end() && !it->second.empty()) {
    void* ptr = it->second.back();
    it->second.pop_back();
    // Pages were MADV_DONTNEED'd on free; they fault back in zeroed.
    return ptr;
  }
  SBS_CHECK_MSG(p.stream->bump + size <= p.stream_span,
                "arena stream exhausted");
  void* ptr = s.base + p.stream_base + p.stream->bump;
  p.stream->bump += size;
  SBS_CHECK_MSG(mprotect(ptr, size, PROT_READ | PROT_WRITE) == 0,
                "arena mprotect failed");
  return ptr;
}

void free(void* ptr, std::size_t bytes) {
  if (ptr == nullptr) return;
  const std::size_t size = round_up(bytes);
  State& s = state();
  util::MutexLock guard(s.lock);
  const std::size_t offset =
      static_cast<std::size_t>(static_cast<std::byte*>(ptr) - s.base);
  Placement p = placement_of(s, offset);
  SBS_CHECK(p.stream->live >= size);
  p.stream->live -= size;
  // Release physical pages, keep the mapping for deterministic reuse.
  (void)madvise(ptr, size, MADV_DONTNEED);
  p.stream->free_by_size[size].push_back(ptr);
}

void reset_transient() {
  State& s = state();
  util::MutexLock guard(s.lock);
  for (auto& [id, st] : s.transient) {
    SBS_CHECK_MSG(st.live == 0,
                  "transient arena allocation outlived the simulated run");
    st.bump = 0;
    st.free_by_size.clear();
  }
}

}  // namespace arena

}  // namespace sbs::mem
