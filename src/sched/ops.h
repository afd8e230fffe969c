// Instrumented primitives for scheduler implementations.
//
// Every lock acquisition and queue operation inside a scheduler bumps a
// thread-local operation counter. The PMH simulator converts the per-callback
// op count into virtual cycles, so a scheduler's overhead in simulated
// experiments is an emergent property of how much synchronization and queue
// work it actually performs — heavier schedulers (space-bounded tree walks)
// automatically cost more than a work-stealing deque, with no per-scheduler
// tuning knobs.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/cpu_relax.h"
#include "util/thread_safety.h"

namespace sbs::sched {

/// Scheduler operations performed by the current thread since reset.
// Keep this declaration `constinit`: it tells every user that the variable
// needs no dynamic initialization, so the compiler takes its address
// directly. A plain `extern thread_local` makes each use test a weak TLS
// init function first; under gcc's UBSan that test reads flags that GNU
// ld's initial-exec to local-exec TLS relaxation no longer sets, and the
// first read aborted with "load of null pointer". The definition stays in
// ops.cpp: an `inline` definition in this header also avoids the check, but
// with it the service benchmark's real-thread jobs ran 16-48% slower on a
// 4-vCPU AMD EPYC host (cause not isolated).
extern constinit thread_local std::uint64_t tl_ops;

inline void count_op(std::uint64_t n = 1) { tl_ops += n; }
inline std::uint64_t ops_snapshot() { return tl_ops; }

#if defined(__SANITIZE_THREAD__)
#define SBS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SBS_TSAN 1
#endif
#endif
#ifndef SBS_TSAN
#define SBS_TSAN 0
#endif

/// Full StoreLoad barrier, equivalent to
/// std::atomic_thread_fence(seq_cst) but lowered to a locked RMW on the
/// stack instead of `mfence` on x86-64 (≈20 vs ≈35+ cycles; both compilers
/// still emit mfence for the portable fence). The locked no-op does not
/// order non-temporal stores — none are issued anywhere in src/sched/.
/// Under TSan the portable fence is kept so the race detector can see it.
inline void seq_cst_fence() {
#if defined(__x86_64__) && !SBS_TSAN
  __asm__ __volatile__("lock; orl $0, (%%rsp)" ::: "memory", "cc");
#else
  // Portable StoreLoad barrier (see doc comment; TSan-visible).
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

/// Test-and-test-and-set spinlock (critical sections in schedulers are a
/// few queue operations long; CP.20: always used through RAII guards).
/// Declared as a thread-safety capability: fields it protects carry
/// SBS_GUARDED_BY(lock) and clang's -Wthread-safety proves the discipline.
class SBS_CAPABILITY("spinlock") Spinlock {
 public:
  void lock() SBS_ACQUIRE() {
    count_op();
    // Acquire on the winning exchange pairs with unlock()'s release
    // store; the relaxed inner wait loop needs no ordering — only the
    // exchange that takes the lock opens the critical section.
    while (flag_.exchange(true, std::memory_order_acquire)) {
      while (flag_.load(std::memory_order_relaxed)) util::cpu_relax();
    }
  }
  bool try_lock() SBS_TRY_ACQUIRE(true) {
    count_op();
    // Same acquire-on-success pairing as lock().
    return !flag_.exchange(true, std::memory_order_acquire);
  }
  void unlock() SBS_RELEASE() {
    // Release publishes the critical section to the next acquirer.
    flag_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool> flag_{false};
};

/// RAII guard (named per CP.44), visible to the analysis as a scoped
/// capability so guarded accesses inside the scope check out.
class SBS_SCOPED_CAPABILITY SpinGuard {
 public:
  explicit SpinGuard(Spinlock& lock) SBS_ACQUIRE(lock) : lock_(lock) {
    lock_.lock();
  }
  ~SpinGuard() SBS_RELEASE() { lock_.unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  Spinlock& lock_;
};

}  // namespace sbs::sched
