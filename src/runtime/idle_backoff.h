// What the real-thread worker loops (runtime::ThreadPool, service::Runtime)
// do around get(): pin each worker to a host CPU, and back off while get()
// returns nothing.
//
// Tiered idle backoff: a worker whose get() returned nothing first spins
// with `pause` (cheap, keeps the thread hot for an immediate retry), then
// yields to the OS, then sleeps in short bursts. Without this, every idle
// core hammers get() in a tight loop, saturating victim deques and SB node
// locks with probe traffic — overhead charged to the *scheduler* in §3.3
// even though it is pure engine behaviour. A loop resets its streak
// whenever a job arrives, so the fast tiers always cover the transient
// case; the sleep tier caps wakeup latency at kIdleSleep and keeps an idle
// resident service near zero CPU.
#pragma once

#include <chrono>

namespace sbs::runtime {

constexpr int kSpinRounds = 8;    // streaks 0..7: 1..128 pause iterations
constexpr int kYieldRounds = 16;  // streaks 8..23: sched_yield
/// The first streak of the sleep tier.
constexpr int kSleepStreak = kSpinRounds + kYieldRounds;
constexpr auto kIdleSleep = std::chrono::microseconds(50);

/// One backoff step after the `streak`-th consecutive empty get() (from 0).
void idle_backoff(int streak);

/// Best-effort pinning of the calling thread, worker `worker`, to host CPU
/// worker % hardware_concurrency(). Failure is fine (containers, small
/// hosts): correctness never depends on placement.
void pin_worker(int worker);

}  // namespace sbs::runtime
