#include "runtime/idle_backoff.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <thread>

#include "util/cpu_relax.h"

namespace sbs::runtime {

void idle_backoff(int streak) {
  if (streak < kSpinRounds) {
    for (int i = 0; i < (1 << streak); ++i) util::cpu_relax();
  } else if (streak < kSleepStreak) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(kIdleSleep);
  }
}

void pin_worker(int worker) {
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(worker) % host_cpus, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace sbs::runtime
