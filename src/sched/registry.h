// Scheduler factory: construct any of the paper's schedulers by name.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runtime/scheduler.h"
#include "sched/sb.h"

namespace sbs::sched {

struct SchedulerSpec {
  std::string name;  ///< "WS", "PWS", "CilkWS", "SB", "SB-D"
  /// Victim-selection seed of the work-stealing schedulers; SB and SB-D
  /// draw no random numbers and ignore it.
  std::uint64_t seed = 1;
  /// Space-bounded knobs (ignored by work-stealing schedulers).
  SpaceBounded::Options sb;
};

/// Construct a scheduler. Checks the name against the registry.
std::unique_ptr<runtime::Scheduler> MakeScheduler(const SchedulerSpec& spec);

/// Shorthand: default options, given σ for the space-bounded variants.
std::unique_ptr<runtime::Scheduler> MakeScheduler(const std::string& name,
                                                  std::uint64_t seed = 1,
                                                  double sigma = 0.5,
                                                  double mu = 0.2);

std::vector<std::string> SchedulerNames();

}  // namespace sbs::sched
