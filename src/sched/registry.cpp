#include "sched/registry.h"

#include "sched/pws.h"
#include "sched/ws.h"
#include "util/assert.h"

namespace sbs::sched {

std::unique_ptr<runtime::Scheduler> MakeScheduler(const SchedulerSpec& spec) {
  if (spec.name == "WS") return std::make_unique<WorkStealing>(spec.seed);
  if (spec.name == "PWS")
    return std::make_unique<PriorityWorkStealing>(spec.seed);
  if (spec.name == "CilkWS")
    return std::make_unique<CilkWorkStealing>(spec.seed);
  if (spec.name == "SB") {
    SpaceBounded::Options opts = spec.sb;
    opts.distributed_top = false;
    return std::make_unique<SpaceBounded>(opts);
  }
  if (spec.name == "SB-D") {
    SpaceBounded::Options opts = spec.sb;
    opts.distributed_top = true;
    return std::make_unique<SpaceBounded>(opts);
  }
  SBS_CHECK_MSG(false, ("unknown scheduler: " + spec.name).c_str());
  return nullptr;
}

std::unique_ptr<runtime::Scheduler> MakeScheduler(const std::string& name,
                                                  std::uint64_t seed,
                                                  double sigma, double mu) {
  SchedulerSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.sb.sigma = sigma;
  spec.sb.mu = mu;
  return MakeScheduler(spec);
}

std::vector<std::string> SchedulerNames() {
  return {"CilkWS", "WS", "PWS", "SB", "SB-D"};
}

}  // namespace sbs::sched
