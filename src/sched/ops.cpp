#include "sched/ops.h"

namespace sbs::sched {

constinit thread_local std::uint64_t tl_ops = 0;

}  // namespace sbs::sched
