// PWS — priority work stealing (paper §4.2, after Quintin & Wagner).
//
// Identical to WS except for victim selection: victims sharing the caller's
// socket (depth-1 cache cluster) are chosen with `intra_weight` times the
// probability of remote victims (the paper sets 10× on its 4-socket box).
// Like WS, the caller is never its own victim.
#pragma once

#include "sched/ws.h"

namespace sbs::sched {

class PriorityWorkStealing final : public WorkStealing {
 public:
  explicit PriorityWorkStealing(std::uint64_t seed = 1,
                                double intra_weight = 10.0)
      : WorkStealing(seed), intra_weight_(intra_weight) {}

  void start(const machine::Topology& topo, int num_threads) override;
  std::string name() const override { return "PWS"; }

 protected:
  int steal_choice(int thread_id) override;

 private:
  double intra_weight_;
  /// threads grouped by socket: socket_members_[s] = thread ids under s,
  /// ascending.
  std::vector<std::vector<int>> socket_members_;
  std::vector<int> socket_of_thread_;
  /// Each thread's index in its socket's member list.
  std::vector<int> index_in_socket_;
};

}  // namespace sbs::sched
