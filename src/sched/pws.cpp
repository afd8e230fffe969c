#include "sched/pws.h"

#include <map>

#include "util/assert.h"

namespace sbs::sched {

void PriorityWorkStealing::start(const machine::Topology& topo,
                                 int num_threads) {
  WorkStealing::start(topo, num_threads);
  socket_members_.clear();
  socket_of_thread_.assign(static_cast<std::size_t>(num_threads), 0);
  index_in_socket_.assign(static_cast<std::size_t>(num_threads), 0);
  std::map<int, int> socket_index;  // socket node id -> dense index
  for (int t = 0; t < num_threads; ++t) {
    const int node = topo.socket_of_thread(t);
    auto [it, inserted] =
        socket_index.emplace(node, static_cast<int>(socket_members_.size()));
    if (inserted) socket_members_.emplace_back();
    socket_of_thread_[static_cast<std::size_t>(t)] = it->second;
    auto& members = socket_members_[static_cast<std::size_t>(it->second)];
    index_in_socket_[static_cast<std::size_t>(t)] =
        static_cast<int>(members.size());
    members.push_back(t);
  }
}

int PriorityWorkStealing::steal_choice(int thread_id) {
  if (num_threads_ < 2) return -1;
  PerThread& self = *threads_[static_cast<std::size_t>(thread_id)];
  const auto& local =
      socket_members_[static_cast<std::size_t>(
          socket_of_thread_[static_cast<std::size_t>(thread_id)])];
  // The caller is never its own victim: a self-steal after the
  // local-deque-empty check is a guaranteed failed attempt.
  const std::size_t n_local = local.size() - 1;
  const std::size_t n_total = static_cast<std::size_t>(num_threads_);
  const std::size_t n_remote = n_total - local.size();

  // Weighted coin: each intra-socket candidate has weight `intra_weight_`,
  // each remote candidate weight 1.
  const double w_local = intra_weight_ * static_cast<double>(n_local);
  const double w_total = w_local + static_cast<double>(n_remote);
  const bool pick_local =
      n_local > 0 &&
      (n_remote == 0 || self.rng.next_double() * w_total < w_local);
  if (pick_local) {
    // Uniform among intra-socket peers: the k-th member other than the
    // caller.
    const std::uint64_t k = self.rng.next_below(n_local);
    const auto self_index = static_cast<std::uint64_t>(
        index_in_socket_[static_cast<std::size_t>(thread_id)]);
    return local[static_cast<std::size_t>(k < self_index ? k : k + 1)];
  }
  if (n_remote == 0) return -1;  // alone on the only socket
  // Uniform among remote threads: the k-th thread id outside the caller's
  // socket. Step past each (ascending) own-socket member at or below it.
  auto victim = static_cast<int>(self.rng.next_below(n_remote));
  for (const int t : local) {
    if (t > victim) break;
    ++victim;
  }
  SBS_CHECK_MSG(victim < num_threads_,
                "PWS: remote victim selection out of range");
  return victim;
}

}  // namespace sbs::sched
