#include "service/workload.h"

#include <bit>
#include <cmath>

#include "util/assert.h"

namespace sbs::service {

Workload::Workload(const WorkloadOptions& options, std::uint64_t seed)
    : options_(options), rng_(seed), prepare_seed_(seed * 0x9e37 + 1) {
  SBS_CHECK_MSG(options_.tenants >= 1, "workload needs at least one tenant");
  SBS_CHECK_MSG(!options_.kernels.empty(), "workload needs kernels");
  SBS_CHECK_MSG(options_.min_n <= options_.max_n, "size band inverted");
  SBS_CHECK_MSG(options_.size_classes >= 1, "need at least one size class");

  tenants_.resize(static_cast<std::size_t>(options_.tenants));
  for (auto& tenant : tenants_) {
    // Preference weights: uniform draws, cumulated for O(log k) sampling.
    double total = 0;
    tenant.kernel_weights.reserve(options_.kernels.size());
    for (std::size_t k = 0; k < options_.kernels.size(); ++k) {
      total += 0.1 + rng_.next_double();
      tenant.kernel_weights.push_back(total);
    }
    for (double& w : tenant.kernel_weights) w /= total;

    // Size classes: fixed per tenant so the instance pool stays bounded.
    tenant.sizes.reserve(static_cast<std::size_t>(options_.size_classes));
    for (int c = 0; c < options_.size_classes; ++c) {
      const std::uint64_t span = options_.max_n - options_.min_n + 1;
      tenant.sizes.push_back(options_.min_n +
                             static_cast<std::size_t>(rng_.next_below(span)));
    }
  }
}

Request Workload::next() {
  Request req;
  req.tenant = static_cast<int>(
      rng_.next_below(static_cast<std::uint64_t>(options_.tenants)));
  Tenant& tenant = tenants_[static_cast<std::size_t>(req.tenant)];

  const double draw = rng_.next_double();
  std::size_t pick = 0;
  while (pick + 1 < tenant.kernel_weights.size() &&
         draw > tenant.kernel_weights[pick]) {
    ++pick;
  }
  req.kernel = options_.kernels[pick];
  std::size_t n = tenant.sizes[rng_.next_below(tenant.sizes.size())];
  if (req.kernel == "matmul") {
    // Matrix order with a footprint (3·n²·8 bytes) comparable to the sort
    // kernels' 2·n·8 bytes over the same band, rounded down to the
    // power of two the recursive matmul requires.
    n = std::max<std::size_t>(
        32, static_cast<std::size_t>(std::sqrt(static_cast<double>(n) * 2.0 /
                                               3.0)));
    n = std::bit_floor(n);
  }
  req.n = n;

  const PoolKey key{req.kernel, req.n};
  auto& bucket = free_[key];
  kernels::Kernel* instance = nullptr;
  if (!bucket.empty()) {
    instance = bucket.back().release();
    bucket.pop_back();
  } else {
    // Instances are never destroyed mid-run, so the created count is the
    // live total (leased + pooled).
    if (created_ >= options_.max_instances) {
      req.dropped = true;
      return req;
    }
    kernels::KernelParams params;
    params.n = req.n;
    auto fresh = kernels::MakeKernel(req.kernel, params);
    fresh->prepare(prepare_seed_ + created_);
    ++created_;
    instance = fresh.release();
  }
  leased_.emplace(instance, key);

  req.instance = instance;
  req.root = instance->make_root();
  req.declared_bytes = static_cast<std::uint64_t>(
      static_cast<double>(instance->problem_bytes()) * options_.overdeclare);
  return req;
}

void Workload::release(kernels::Kernel* instance) {
  auto it = leased_.find(instance);
  SBS_CHECK_MSG(it != leased_.end(), "release of an instance not leased");
  free_[it->second].push_back(std::unique_ptr<kernels::Kernel>(instance));
  leased_.erase(it);
}

}  // namespace sbs::service
