// Multi-tenant job mixes over the paper's kernels, plus a kernel-instance
// pool so an open-loop stream can reuse prepared inputs.
//
// Each tenant gets a deterministic profile drawn once from the workload
// seed: a preference weight per kernel family (quicksort / samplesort /
// matmul by default) and a problem-size band. next() then draws
// (tenant, kernel, size) per arrival, leases a prepared Kernel instance
// from the pool (preparing a fresh one on first use of a size class), and
// builds the root job for submission. Instances return to the pool via
// release() once the submission completes and its output is verified.
//
// Not thread-safe by design: one Workload per generator thread (closed-loop
// clients construct their own with a distinct seed), matching the repo's
// determinism-by-explicit-seed convention.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernels/kernel.h"
#include "util/rng.h"

namespace sbs::service {

struct WorkloadOptions {
  int tenants = 8;
  std::vector<std::string> kernels = {"quicksort", "samplesort", "matmul"};
  /// Problem-size band for the sort kernels, in elements. Matmul draws a
  /// matrix order from the band scaled to a comparable byte footprint.
  std::size_t min_n = 16 << 10;
  std::size_t max_n = 64 << 10;
  /// Number of size classes per (tenant, kernel) — bounds pool cardinality.
  int size_classes = 2;
  /// Multiplier on the declared footprint handed to admission control.
  /// 1.0 declares honestly; > 1 over-declares (drives rejection tests).
  double overdeclare = 1.0;
  /// Hard cap on live kernel instances; next() fails (drop) beyond it.
  std::size_t max_instances = 256;
};

/// One generated request. `instance` stays leased until release().
struct Request {
  int tenant = -1;
  std::string kernel;
  std::size_t n = 0;
  std::uint64_t declared_bytes = 0;
  kernels::Kernel* instance = nullptr;
  runtime::Job* root = nullptr;
  bool dropped = false;  ///< pool exhausted — client-side drop, not submitted
};

class Workload {
 public:
  /// The seed is explicit and mandatory (see arrivals.h's determinism
  /// contract): tenant profiles and all per-arrival draws derive from it.
  Workload(const WorkloadOptions& options, std::uint64_t seed);

  const WorkloadOptions& options() const { return options_; }

  /// Draw the next request and build its root job. The returned Request
  /// owns nothing the caller must free on the happy path: the root job's
  /// ownership passes to Runtime::submit, the instance returns via
  /// release(). If the request is dropped (pool cap), root is null.
  Request next();

  /// Return a leased instance to the pool. Call after the submission
  /// reached a terminal state (and, if desired, after Kernel::verify()).
  void release(kernels::Kernel* instance);

  std::uint64_t created_instances() const { return created_; }

 private:
  struct Tenant {
    std::vector<double> kernel_weights;  ///< cumulative, normalized to 1
    std::vector<std::size_t> sizes;      ///< one per size class
  };
  struct PoolKey {
    std::string kernel;
    std::size_t n;
    bool operator<(const PoolKey& other) const {
      return kernel != other.kernel ? kernel < other.kernel : n < other.n;
    }
  };

  WorkloadOptions options_;
  Rng rng_;
  std::uint64_t prepare_seed_;
  std::vector<Tenant> tenants_;
  std::map<PoolKey, std::vector<std::unique_ptr<kernels::Kernel>>> free_;
  std::map<kernels::Kernel*, PoolKey> leased_;
  std::uint64_t created_ = 0;
};

}  // namespace sbs::service
