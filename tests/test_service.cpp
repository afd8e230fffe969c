// Tests for the scheduler-as-a-service subsystem (src/service/): σM-budget
// admission edge cases, runtime lifecycle across all four schedulers,
// arrival/workload determinism, and policy mechanics.
//
// Machine: the "mini" preset — 2 sockets × 2 cores, L2 64KB and L1 4KB per
// line of descent. With σ = 0.5 the admission budgets are 32KB per L2 node
// and 2KB per L1 node, so a 20KB declaration befits an L2 and two of them
// exhaust one socket's budget exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "kernels/kernel.h"
#include "machine/topology.h"
#include "util/cpu_relax.h"
#include "service/admission.h"
#include "service/arrivals.h"
#include "service/metrics.h"
#include "service/runtime.h"
#include "service/workload.h"

namespace sbs {
namespace {

machine::Topology MiniTopo() { return machine::Topology(machine::Preset("mini")); }

service::RuntimeOptions BaseOptions(const std::string& sched,
                                    service::AdmissionPolicy policy) {
  service::RuntimeOptions options;
  options.scheduler.name = sched;
  options.admission.policy = policy;
  options.num_threads = 4;
  options.num_tenants = 4;
  return options;
}

service::WorkloadOptions SmallMix() {
  service::WorkloadOptions mix;
  mix.tenants = 4;
  mix.kernels = {"quicksort", "samplesort"};
  mix.min_n = 256;
  mix.max_n = 1024;  // ≤ 16KB declared, fits the 32KB L2 budget
  return mix;
}

/// Holds its strand (and therefore its σM reservation) until opened.
/// Deterministic way to pin admission budget in tests.
class GateJob final : public runtime::SBJob {
 public:
  GateJob(std::uint64_t bytes, std::atomic<bool>* open)
      : SBJob(bytes), open_(open) {}
  void execute(runtime::Strand&) override {
    while (!open_->load(std::memory_order_acquire)) util::cpu_relax();
  }

 private:
  std::atomic<bool>* open_;
};

// --- AdmissionController unit tests -----------------------------------

TEST(Admission, BefitDepthFollowsBudgets) {
  const auto topo = MiniTopo();
  service::AdmissionOptions opts;  // sigma 0.5
  service::AdmissionController ctl(topo, opts);
  EXPECT_EQ(ctl.befit_depth(1 << 10), 2);   // 1KB ≤ 2KB → L1
  EXPECT_EQ(ctl.befit_depth(16 << 10), 1);  // 16KB ≤ 32KB → L2
  EXPECT_EQ(ctl.befit_depth(64 << 10), 0);  // 64KB fits nothing but memory
  EXPECT_TRUE(ctl.fits_any_cache(32 << 10));
  EXPECT_FALSE(ctl.fits_any_cache((32 << 10) + 1));
}

TEST(Admission, TooLargeIsTerminalNoBudgetIsNot) {
  const auto topo = MiniTopo();
  service::AdmissionController ctl(topo, service::AdmissionOptions{});
  const auto too_large = ctl.try_admit(1 << 20);
  EXPECT_EQ(too_large.kind, service::AdmissionDecision::Kind::kTooLarge);

  // Two 20KB reservations exhaust both L2 budgets (32KB each).
  const auto a = ctl.try_admit(20 << 10);
  const auto b = ctl.try_admit(20 << 10);
  ASSERT_EQ(a.kind, service::AdmissionDecision::Kind::kAdmitted);
  ASSERT_EQ(b.kind, service::AdmissionDecision::Kind::kAdmitted);
  EXPECT_NE(a.node, b.node);  // least-loaded placement spreads sockets
  const auto c = ctl.try_admit(20 << 10);
  EXPECT_EQ(c.kind, service::AdmissionDecision::Kind::kNoBudget);

  ctl.release(a.node, 20 << 10);
  const auto d = ctl.try_admit(20 << 10);
  EXPECT_EQ(d.kind, service::AdmissionDecision::Kind::kAdmitted);
  EXPECT_EQ(d.node, a.node);
  ctl.release(b.node, 20 << 10);
  ctl.release(d.node, 20 << 10);
  EXPECT_EQ(ctl.reserved(a.node), 0u);
}

TEST(Admission, ExactBudgetAdmitsAndExhausts) {
  const auto topo = MiniTopo();
  service::AdmissionController ctl(topo, service::AdmissionOptions{});
  // Exactly σM = 32KB: must be admitted (bound is ≤, like the scheduler's
  // own occupancy check), and must exhaust that node completely.
  const auto a = ctl.try_admit(32 << 10);
  ASSERT_EQ(a.kind, service::AdmissionDecision::Kind::kAdmitted);
  const auto b = ctl.try_admit(32 << 10);
  ASSERT_EQ(b.kind, service::AdmissionDecision::Kind::kAdmitted);
  // Even 1KB (L1-befitting) cannot charge its path now: every L2 is full.
  const auto c = ctl.try_admit(1 << 10);
  EXPECT_EQ(c.kind, service::AdmissionDecision::Kind::kNoBudget);
  ctl.release(a.node, 32 << 10);
  ctl.release(b.node, 32 << 10);
}

TEST(Admission, L1ChargesPropagateToL2) {
  const auto topo = MiniTopo();
  service::AdmissionController ctl(topo, service::AdmissionOptions{});
  // Four 2KB L1 reservations (one per core) charge 4KB to each L2.
  std::vector<service::AdmissionDecision> taken;
  for (int i = 0; i < 4; ++i) {
    const auto d = ctl.try_admit(2 << 10);
    ASSERT_EQ(d.kind, service::AdmissionDecision::Kind::kAdmitted);
    taken.push_back(d);
  }
  // A fifth L1-sized job finds every L1 full.
  EXPECT_EQ(ctl.try_admit(2 << 10).kind,
            service::AdmissionDecision::Kind::kNoBudget);
  // And each L2 already carries 4KB, so only 28KB of L2 budget remains.
  EXPECT_EQ(ctl.try_admit(30 << 10).kind,
            service::AdmissionDecision::Kind::kNoBudget);
  EXPECT_EQ(ctl.try_admit(28 << 10).kind,
            service::AdmissionDecision::Kind::kAdmitted);
  for (const auto& d : taken) ctl.release(d.node, 2 << 10);
}

// --- Runtime lifecycle across schedulers ------------------------------

TEST(ServiceRuntime, CompletesStreamOnEveryScheduler) {
  const auto topo = MiniTopo();
  for (const char* sched : {"WS", "PWS", "SB", "SB-D"}) {
    // Queue policy: the 24-job burst overcommits the mini machine's 64KB
    // of σM budget, so the surplus parks and drains as completions free it.
    auto options = BaseOptions(sched, service::AdmissionPolicy::kQueue);
    options.admission.queue_timeout_s = 30.0;
    service::Runtime runtime(topo, options);
    service::Workload workload(SmallMix(), /*seed=*/21);
    std::vector<std::pair<service::JobHandle, kernels::Kernel*>> jobs;
    for (int i = 0; i < 24; ++i) {
      service::Request req = workload.next();
      ASSERT_FALSE(req.dropped);
      jobs.emplace_back(
          runtime.submit(req.root, req.declared_bytes, req.tenant),
          req.instance);
    }
    runtime.drain();
    for (auto& [handle, instance] : jobs) {
      EXPECT_EQ(runtime.wait(handle), service::JobState::kDone) << sched;
      EXPECT_TRUE(instance->verify()) << sched;
      EXPECT_GT(handle.sojourn_s(), 0.0);
      EXPECT_GE(handle.sojourn_s(), handle.queueing_s());
      workload.release(instance);
    }
    const auto agg = runtime.metrics().aggregate();
    EXPECT_EQ(agg.submitted, 24u) << sched;
    EXPECT_EQ(agg.completed, 24u) << sched;
    EXPECT_EQ(agg.rejected, 0u) << sched;
    runtime.shutdown();
  }
}

TEST(ServiceRuntime, ConcurrentClientsUnderVerify) {
  const auto topo = MiniTopo();
  auto options = BaseOptions("SB", service::AdmissionPolicy::kReject);
  options.verify = true;
  service::Runtime runtime(topo, options);
  std::atomic<int> done{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      service::Workload workload(SmallMix(), 100 + static_cast<unsigned>(c));
      for (int i = 0; i < 12; ++i) {
        service::Request req = workload.next();
        if (req.dropped) continue;
        auto handle = runtime.submit(req.root, req.declared_bytes, req.tenant);
        if (runtime.wait(handle) == service::JobState::kDone &&
            req.instance->verify()) {
          done.fetch_add(1);
        }
        workload.release(req.instance);
      }
    });
  }
  for (auto& t : clients) t.join();
  runtime.shutdown();
  EXPECT_EQ(done.load(), 24);
  ASSERT_NE(runtime.verifier(), nullptr);
  EXPECT_TRUE(runtime.verifier()->ok()) << runtime.verifier()->report();
}

// --- Admission edge cases through the runtime -------------------------

TEST(ServiceRuntime, TooLargeRejectsImmediatelyNeverWedges) {
  const auto topo = MiniTopo();
  // Queue policy: an over-large job must NOT be parked (it could never be
  // admitted — it would pin the FIFO head until timeout), it must fail now.
  auto options = BaseOptions("SB", service::AdmissionPolicy::kQueue);
  options.admission.queue_timeout_s = 30.0;  // a wedge would hang the test
  service::Runtime runtime(topo, options);

  kernels::KernelParams params;
  params.n = 512;
  auto kernel = kernels::MakeKernel("quicksort", params);
  kernel->prepare(3);
  auto handle =
      runtime.submit(kernel->make_root(), /*declared=*/1 << 26, /*tenant=*/0);
  EXPECT_EQ(runtime.wait(handle), service::JobState::kRejected);

  // The service keeps serving honest submissions afterwards.
  auto ok = runtime.submit(kernel->make_root(), 8 << 10, 1);
  EXPECT_EQ(runtime.wait(ok), service::JobState::kDone);
  EXPECT_TRUE(kernel->verify());
  const auto agg = runtime.metrics().aggregate();
  EXPECT_EQ(agg.rejected, 1u);
  EXPECT_EQ(agg.completed, 1u);
  runtime.shutdown();
}

TEST(ServiceRuntime, QueuedJobTimesOutWhileBudgetHeld) {
  const auto topo = MiniTopo();
  auto options = BaseOptions("SB", service::AdmissionPolicy::kQueue);
  options.admission.queue_timeout_s = 0.2;
  service::Runtime runtime(topo, options);

  std::atomic<bool> open{false};
  // Two gates pin the full 32KB budget of each L2 node.
  auto g1 = runtime.submit(new GateJob(32 << 10, &open), 32 << 10, 0);
  auto g2 = runtime.submit(new GateJob(32 << 10, &open), 32 << 10, 0);

  kernels::KernelParams params;
  params.n = 512;
  auto kernel = kernels::MakeKernel("quicksort", params);
  kernel->prepare(5);
  auto parked = runtime.submit(kernel->make_root(), 8 << 10, 1);
  // Budget is provably held, so the submission can only end by deadline.
  EXPECT_EQ(runtime.wait(parked), service::JobState::kTimedOut);
  EXPECT_EQ(runtime.metrics().aggregate().timed_out, 1u);

  open.store(true, std::memory_order_release);
  EXPECT_EQ(runtime.wait(g1), service::JobState::kDone);
  EXPECT_EQ(runtime.wait(g2), service::JobState::kDone);
  runtime.shutdown();
}

TEST(ServiceRuntime, QueuedJobAdmittedWhenBudgetFrees) {
  const auto topo = MiniTopo();
  auto options = BaseOptions("SB", service::AdmissionPolicy::kQueue);
  options.admission.queue_timeout_s = 30.0;
  service::Runtime runtime(topo, options);

  std::atomic<bool> open{false};
  auto g1 = runtime.submit(new GateJob(32 << 10, &open), 32 << 10, 0);
  auto g2 = runtime.submit(new GateJob(32 << 10, &open), 32 << 10, 0);

  kernels::KernelParams params;
  params.n = 512;
  auto kernel = kernels::MakeKernel("quicksort", params);
  kernel->prepare(7);
  auto parked = runtime.submit(kernel->make_root(), 8 << 10, 1);
  EXPECT_EQ(parked.state(), service::JobState::kQueued);

  open.store(true, std::memory_order_release);  // completions free budget
  EXPECT_EQ(runtime.wait(parked), service::JobState::kDone);
  EXPECT_TRUE(kernel->verify());
  EXPECT_EQ(runtime.wait(g1), service::JobState::kDone);
  EXPECT_EQ(runtime.wait(g2), service::JobState::kDone);
  EXPECT_GT(runtime.metrics().aggregate().queued, 0u);
  runtime.shutdown();
}

TEST(ServiceRuntime, DegradePolicyRunsOverBudgetWorkUnderVerify) {
  const auto topo = MiniTopo();
  auto options = BaseOptions("SB", service::AdmissionPolicy::kDegrade);
  options.verify = true;
  service::Runtime runtime(topo, options);
  EXPECT_NE(runtime.scheduler().name().find("wsfallback"), std::string::npos);

  auto mix = SmallMix();
  mix.overdeclare = 1000.0;  // every declaration exceeds every cache
  service::Workload workload(mix, 31);
  std::vector<std::pair<service::JobHandle, kernels::Kernel*>> jobs;
  for (int i = 0; i < 16; ++i) {
    service::Request req = workload.next();
    ASSERT_FALSE(req.dropped);
    jobs.emplace_back(
        runtime.submit(req.root, req.declared_bytes, req.tenant),
        req.instance);
  }
  for (auto& [handle, instance] : jobs) {
    EXPECT_EQ(runtime.wait(handle), service::JobState::kDone);
    EXPECT_TRUE(instance->verify());
    workload.release(instance);
  }
  const auto agg = runtime.metrics().aggregate();
  EXPECT_EQ(agg.degraded, 16u);
  EXPECT_EQ(agg.completed, 16u);
  EXPECT_EQ(agg.rejected, 0u);
  runtime.shutdown();
  ASSERT_NE(runtime.verifier(), nullptr);
  EXPECT_TRUE(runtime.verifier()->ok()) << runtime.verifier()->report();
}

TEST(ServiceRuntime, OverdeclaredStreamIsRejectedNotAbsorbed) {
  const auto topo = MiniTopo();
  auto options = BaseOptions("SB", service::AdmissionPolicy::kReject);
  service::Runtime runtime(topo, options);
  auto mix = SmallMix();
  mix.overdeclare = 1000.0;
  service::Workload workload(mix, 77);
  for (int i = 0; i < 8; ++i) {
    service::Request req = workload.next();
    ASSERT_FALSE(req.dropped);
    auto handle = runtime.submit(req.root, req.declared_bytes, req.tenant);
    EXPECT_EQ(runtime.wait(handle), service::JobState::kRejected);
    workload.release(req.instance);
  }
  const auto agg = runtime.metrics().aggregate();
  EXPECT_EQ(agg.rejected, 8u);
  EXPECT_DOUBLE_EQ(agg.rejection_rate(), 1.0);
  // Nothing was charged: the full budget is still there for honest work.
  kernels::KernelParams params;
  params.n = 512;
  auto kernel = kernels::MakeKernel("quicksort", params);
  kernel->prepare(9);
  auto handle = runtime.submit(kernel->make_root(), 32 << 10, 0);
  EXPECT_EQ(runtime.wait(handle), service::JobState::kDone);
  runtime.shutdown();
}

// --- Determinism ------------------------------------------------------

TEST(ServiceWorkload, DeterministicInSeed) {
  const auto mix = SmallMix();
  service::Workload a(mix, 42), b(mix, 42), c(mix, 43);
  bool any_diff = false;
  for (int i = 0; i < 32; ++i) {
    service::Request ra = a.next(), rb = b.next(), rc = c.next();
    EXPECT_EQ(ra.tenant, rb.tenant);
    EXPECT_EQ(ra.kernel, rb.kernel);
    EXPECT_EQ(ra.n, rb.n);
    EXPECT_EQ(ra.declared_bytes, rb.declared_bytes);
    any_diff |= ra.tenant != rc.tenant || ra.n != rc.n;
    for (service::Request* r : {&ra, &rb, &rc}) {
      delete r->root;  // never submitted, so the test owns it
    }
    a.release(ra.instance);
    b.release(rb.instance);
    c.release(rc.instance);
  }
  EXPECT_TRUE(any_diff);  // different seed, different mix
}

TEST(ServiceArrivals, DeterministicInSeedAndMonotone) {
  for (const char* kind : {"poisson", "mmpp", "diurnal"}) {
    auto a = service::MakeArrivals(kind, 1000.0, 7);
    auto b = service::MakeArrivals(kind, 1000.0, 7);
    auto c = service::MakeArrivals(kind, 1000.0, 8);
    double prev = 0;
    bool any_diff = false;
    for (int i = 0; i < 200; ++i) {
      const double ta = a->next();
      EXPECT_DOUBLE_EQ(ta, b->next()) << kind;
      any_diff |= ta != c->next();
      EXPECT_GE(ta, prev) << kind;
      prev = ta;
    }
    EXPECT_TRUE(any_diff) << kind;
  }
}

TEST(ServiceArrivals, PoissonMeanRateIsRight) {
  auto p = service::MakeArrivals("poisson", 500.0, 99);
  double last = 0;
  for (int i = 0; i < 5000; ++i) last = p->next();
  // 5000 arrivals at 500/s ≈ 10s of stream, within a few percent.
  EXPECT_NEAR(last, 10.0, 0.8);
}

TEST(ServiceMetrics, JsonlWriteReportsAFailedFlush) {
  // /dev/full opens, and the write fails when fclose flushes it.
  const service::ServiceMetrics metrics(1);
  EXPECT_FALSE(service::WriteServiceMetricsJsonl(metrics, 1.0, "/dev/full",
                                                 "full", /*truncate=*/true));
}

}  // namespace
}  // namespace sbs
