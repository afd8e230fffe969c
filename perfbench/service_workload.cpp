// service-poisson: an open loop of Poisson arrivals at one fixed offered
// rate into service::Runtime on real threads, a WS stream and an SB stream
// in alternating blocks.
//
// The generator times each job from the instant it was due, not from
// submit(), so a late generator shows up as latency. Each block's requests
// are drawn and their kernel instances leased before the block starts, and
// every output is verified after it ends: verify() costs about as much as
// serving the job, so verifying on the arrival path would make the
// generator late. No job is left unverified. Workers plus the generator
// stay within the host's CPU count.
//
// Service times are corrected for host speed by SortProbe, run between
// blocks: a run's times are scaled by kSortProbeRefS / the median of its
// probes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "machine/config.h"
#include "machine/topology.h"
#include "probe.h"
#include "service/arrivals.h"
#include "service/runtime.h"
#include "service/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sbs;

/// One core per socket: 4 sockets, like a 4-CPU host.
constexpr const char* kMachine = "xeon7560_4x1";
constexpr int kMaxWorkers = 3;
/// Offered load. Below the rate where σM admission starts refusing jobs on
/// this mix, so no job fails at the reference commit.
constexpr double kRatePerS = 100;
/// The job mix (tenant profiles, job sizes, kernel inputs) is drawn from
/// this fixed seed; --seed drives the arrival instants and the schedulers.
/// Eight tenant profiles drawn from --seed would move the mean job cost by
/// tens of percent from seed to seed and swamp what a change does.
constexpr std::uint64_t kMixSeed = 12345;
/// Latency limit for service.slo_frac, from the due instant.
constexpr double kSloMs = 50;
/// Jobs per block = rate x block length. Every job of a block holds its
/// kernel instance until the block ends, so this also bounds the pool.
constexpr double kBlockS = 1.25;
constexpr double kSpinS = 300e-6;
/// Warm-up jobs per stream, run one at a time with their kernel instances
/// held until the last, so the instance pool starts the timed blocks
/// prepared. A larger pool only added memory: peak RSS grew and spread more.
constexpr int kWarmupJobs = 24;
constexpr int kSetups = 3;

struct Pending {
  service::JobHandle handle;
  kernels::Kernel* instance = nullptr;
  std::string kernel;
  std::uint64_t id = 0;
  double due_s = 0;
  double submit_s = 0;
  bool timed = false;
};

/// One scheduler's request stream: its workload (with the prepared
/// kernel-instance pool), its arrivals, and what was measured on it.
struct Stream {
  const char* sched = nullptr;
  std::unique_ptr<service::Workload> workload;
  std::unique_ptr<service::ArrivalProcess> arrivals;
  double last_arrival_s = 0;
  ServiceLayerData layer;
  std::vector<double> run_raw_s;
};

/// Workers: one CPU is left for the generator.
int Workers() {
  const unsigned cpus = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(cpus) - 1, 1, kMaxWorkers);
}

class ServiceRun {
 public:
  ServiceRun(const Args& args, SpanLog* spans)
      : args_(args), spans_(spans), workers_(Workers()) {}

  Outcome Run(Report& report, Report& context);

 private:
  void SetUp(std::uint64_t request);
  service::RuntimeOptions Options(const Stream& stream) const;
  /// Submit `jobs` arrivals of `stream`. Timed blocks are paced by the
  /// arrival process; a warm-up block waits for each job in turn.
  void RunBlock(Stream& stream, int jobs, bool timed);
  /// Verify, record and release every submitted job; all are terminal.
  void Retire(Stream& stream);
  service::Request NextRequest(Stream& stream);

  const Args& args_;
  SpanLog* spans_;
  int workers_;
  HostProbe probe_;
  SortProbe sort_probe_;
  Outcome outcome_;
  CommonLayerData common_;
  ServiceRunData run_data_;
  std::unique_ptr<machine::Topology> topo_;
  Stream streams_[2];
  std::vector<Pending> pending_;
  std::uint64_t next_id_ = 1;
};

service::RuntimeOptions ServiceRun::Options(const Stream& stream) const {
  service::RuntimeOptions options;
  options.scheduler.name = stream.sched;
  options.scheduler.seed = args_.seed;
  options.admission.policy = service::AdmissionPolicy::kReject;
  options.num_threads = workers_;
  return options;
}

service::Request ServiceRun::NextRequest(Stream& stream) {
  const std::uint64_t created = stream.workload->created_instances();
  const double t0 = NowS();
  service::Request req = stream.workload->next();
  // A request that needed a fresh instance paid for its input generation.
  if (stream.workload->created_instances() != created) {
    common_.prepare_s.push_back(NowS() - t0);
  }
  return req;
}

void ServiceRun::Retire(Stream& stream) {
  for (Pending& p : pending_) {
    const service::JobState state = p.handle.state();
    bool ok = false;
    if (state == service::JobState::kDone) {
      ScopedSpan span(spans_, "kernels.verify", -1, p.id);
      ok = p.instance->verify();
      const double dt = span.Close();
      common_.verify_s.push_back(dt);
      if (!ok) {
        std::fprintf(stderr, "job %llu (%s, %s): kernel output wrong\n",
                     static_cast<unsigned long long>(p.id), stream.sched,
                     p.kernel.c_str());
        outcome_.Wrong();
      }
    }
    stream.workload->release(p.instance);
    outcome_.Op(ok);
    if (!p.timed) continue;
    if (state == service::JobState::kRejected ||
        state == service::JobState::kTimedOut) {
      ++stream.layer.refused;
    }
    if (state != service::JobState::kDone) continue;
    const double queue_s = p.handle.queueing_s();
    const double run_s = p.handle.service_s();
    const double sojourn_s = (p.submit_s - p.due_s) + p.handle.sojourn_s();
    stream.layer.sojourn_ms.push_back(sojourn_s * 1e3);
    stream.layer.queue_ms.push_back(queue_s * 1e3);
    stream.layer.run_ms.push_back(run_s * 1e3);
    stream.run_raw_s.push_back(run_s);
    if (ok && sojourn_s * 1e3 <= kSloMs) ++stream.layer.slo_met;
    if (spans_ != nullptr) {
      const int job = spans_->Add("job", p.due_s, p.submit_s + p.handle.sojourn_s(),
                                  -1, p.id);
      spans_->Add("service.queue", p.submit_s, p.submit_s + queue_s, job, p.id);
      spans_->Add("service.run", p.submit_s + queue_s,
                  p.submit_s + queue_s + run_s, job, p.id);
    }
  }
  pending_.clear();
}

void ServiceRun::RunBlock(Stream& stream, int jobs, bool timed) {
  // Draw, lease and build every request before the block's clock starts,
  // and verify after it ends: the arrival path only sleeps and submits.
  std::vector<std::pair<service::Request, std::uint64_t>> requests;
  requests.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    service::Request req = NextRequest(stream);
    const std::uint64_t id = next_id_++;
    if (timed) ++stream.layer.offered;
    if (req.dropped) {
      std::fprintf(stderr, "job %llu (%s): kernel-instance pool exhausted\n",
                   static_cast<unsigned long long>(id), stream.sched);
      outcome_.Op(false);
      continue;
    }
    requests.emplace_back(req, id);
  }

  service::Runtime runtime(*topo_, Options(stream));
  const double start = NowS();
  const double base = stream.last_arrival_s;
  for (const auto& [req, id] : requests) {
    double due = NowS();
    if (timed) {
      stream.last_arrival_s = stream.arrivals->next();
      due = start + (stream.last_arrival_s - base);
      // Sleep to just short of the due instant, then spin: a sleeping
      // thread wakes tens to hundreds of microseconds late.
      const double wait = due - kSpinS - NowS();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      while (NowS() < due) {
      }
    }
    Pending p;
    p.instance = req.instance;
    p.kernel = req.kernel;
    p.id = id;
    p.due_s = due;
    p.timed = timed;
    {
      ScopedSpan span(spans_, "service.submit", -1, id);
      p.submit_s = NowS();
      p.handle = runtime.submit(req.root, req.declared_bytes, req.tenant);
      const double submit_s = span.Close();
      if (timed) {
        run_data_.submit_us.push_back(submit_s * 1e6);
        run_data_.gen_late_ms.push_back((p.submit_s - due) * 1e3);
        run_data_.backlog_max =
            std::max(run_data_.backlog_max, runtime.live_jobs());
      }
    }
    if (!timed) runtime.wait(p.handle);
    pending_.push_back(std::move(p));
  }
  runtime.drain();
  Retire(stream);
  if (timed) {
    const service::TenantCounters agg = runtime.metrics().aggregate();
    stream.layer.submitted += agg.submitted;
    stream.layer.admitted += agg.admitted;
  }
  runtime.shutdown();
}

void ServiceRun::SetUp(std::uint64_t request) {
  ScopedSpan setup_span(spans_, "setup", -1, request);
  {
    ScopedSpan span(spans_, "machine.load", setup_span.id(), request);
    topo_ = std::make_unique<machine::Topology>(machine::Preset(kMachine));
    common_.load_s.push_back(span.Close());
  }
  for (int s = 0; s < 2; ++s) {
    Stream& stream = streams_[s];
    stream = Stream{};
    stream.sched = kScheds[static_cast<std::size_t>(s)];
    // Both streams draw the same jobs at the same instants.
    stream.workload = std::make_unique<service::Workload>(
        service::WorkloadOptions{}, kMixSeed);
    stream.arrivals = service::MakePoissonArrivals(
        service::PoissonParams{kRatePerS}, args_.seed ^ 0x9e3779b97f4a7c15ULL);
    ScopedSpan span(spans_, "op.warmup", setup_span.id(), request);
    RunBlock(stream, args_.smoke ? 4 : kWarmupJobs, /*timed=*/false);
  }
}

Outcome ServiceRun::Run(Report& report, Report& context) {
  const int setups = args_.smoke || args_.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  for (int k = 0; k < setups; ++k) {
    const double before = probe_.run();
    const double t0 = NowS();
    SetUp(next_id_++);
    const double raw = NowS() - t0;
    setup_s.push_back(Corrected(raw, before, probe_.run()));
    common_.setup_raw_s.push_back(raw);
  }

  const int jobs_per_block =
      args_.smoke ? 20 : static_cast<int>(kRatePerS * kBlockS);
  const int blocks = std::max(
      1, static_cast<int>(args_.seconds / (2 * kBlockS) + 0.5));
  for (int b = 0; b < 2 * blocks; ++b) {
    const int s = (b / 2) % 2 == 0 ? b % 2 : 1 - b % 2;  // WS SB SB WS ...
    Stream& stream = streams_[s];
    // HostProbe for the record only: it models the simulator's memory-bound
    // loop, not these jobs, and did not track their times (README.md).
    probe_.run();
    const double sort_probe_s = sort_probe_.run();
    const auto first = static_cast<std::ptrdiff_t>(stream.run_raw_s.size());
    {
      ScopedSpan span(spans_, "service.block");
      RunBlock(stream, jobs_per_block, /*timed=*/true);
    }
    const std::vector<double> run_s(stream.run_raw_s.begin() + first,
                                    stream.run_raw_s.end());
    const std::vector<double> sojourn_ms(
        stream.layer.sojourn_ms.begin() + first,
        stream.layer.sojourn_ms.end());
    stream.layer.block_p95_ms.push_back(Quantile(sojourn_ms, 0.95));
    std::printf("# block %s raw run_ms.p50=%.4f sojourn_ms.p50=%.4f "
                "sojourn_ms.p95=%.4f sort_probe_ms=%.3f sort_ms=%.3f\n",
                stream.sched, Median(run_s) * 1e3, Median(sojourn_ms),
                stream.layer.block_p95_ms.back(), sort_probe_s * 1e3,
                sort_probe_.sort_samples().back() * 1e3);
  }
  probe_.run();
  sort_probe_.run();
  const double speed = kSortProbeRefS / Median(sort_probe_.samples());

  if (!args_.trace) {
    report.Set("setup_s", Median(setup_s), "s", setup_s.size());
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("ok_frac", outcome_.ok_frac(), "ratio", outcome_.attempted);
  } else {
    context.Set("setup_s", Median(setup_s), "s", setup_s.size());
    EmitCommonLayers(report, common_, probe_.samples(),
                     sort_probe_.samples());
    EmitServiceRunLayers(report, run_data_);
  }
  for (const Stream& stream : streams_) {
    const std::string name = stream.sched;
    const auto n = stream.layer.sojourn_ms.size();
    const double op_s = Median(stream.run_raw_s);
    const double p50_ms = Quantile(stream.layer.sojourn_ms, 0.5);
    // The tail is the median of the blocks' p95s: a host stall (the
    // generator or a worker descheduled for milliseconds) then moves one
    // block's p95, not the run's.
    const double p95_ms = Median(stream.layer.block_p95_ms);
    Report& target = args_.trace ? context : report;
    target.Set("op_s.p50." + name, op_s * speed, "s", n);
    target.Set("latency_ms.p50." + name, p50_ms * speed, "ms", n);
    target.Set("latency_ms.p95." + name, p95_ms * speed, "ms", n);
    if (args_.trace) {
      EmitSimLayers(report, name, SimLayerData{}, 0);
      EmitServiceLayers(report, name, stream.layer);
      report.Set("host.op_s_raw.p50." + name, Median(stream.run_raw_s), "s",
                 n);
    } else {
      context.Set("host.op_s_raw.p50." + name, op_s, "s", n);
      context.Set("host.latency_ms_raw.p50." + name, p50_ms, "ms", n);
      context.Set("host.latency_ms_raw.p95." + name, p95_ms, "ms", n);
      context.Set("service.slo_frac." + name,
                  stream.layer.offered == 0
                      ? 0
                      : static_cast<double>(stream.layer.slo_met) /
                            static_cast<double>(stream.layer.offered),
                  "ratio", stream.layer.offered);
    }
  }
  if (!args_.trace) {
    context.Set("service.gen_late_ms.p99",
                Quantile(run_data_.gen_late_ms, 0.99), "ms",
                run_data_.gen_late_ms.size());
    context.Set("service.backlog.max",
                static_cast<double>(run_data_.backlog_max), "count");
    context.Set("host.setup_s_raw", Median(common_.setup_raw_s), "s",
                common_.setup_raw_s.size());
    context.Set("host.probe_ms", Median(probe_.samples()) * 1e3, "ms",
                probe_.samples().size());
    context.Set("host.sort_probe_ms", Median(sort_probe_.samples()) * 1e3,
                "ms", sort_probe_.samples().size());
    context.Set("host.sort_only_ms", Median(sort_probe_.sort_samples()) * 1e3,
                "ms", sort_probe_.sort_samples().size());
  }
  return outcome_;
}

}  // namespace

Outcome RunServiceWorkload(const Args& args, Report& report, Report& context,
                           SpanLog* spans) {
  ServiceRun run(args, spans);
  return run.Run(report, context);
}

}  // namespace perfbench
