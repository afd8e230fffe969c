// service_bench — latency under sustained multi-tenant load, per scheduler.
//
// Drives the scheduler-as-a-service runtime (src/service/) with an
// open-loop arrival stream (Poisson / MMPP / diurnal; arrivals keep coming
// whether or not the service keeps up — the honest way to measure tail
// latency) or a closed loop of submit-wait clients, over a mix of
// quicksort / samplesort / matmul jobs from multiple tenants. Reports
// per-scheduler sojourn p50/p99/p99.9, queueing delay, throughput and
// rejection rate; writes the JSONL metrics file and a BENCH_*.json summary.
//
//   ./service_bench --machine=mini --min-n=256 --max-n=1024 --rate=400
//                   --duration=1 --sched=WS,PWS,SB,SB-D --verify
//   ./service_bench --machine-file=configs/xeon7560_fig4.cfg --rate=300
//                   --duration=2 --policy=queue
//   ./service_bench --smoke ...   # sanity-check the results, exit nonzero
//                                 # on failure (CI service-smoke job)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "machine/topology.h"
#include "service/arrivals.h"
#include "service/metrics.h"
#include "service/runtime.h"
#include "service/workload.h"
#include "util/cli.h"
#include "util/json.h"

using namespace sbs;

namespace {

struct StreamOptions {
  std::string arrivals = "poisson";
  double rate_per_s = 300;
  double duration_s = 1.0;
  std::int64_t jobs = 0;  ///< fixed job count; 0 = rate × duration
  std::int64_t closed_clients = 0;
  std::uint64_t seed = 12345;
  bool check_outputs = true;
  service::WorkloadOptions workload;
};

struct SchedResult {
  std::string scheduler;
  double span_s = 0;
  service::TenantCounters agg;
  std::uint64_t client_drops = 0;
  std::uint64_t output_failures = 0;
  std::uint64_t verify_violations = 0;
  bool verify_ran = false;

  double throughput() const {
    return span_s <= 0 ? 0
                       : static_cast<double>(agg.completed) / span_s;
  }
};

struct Pending {
  service::JobHandle handle;
  kernels::Kernel* instance;
};

/// Retire terminal submissions: verify output, return instance to the pool.
void reap(std::vector<Pending>& pending, service::Workload& workload,
          bool check_outputs, std::uint64_t& output_failures) {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    Pending& p = pending[i];
    if (!p.handle.terminal()) {
      pending[keep++] = std::move(p);
      continue;
    }
    if (p.handle.state() == service::JobState::kDone && check_outputs &&
        !p.instance->verify()) {
      ++output_failures;
    }
    workload.release(p.instance);
  }
  pending.resize(keep);
}

SchedResult RunStream(const machine::Topology& topo,
                      const service::RuntimeOptions& runtime_options,
                      const StreamOptions& stream,
                      const std::string& metrics_path, bool first_sched) {
  using Clock = std::chrono::steady_clock;
  SchedResult result;
  service::Runtime runtime(topo, runtime_options);
  result.scheduler = runtime.scheduler().name();

  const auto t0 = Clock::now();
  if (stream.closed_clients > 0) {
    // Closed loop: each client submits, waits, verifies, repeats. Load is
    // self-limiting — measures service time without queueing pressure.
    const std::uint64_t per_client =
        stream.jobs > 0
            ? static_cast<std::uint64_t>(stream.jobs)
            : static_cast<std::uint64_t>(stream.rate_per_s *
                                         stream.duration_s) /
                  static_cast<std::uint64_t>(stream.closed_clients);
    std::vector<std::uint64_t> failures(
        static_cast<std::size_t>(stream.closed_clients), 0);
    std::vector<std::thread> clients;
    for (std::int64_t c = 0; c < stream.closed_clients; ++c) {
      clients.emplace_back([&, c] {
        service::Workload workload(stream.workload,
                                   stream.seed + 1000 * (c + 1));
        for (std::uint64_t i = 0; i < per_client; ++i) {
          service::Request req = workload.next();
          if (req.dropped) continue;
          service::JobHandle handle =
              runtime.submit(req.root, req.declared_bytes, req.tenant);
          if (runtime.wait(handle) == service::JobState::kDone &&
              stream.check_outputs && !req.instance->verify()) {
            ++failures[static_cast<std::size_t>(c)];
          }
          workload.release(req.instance);
        }
      });
    }
    for (auto& t : clients) t.join();
    for (std::uint64_t f : failures) result.output_failures += f;
  } else {
    // Open loop: submissions fire at the arrival process's instants
    // regardless of completions.
    service::Workload workload(stream.workload, stream.seed);
    auto arrivals =
        service::MakeArrivals(stream.arrivals, stream.rate_per_s,
                              stream.seed ^ 0x9e3779b97f4a7c15ull);
    const std::uint64_t total =
        stream.jobs > 0 ? static_cast<std::uint64_t>(stream.jobs)
                        : static_cast<std::uint64_t>(stream.rate_per_s *
                                                     stream.duration_s);
    std::vector<Pending> pending;
    for (std::uint64_t i = 0; i < total; ++i) {
      const double t = arrivals->next();  // absolute instant since stream start
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(t)));
      service::Request req = workload.next();
      if (req.dropped) {
        ++result.client_drops;
      } else {
        pending.push_back({runtime.submit(req.root, req.declared_bytes,
                                          req.tenant),
                           req.instance});
      }
      if ((i & 0x3f) == 0)
        reap(pending, workload, stream.check_outputs,
             result.output_failures);
    }
    runtime.drain();
    reap(pending, workload, stream.check_outputs, result.output_failures);
  }
  runtime.drain();
  result.span_s = std::chrono::duration<double>(Clock::now() - t0).count();

  if (!metrics_path.empty()) {
    const std::string label =
        result.scheduler + "/" + stream.arrivals +
        (stream.closed_clients > 0 ? "-closed" : "-open");
    if (!service::WriteServiceMetricsJsonl(runtime.metrics(), result.span_s,
                                           metrics_path, label,
                                           /*truncate=*/first_sched)) {
      std::fprintf(stderr, "failed to write %s\n", metrics_path.c_str());
    }
  }

  result.agg = runtime.metrics().aggregate();
  std::printf("  %-16s %s\n", result.scheduler.c_str(),
              runtime.metrics().summary(result.span_s).c_str());
  std::printf("  %-16s admission: %s\n", "",
              runtime.admission().stats_string().c_str());
  runtime.shutdown();
  if (const verify::VerifyingScheduler* checker = runtime.verifier()) {
    result.verify_ran = true;
    result.verify_violations = checker->total_violations();
    if (!checker->ok())
      std::fprintf(stderr, "  %s\n", checker->report().c_str());
  }
  return result;
}

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void WriteQuantiles(JsonWriter& json, const char* name,
                    const service::LatencyQuantiles& q) {
  json.key(name).begin_object();
  json.kv("p50_s", q.p50.value());
  json.kv("p99_s", q.p99.value());
  json.kv("p999_s", q.p999.value());
  json.kv("mean_s", q.mean());
  json.kv("max_s", q.max);
  json.end_object();
}

bool WriteBenchJson(const std::string& path, const machine::Topology& topo,
                    const StreamOptions& stream,
                    const service::RuntimeOptions& rt,
                    const std::vector<SchedResult>& results) {
  JsonWriter json;
  json.begin_object();
  json.kv("bench", "service_latency");
  json.kv("machine", topo.config().name);
  json.kv("arrivals", stream.arrivals);
  json.kv("rate_per_s", stream.rate_per_s);
  json.kv("duration_s", stream.duration_s);
  json.kv("closed_clients", stream.closed_clients);
  json.kv("tenants", stream.workload.tenants);
  json.kv("min_n", static_cast<std::uint64_t>(stream.workload.min_n));
  json.kv("max_n", static_cast<std::uint64_t>(stream.workload.max_n));
  json.kv("overdeclare", stream.workload.overdeclare);
  json.kv("policy", service::PolicyName(rt.admission.policy));
  json.kv("sigma", rt.admission.sigma);
  json.kv("threads", rt.num_threads);
  json.kv("seed", stream.seed);
  json.key("schedulers").begin_array();
  for (const SchedResult& r : results) {
    json.begin_object();
    json.kv("scheduler", r.scheduler);
    json.kv("span_s", r.span_s);
    json.kv("throughput_per_s", r.throughput());
    json.kv("submitted", r.agg.submitted);
    json.kv("completed", r.agg.completed);
    json.kv("queued", r.agg.queued);
    json.kv("degraded", r.agg.degraded);
    json.kv("rejected", r.agg.rejected);
    json.kv("timed_out", r.agg.timed_out);
    json.kv("rejection_rate", r.agg.rejection_rate());
    json.kv("client_drops", r.client_drops);
    json.kv("output_failures", r.output_failures);
    json.kv("verify_violations", r.verify_violations);
    WriteQuantiles(json, "sojourn", r.agg.sojourn_s);
    WriteQuantiles(json, "queueing", r.agg.queueing_s);
    WriteQuantiles(json, "service", r.agg.service_s);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  return WriteJsonLine(path, json.str());
}

/// --smoke: cheap invariants a short CI stream must satisfy.
bool SmokeCheck(const StreamOptions& stream,
                const service::RuntimeOptions& rt,
                const std::vector<SchedResult>& results) {
  bool ok = true;
  const auto fail = [&](const std::string& sched, const char* what) {
    std::fprintf(stderr, "SMOKE FAIL [%s]: %s\n", sched.c_str(), what);
    ok = false;
  };
  for (const SchedResult& r : results) {
    if (r.agg.submitted == 0) fail(r.scheduler, "no submissions");
    if (stream.workload.overdeclare <= 1.0 && r.agg.completed == 0)
      fail(r.scheduler, "nothing completed");
    if (r.output_failures != 0) fail(r.scheduler, "kernel output wrong");
    if (r.verify_ran && r.verify_violations != 0)
      fail(r.scheduler, "invariant violations");
    if (r.agg.completed > 0) {
      const double p99 = r.agg.sojourn_s.p99.value();
      if (!(p99 > 0) || !std::isfinite(p99))
        fail(r.scheduler, "sojourn p99 not positive/finite");
      if (r.agg.sojourn_s.p50.value() > p99 * 1.0001)
        fail(r.scheduler, "p50 exceeds p99");
    }
    // An over-declared stream must be provably pushed back, not absorbed:
    // with every declaration inflated beyond σM budgets, admission has to
    // reject (or time out) a nonzero share.
    if (stream.workload.overdeclare >= 8.0 &&
        rt.admission.policy != service::AdmissionPolicy::kDegrade &&
        r.agg.rejection_rate() <= 0)
      fail(r.scheduler, "over-declared stream was never rejected");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string machine_name = "xeon7560_s8";
  std::string machine_file;
  std::string sched_list = "WS,PWS,SB,SB-D";
  std::string policy_name = "reject";
  std::string metrics_path = "service_metrics.jsonl";
  std::string bench_path = "BENCH_service_latency.json";
  StreamOptions stream;
  std::int64_t jobs = 0, closed = 0, tenants = 8, threads = -1;
  std::int64_t min_n = 16 << 10, max_n = 64 << 10;
  std::int64_t seed = 12345;
  double sigma = 0.5, mu = 0.2, timeout_s = 0.5, overdeclare = 1.0;
  bool verify = false, smoke = false, no_outputs = false;

  Cli cli("service_bench",
          "multi-tenant job-stream latency across schedulers");
  cli.add_string("machine", &machine_name, "machine preset name");
  cli.add_string("machine-file", &machine_file,
                 "Fig.4-syntax config file (overrides --machine)");
  cli.add_string("sched", &sched_list, "comma list of schedulers to compare");
  cli.add_string("arrivals", &stream.arrivals, "poisson|mmpp|diurnal");
  cli.add_double("rate", &stream.rate_per_s, "mean arrival rate (jobs/s)");
  cli.add_double("duration", &stream.duration_s,
                 "open-loop stream length in seconds (rate × duration jobs)");
  cli.add_int("jobs", &jobs, "fixed job count (overrides rate × duration)");
  cli.add_int("closed-loop", &closed,
              "run this many closed-loop submit-wait clients instead");
  cli.add_string("policy", &policy_name,
                 "admission policy: reject|queue|degrade");
  cli.add_double("timeout", &timeout_s, "queue-policy admission deadline (s)");
  cli.add_int("tenants", &tenants, "number of tenants in the mix");
  cli.add_int("min-n", &min_n, "smallest problem size (elements)");
  cli.add_int("max-n", &max_n, "largest problem size (elements)");
  cli.add_double("overdeclare", &overdeclare,
                 "declared-footprint multiplier (>1 lies to admission)");
  cli.add_double("sigma", &sigma, "space-bounded dilation / budget fraction");
  cli.add_double("mu", &mu, "space-bounded strand cap");
  cli.add_int("threads", &threads, "service worker count (-1 = all)");
  cli.add_int("seed", &seed, "stream seed (workload + arrivals)");
  cli.add_flag("verify", &verify,
               "wrap every scheduler in the online invariant checker");
  cli.add_flag("no-check-outputs", &no_outputs,
               "skip kernel output verification on completion");
  cli.add_flag("smoke", &smoke, "sanity-check results; exit nonzero on fail");
  cli.add_string("metrics-json", &metrics_path,
                 "JSONL metrics path (one line per scheduler); '' disables");
  cli.add_string("bench-json", &bench_path,
                 "BENCH summary path; '' disables");
  if (!cli.parse(argc, argv)) return 0;

  const machine::MachineConfig cfg =
      machine_file.empty() ? machine::Preset(machine_name)
                           : machine::LoadConfigFile(machine_file);
  const machine::Topology topo(cfg);

  stream.jobs = jobs;
  stream.closed_clients = closed;
  stream.seed = static_cast<std::uint64_t>(seed);
  stream.check_outputs = !no_outputs;
  stream.workload.tenants = static_cast<int>(tenants);
  stream.workload.min_n = static_cast<std::size_t>(min_n);
  stream.workload.max_n = static_cast<std::size_t>(max_n);
  stream.workload.overdeclare = overdeclare;

  service::RuntimeOptions rt;
  rt.admission.sigma = sigma;
  rt.admission.policy = service::ParsePolicy(policy_name);
  rt.admission.queue_timeout_s = timeout_s;
  rt.num_threads = static_cast<int>(threads);
  rt.num_tenants = static_cast<int>(tenants);
  rt.verify = verify;
  rt.scheduler.seed = static_cast<std::uint64_t>(seed);
  rt.scheduler.sb.sigma = sigma;
  rt.scheduler.sb.mu = mu;

  std::printf("service_bench: %s, %s arrivals @ %.0f/s, policy=%s%s\n",
              cfg.name.c_str(), stream.arrivals.c_str(), stream.rate_per_s,
              policy_name.c_str(), verify ? ", --verify" : "");

  std::vector<SchedResult> results;
  bool first = true;
  for (const std::string& sched_name : SplitList(sched_list)) {
    rt.scheduler.name = sched_name;
    results.push_back(RunStream(topo, rt, stream, metrics_path, first));
    first = false;
  }

  if (!bench_path.empty()) {
    if (WriteBenchJson(bench_path, topo, stream, rt, results))
      std::printf("bench json: %s\n", bench_path.c_str());
    else
      std::fprintf(stderr, "failed to write %s\n", bench_path.c_str());
  }
  if (smoke) {
    const bool ok = SmokeCheck(stream, rt, results);
    std::printf("smoke: %s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
  }
  return 0;
}
