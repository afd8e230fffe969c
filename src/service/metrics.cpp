#include "service/metrics.h"

#include <sstream>

#include "util/assert.h"
#include "util/json.h"

namespace sbs::service {

ServiceMetrics::ServiceMetrics(int num_tenants) {
  SBS_CHECK(num_tenants >= 1);
  util::MutexLock lock(mutex_);
  tenants_.resize(static_cast<std::size_t>(num_tenants));
}

void ServiceMetrics::on_submit(int tenant) {
  util::MutexLock lock(mutex_);
  ++tenants_[static_cast<std::size_t>(tenant)].submitted;
  ++aggregate_.submitted;
}

void ServiceMetrics::on_admit(int tenant) {
  util::MutexLock lock(mutex_);
  ++tenants_[static_cast<std::size_t>(tenant)].admitted;
  ++aggregate_.admitted;
}

void ServiceMetrics::on_queue(int tenant) {
  util::MutexLock lock(mutex_);
  ++tenants_[static_cast<std::size_t>(tenant)].queued;
  ++aggregate_.queued;
}

void ServiceMetrics::on_degrade(int tenant) {
  util::MutexLock lock(mutex_);
  ++tenants_[static_cast<std::size_t>(tenant)].degraded;
  ++aggregate_.degraded;
}

void ServiceMetrics::on_reject(int tenant) {
  util::MutexLock lock(mutex_);
  ++tenants_[static_cast<std::size_t>(tenant)].rejected;
  ++aggregate_.rejected;
}

void ServiceMetrics::on_timeout(int tenant) {
  util::MutexLock lock(mutex_);
  ++tenants_[static_cast<std::size_t>(tenant)].timed_out;
  ++aggregate_.timed_out;
}

void ServiceMetrics::on_complete(int tenant, double sojourn_s,
                                 double queueing_s, double service_s) {
  util::MutexLock lock(mutex_);
  for (TenantCounters* c : {&tenants_[static_cast<std::size_t>(tenant)],
                            &aggregate_}) {
    ++c->completed;
    c->sojourn_s.add(sojourn_s);
    c->queueing_s.add(queueing_s);
    c->service_s.add(service_s);
  }
}

TenantCounters ServiceMetrics::tenant(int tenant) const {
  util::MutexLock lock(mutex_);
  return tenants_[static_cast<std::size_t>(tenant)];
}

TenantCounters ServiceMetrics::aggregate() const {
  util::MutexLock lock(mutex_);
  return aggregate_;
}

int ServiceMetrics::num_tenants() const {
  util::MutexLock lock(mutex_);
  return static_cast<int>(tenants_.size());
}

double ServiceMetrics::throughput(double span_s) const {
  util::MutexLock lock(mutex_);
  return span_s <= 0 ? 0
                     : static_cast<double>(aggregate_.completed) / span_s;
}

std::string ServiceMetrics::summary(double span_s) const {
  const TenantCounters agg = aggregate();
  std::ostringstream out;
  out.precision(3);
  out << "jobs=" << agg.submitted << " completed=" << agg.completed
      << " rejected=" << agg.rejected << " timed_out=" << agg.timed_out
      << " degraded=" << agg.degraded << " throughput="
      << throughput(span_s) << "/s sojourn_ms{p50="
      << agg.sojourn_s.p50.value() * 1e3
      << ",p99=" << agg.sojourn_s.p99.value() * 1e3
      << ",p99.9=" << agg.sojourn_s.p999.value() * 1e3 << "}";
  return out.str();
}

namespace {

void write_quantiles(JsonWriter& json, const char* name,
                     const LatencyQuantiles& q) {
  json.key(name).begin_object();
  json.kv("p50_s", q.p50.value());
  json.kv("p99_s", q.p99.value());
  json.kv("p999_s", q.p999.value());
  json.kv("mean_s", q.mean());
  json.kv("max_s", q.max);
  json.kv("samples", q.n);
  json.end_object();
}

void write_counters(JsonWriter& json, const TenantCounters& c) {
  json.kv("submitted", c.submitted);
  json.kv("admitted", c.admitted);
  json.kv("queued", c.queued);
  json.kv("degraded", c.degraded);
  json.kv("rejected", c.rejected);
  json.kv("timed_out", c.timed_out);
  json.kv("completed", c.completed);
  json.kv("rejection_rate", c.rejection_rate());
  write_quantiles(json, "sojourn", c.sojourn_s);
  write_quantiles(json, "queueing", c.queueing_s);
  write_quantiles(json, "service", c.service_s);
}

}  // namespace

bool WriteServiceMetricsJsonl(const ServiceMetrics& metrics, double span_s,
                              const std::string& path,
                              const std::string& label, bool truncate) {
  JsonWriter json;
  json.begin_object();
  json.kv("label", label);
  json.kv("kind", "service");
  json.kv("span_s", span_s);
  json.kv("throughput_per_s", metrics.throughput(span_s));
  json.key("aggregate").begin_object();
  write_counters(json, metrics.aggregate());
  json.end_object();
  json.key("tenants").begin_array();
  for (int t = 0; t < metrics.num_tenants(); ++t) {
    json.begin_object();
    json.kv("tenant", t);
    write_counters(json, metrics.tenant(t));
    json.end_object();
  }
  json.end_array();
  json.end_object();

  return WriteJsonLine(path, json.str(), /*append=*/!truncate);
}

}  // namespace sbs::service
