#include "traffic/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/table.hpp"

namespace vl::traffic {

namespace {

// 64 exact unit buckets, then 32 sub-buckets per octave up to 2^63.
constexpr std::uint32_t kOctaves = 64 - (LogHistogram::kSubBits + 1);
constexpr std::uint32_t kBucketCount =
    LogHistogram::kLinearMax + kOctaves * LogHistogram::kSubBuckets;

}  // namespace

LogHistogram::LogHistogram() : buckets_(kBucketCount, 0) {}

std::uint32_t LogHistogram::bucket_index(std::uint64_t v) {
  if (v < kLinearMax) return static_cast<std::uint32_t>(v);
  // Highest set bit is at position w-1 >= kSubBits+1; the kSubBits bits
  // below it select the sub-bucket within the octave.
  const std::uint32_t w = std::bit_width(v);
  const std::uint32_t octave = w - (kSubBits + 1);  // 1 for v in [64,128)
  const std::uint32_t sub = static_cast<std::uint32_t>(
      (v >> (w - 1 - kSubBits)) & (kSubBuckets - 1));
  const std::uint32_t idx = kLinearMax + (octave - 1) * kSubBuckets + sub;
  return idx < kBucketCount ? idx : kBucketCount - 1;
}

std::uint64_t LogHistogram::bucket_upper(std::uint32_t i) {
  if (i < kLinearMax) return i;
  const std::uint32_t octave = (i - kLinearMax) / kSubBuckets + 1;
  const std::uint32_t sub = (i - kLinearMax) % kSubBuckets;
  const std::uint32_t shift = octave;  // sub-bucket width = 2^octave
  const std::uint64_t base = std::uint64_t{kSubBuckets} << octave;
  return base + (std::uint64_t{sub + 1} << shift) - 1;
}

void LogHistogram::record(std::uint64_t v, std::uint64_t count) {
  if (count == 0) return;
  buckets_[bucket_index(v)] += count;
  total_ += count;
  sum_ += static_cast<double>(v) * static_cast<double>(count);
  if (v > max_) max_ = v;
  if (v < min_) min_ = v;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::uint32_t i = 0; i < kBucketCount; ++i)
    buckets_[i] += other.buckets_[i];
  total_ += other.total_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
  min_ = std::min(min_, other.min_);
}

void LogHistogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  total_ = 0;
  max_ = 0;
  min_ = ~std::uint64_t{0};
  sum_ = 0.0;
}

std::uint64_t LogHistogram::count_le(std::uint64_t v) const {
  if (total_ == 0) return 0;
  if (v >= max_) return total_;
  const std::uint32_t last = bucket_index(v);
  std::uint64_t cum = 0;
  for (std::uint32_t i = 0; i <= last; ++i) cum += buckets_[i];
  return cum;
}

std::uint64_t LogHistogram::percentile(double p) const {
  if (total_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: smallest bucket whose cumulative count reaches rank.
  const double exact = p / 100.0 * static_cast<double>(total_);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(exact));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::uint32_t i = 0; i < kBucketCount; ++i) {
    cum += buckets_[i];
    if (cum >= rank) return std::min(bucket_upper(i), max_);
  }
  return max_;
}

double TenantMetrics::slo_attained_pct() const {
  if (!slo_p99 || !delivered) return 100.0;
  return 100.0 * static_cast<double>(slo_within()) /
         static_cast<double>(delivered);
}

void TenantMetrics::merge(const TenantMetrics& o) {
  generated += o.generated;
  sent += o.sent;
  delivered += o.delivered;
  dropped += o.dropped;
  blocked_ticks += o.blocked_ticks;
  latency.merge(o.latency);
}

void ScenarioMetrics::merge(const ScenarioMetrics& o) {
  for (const auto& ot : o.tenants) {
    auto it = std::find_if(tenants.begin(), tenants.end(),
                           [&](const TenantMetrics& t) {
                             return t.tenant == ot.tenant;
                           });
    if (it != tenants.end())
      it->merge(ot);
    else
      tenants.push_back(ot);
  }
  ticks = std::max(ticks, o.ticks);
  ns = std::max(ns, o.ns);
}

double ClassAgg::slo_attained_pct() const {
  if (!slo_delivered) return 100.0;
  return 100.0 * static_cast<double>(slo_within) /
         static_cast<double>(slo_delivered);
}

std::uint64_t ScenarioMetrics::total_generated() const {
  std::uint64_t n = 0;
  for (const auto& t : tenants) n += t.generated;
  return n;
}

std::uint64_t ScenarioMetrics::total_delivered() const {
  std::uint64_t n = 0;
  for (const auto& t : tenants) n += t.delivered;
  return n;
}

std::uint64_t ScenarioMetrics::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& t : tenants) n += t.dropped;
  return n;
}

std::size_t ScenarioMetrics::distinct_classes() const {
  bool present[kQosClasses] = {};
  for (const auto& t : tenants) present[static_cast<std::size_t>(t.qos)] = true;
  std::size_t n = 0;
  for (bool p : present) n += p;
  return n;
}

std::vector<ClassAgg> ScenarioMetrics::by_class() const {
  std::vector<ClassAgg> out;
  for (std::size_t c = 0; c < kQosClasses; ++c) {
    const auto cls = static_cast<QosClass>(c);
    ClassAgg agg;
    agg.cls = cls;
    agg.agg.tenant = to_string(cls);
    agg.agg.qos = cls;
    bool any = false;
    for (const auto& t : tenants) {
      if (t.qos != cls) continue;
      any = true;
      agg.agg.merge(t);
      if (t.slo_p99) {
        agg.slo_delivered += t.delivered;
        agg.slo_within += t.slo_within();
      }
    }
    if (any) out.push_back(std::move(agg));
  }
  return out;
}

std::vector<std::string> ScenarioMetrics::csv_header() {
  return {"tenant",    "qos",         "slo_p99", "slo_att_pct",
          "generated", "sent",        "delivered",
          "dropped",   "blocked_ticks",          "lat_p50",
          "lat_p95",   "lat_p99",     "lat_p999", "lat_max",
          "lat_mean",  "mmsgs_per_s"};
}

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// Shared row shape for tenant, class-aggregate, and "*" rows. `qos_label`
/// distinguishes them ("-" for mixed-class aggregates); `att` is "-" when
/// no SLO applies.
std::vector<std::string> metrics_row(const TenantMetrics& t, double ns,
                                     const std::string& qos_label,
                                     Tick slo_p99, const std::string& att) {
  const double secs = ns * 1e-9;
  const double rate =
      secs > 0.0 ? static_cast<double>(t.delivered) / secs / 1e6 : 0.0;
  return {t.tenant,
          qos_label,
          std::to_string(slo_p99),
          att,
          std::to_string(t.generated),
          std::to_string(t.sent),
          std::to_string(t.delivered),
          std::to_string(t.dropped),
          std::to_string(t.blocked_ticks),
          std::to_string(t.latency.percentile(50)),
          std::to_string(t.latency.percentile(95)),
          std::to_string(t.latency.percentile(99)),
          std::to_string(t.latency.percentile(99.9)),
          std::to_string(t.latency.max()),
          fmt_double(t.latency.mean()),
          fmt_double(rate)};
}

std::vector<std::string> tenant_row(const TenantMetrics& t, double ns) {
  return metrics_row(t, ns, to_string(t.qos), t.slo_p99,
                     t.slo_p99 ? fmt_double(t.slo_attained_pct()) : "-");
}

}  // namespace

std::vector<std::vector<std::string>> ScenarioMetrics::csv_rows() const {
  std::vector<std::vector<std::string>> rows;
  TenantMetrics all;
  all.tenant = "*";
  for (const auto& t : tenants) {
    rows.push_back(tenant_row(t, ns));
    all.merge(t);
  }
  // Per-class aggregate rows once the scenario actually mixes classes.
  if (distinct_classes() > 1)
    for (const auto& c : by_class())
      rows.push_back(metrics_row(
          c.agg, ns, std::string("class:") + to_string(c.cls), 0,
          c.slo_delivered ? fmt_double(c.slo_attained_pct()) : "-"));
  if (tenants.size() > 1)
    rows.push_back(metrics_row(all, ns, "-", 0, "-"));
  return rows;
}

namespace {

/// One tenant-shaped JSON object (tenants and class aggregates share it).
std::string metrics_json_obj(const TenantMetrics& t, double ns,
                             const std::string& label,
                             const std::string& qos_label, Tick slo_p99,
                             double slo_att_pct, bool has_slo) {
  std::string o = "{\"name\": \"" + label + "\", \"qos\": \"" + qos_label +
                  "\", \"slo_p99\": " + std::to_string(slo_p99);
  o += ", \"slo_att_pct\": ";
  o += has_slo ? fmt_double(slo_att_pct) : std::string("null");
  o += ", \"generated\": " + std::to_string(t.generated);
  o += ", \"sent\": " + std::to_string(t.sent);
  o += ", \"delivered\": " + std::to_string(t.delivered);
  o += ", \"dropped\": " + std::to_string(t.dropped);
  o += ", \"blocked_ticks\": " + std::to_string(t.blocked_ticks);
  o += ", \"lat_p50\": " + std::to_string(t.latency.percentile(50));
  o += ", \"lat_p95\": " + std::to_string(t.latency.percentile(95));
  o += ", \"lat_p99\": " + std::to_string(t.latency.percentile(99));
  o += ", \"lat_p999\": " + std::to_string(t.latency.percentile(99.9));
  o += ", \"lat_max\": " + std::to_string(t.latency.max());
  o += ", \"lat_mean\": " + fmt_double(t.latency.mean());
  const double secs = ns * 1e-9;
  const double rate =
      secs > 0.0 ? static_cast<double>(t.delivered) / secs / 1e6 : 0.0;
  o += ", \"mmsgs_per_s\": " + fmt_double(rate) + "}";
  return o;
}

}  // namespace

std::string ScenarioMetrics::json() const {
  std::string out = "{\n  \"ticks\": " + std::to_string(ticks) +
                    ",\n  \"ns\": " + fmt_double(ns);
  out += ",\n  \"generated\": " + std::to_string(total_generated());
  out += ",\n  \"delivered\": " + std::to_string(total_delivered());
  out += ",\n  \"dropped\": " + std::to_string(total_dropped());
  out += ",\n  \"tenants\": [\n";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantMetrics& t = tenants[i];
    if (i) out += ",\n";
    out += "    " + metrics_json_obj(t, ns, t.tenant, to_string(t.qos),
                                     t.slo_p99, t.slo_attained_pct(),
                                     t.slo_p99 != 0);
  }
  out += "\n  ],\n  \"classes\": [\n";
  const auto classes = by_class();
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const ClassAgg& c = classes[i];
    if (i) out += ",\n";
    out += "    " + metrics_json_obj(c.agg, ns, c.agg.tenant,
                                     to_string(c.cls), 0,
                                     c.slo_attained_pct(),
                                     c.slo_delivered != 0);
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string ScenarioMetrics::table() const {
  TextTable tt(csv_header());
  for (auto& row : csv_rows()) tt.add_row(row);
  return tt.render();
}

}  // namespace vl::traffic
