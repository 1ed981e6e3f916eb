#pragma once
// Traffic-engine metrics: HDR-style log-bucketed latency histograms with
// percentile queries and per-tenant counters.
//
// common/stats.hpp's Samples stores every observation for exact
// percentiles, which is fine for bounded Table-II kernels but not for
// scenario runs that push millions of messages. LogHistogram covers the
// full uint64 latency range in fixed memory: values < 64 land in exact
// unit buckets, larger values in 32 log-linear sub-buckets per power of
// two, bounding the relative quantile error at 1/32 (~3.1%).

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace vl::traffic {

/// Log-linear histogram over [0, 2^63) with bounded relative error.
class LogHistogram {
 public:
  static constexpr std::uint32_t kSubBits = 5;             ///< 32 sub-buckets.
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;
  static constexpr std::uint32_t kLinearMax = 2 * kSubBuckets;  ///< exact < 64

  LogHistogram();

  void record(std::uint64_t v, std::uint64_t count = 1);
  void merge(const LogHistogram& other);
  /// Back to the empty state, keeping the bucket storage.
  void clear();

  std::uint64_t count() const { return total_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t min() const { return total_ ? min_ : 0; }
  double mean() const {
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
  }

  /// Nearest-rank percentile, p in [0, 100]; returns the upper edge of the
  /// bucket holding the rank (clamped to the recorded max). 0 when empty.
  std::uint64_t percentile(double p) const;

  /// Observations <= v, at bucket granularity (values sharing v's bucket
  /// count as within — same ~3.1% relative error as percentile()). The
  /// basis of SLO attainment: count_le(budget) / count().
  std::uint64_t count_le(std::uint64_t v) const;

  /// Index of the bucket a value lands in (exposed for tests).
  static std::uint32_t bucket_index(std::uint64_t v);
  /// Largest value mapping to bucket `i`.
  static std::uint64_t bucket_upper(std::uint32_t i);

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  double sum_ = 0.0;
};

/// Counters + latency distribution for one tenant's traffic.
struct TenantMetrics {
  std::string tenant;
  QosClass qos = QosClass::kStandard;  ///< Service class (TenantSpec::qos).
  Tick slo_p99 = 0;             ///< p99 latency budget, ticks (0 = no SLO).
  std::uint64_t generated = 0;  ///< Messages the arrival process produced.
  std::uint64_t sent = 0;       ///< Accepted by a channel send.
  std::uint64_t delivered = 0;  ///< Received at a final-stage consumer.
  std::uint64_t dropped = 0;    ///< Shed at the producer (queue over limit).
  /// Open-loop overload signal: total ticks this tenant's producers spent
  /// inside blocking send() calls — time-in-backpressure. Under light load
  /// this is just per-message transfer cost; when the offered rate exceeds
  /// service it grows with every parked/blocked send.
  std::uint64_t blocked_ticks = 0;
  LogHistogram latency;         ///< End-to-end latency, ticks.

  /// Delivered messages within this tenant's SLO budget (0 when no SLO).
  std::uint64_t slo_within() const {
    return slo_p99 ? latency.count_le(slo_p99) : 0;
  }
  /// % of delivered messages within the budget; 100 with no SLO set or
  /// nothing delivered (an SLO over zero traffic is vacuously met).
  double slo_attained_pct() const;

  /// Accumulates the counters and histogram; qos and slo_p99 are left
  /// untouched (an aggregate of mixed classes has no single class/budget —
  /// callers label aggregates themselves).
  void merge(const TenantMetrics& o);
};

/// One service class's aggregate across the tenants that belong to it.
/// SLO attainment is accumulated per member tenant against *its own*
/// budget before merging, so classes mixing different budgets still report
/// a meaningful percentage.
struct ClassAgg {
  QosClass cls = QosClass::kStandard;
  TenantMetrics agg;                 ///< tenant field = class name
  std::uint64_t slo_delivered = 0;   ///< delivered by SLO-carrying tenants
  std::uint64_t slo_within = 0;      ///< ...of which within budget
  double slo_attained_pct() const;   ///< 100 when no member has an SLO
};

/// Everything one scenario run measured.
struct ScenarioMetrics {
  std::vector<TenantMetrics> tenants;
  Tick ticks = 0;               ///< Simulated duration of the run.
  double ns = 0.0;

  std::uint64_t total_generated() const;
  std::uint64_t total_delivered() const;
  std::uint64_t total_dropped() const;

  /// Fold another run's metrics in — the per-node aggregation of a sharded
  /// run. Tenants are matched by name (histograms merged, counters
  /// summed; unmatched tenants appended), and ticks/ns take the max: shards
  /// run the same virtual clock, so the merged duration is the latest
  /// finisher, not the sum.
  void merge(const ScenarioMetrics& o);

  /// Per-class aggregation, ascending class order, classes present only.
  std::vector<ClassAgg> by_class() const;
  /// Distinct service classes among the tenants.
  std::size_t distinct_classes() const;

  /// Per-tenant CSV rows (stable column set, deterministic formatting);
  /// `prefix` columns (scenario, backend, seed, scale) are prepended by
  /// the engine.
  static std::vector<std::string> csv_header();
  std::vector<std::vector<std::string>> csv_rows() const;

  /// Aligned-text rendering for terminal output.
  std::string table() const;

  /// Machine-readable dump: tenants, per-class aggregates, totals, and
  /// run duration — the scenario_runner --metrics-json payload, so tools
  /// stop parsing the human table.
  std::string json() const;
};

}  // namespace vl::traffic
