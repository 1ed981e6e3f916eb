// LogHistogram correctness: bucket math, bounded relative error against
// the exact sorted-sample percentiles, merge/counter conservation, and the
// CSV row shape the scenario runner emits.

#include "traffic/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace vl::traffic {
namespace {

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  for (std::uint64_t v = 0; v < LogHistogram::kLinearMax; ++v) {
    EXPECT_EQ(LogHistogram::bucket_index(v), v);
    EXPECT_EQ(LogHistogram::bucket_upper(static_cast<std::uint32_t>(v)), v);
  }
}

TEST(LogHistogram, BucketUpperIsTightBound) {
  // Every value maps to a bucket whose upper edge is >= the value and
  // within 1/32 relative error.
  Xoshiro256 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.next() >> (rng.below(56));
    const std::uint32_t b = LogHistogram::bucket_index(v);
    const std::uint64_t up = LogHistogram::bucket_upper(b);
    ASSERT_GE(up, v);
    ASSERT_LE(static_cast<double>(up - v),
              static_cast<double>(v) / 32.0 + 1.0)
        << "v=" << v;
    // Monotone: the next bucket's upper edge is strictly larger (skip at
    // the final bucket, whose edge is already the maximum value).
    if (up != ~std::uint64_t{0})
      ASSERT_GT(LogHistogram::bucket_upper(b + 1), up);
  }
}

TEST(LogHistogram, CountsAndMomentsConserve) {
  LogHistogram h;
  h.record(3);
  h.record(70, 2);
  h.record(1'000'000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 1'000'000u);
  EXPECT_NEAR(h.mean(), (3.0 + 70 + 70 + 1e6) / 4, 1e-6);
}

TEST(LogHistogram, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(LogHistogram, ClearedRefillsLikeFresh) {
  LogHistogram h;
  h.record(1'000'000);
  h.record(2);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(99), 0u);
  h.record(70);
  EXPECT_EQ(h.min(), 70u);  // neither bound survives the clear
  EXPECT_EQ(h.max(), 70u);
  EXPECT_EQ(h.percentile(99), 70u);
  EXPECT_EQ(h.mean(), 70.0);
}

TEST(LogHistogram, PercentileAgreesWithExactSort) {
  // The satellite check: log-bucketed percentiles vs exact store-and-sort
  // percentiles on a heavy-tailed sample, within the 1/32 design error.
  LogHistogram h;
  Samples exact;
  Xoshiro256 rng(2024);
  for (int i = 0; i < 50000; ++i) {
    // Log-uniform over ~[1, e^12) ≈ [1, 162k): stresses many octaves.
    const double v = std::exp(rng.uniform() * 12.0);
    const auto t = static_cast<std::uint64_t>(v);
    h.record(t);
    exact.record(static_cast<double>(t));
  }
  for (double p : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double e = exact.percentile(p);
    const double g = static_cast<double>(h.percentile(p));
    EXPECT_NEAR(g, e, e * 0.05 + 1.0) << "p" << p;
  }
}

TEST(LogHistogram, PercentilesAreMonotone) {
  LogHistogram h;
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) h.record(rng.below(1 << 20));
  std::uint64_t prev = 0;
  for (double p : {0.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0}) {
    const std::uint64_t v = h.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_EQ(h.percentile(100), h.max());
}

TEST(LogHistogram, MergeMatchesCombinedRecording) {
  LogHistogram a, b, both;
  Xoshiro256 rng(9);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.below(1 << 16);
    (i % 2 ? a : b).record(v);
    both.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.max(), both.max());
  for (double p : {50.0, 95.0, 99.0})
    EXPECT_EQ(a.percentile(p), both.percentile(p));
}

TEST(ScenarioMetrics, CsvRowsCoverTenantsPlusAggregate) {
  ScenarioMetrics m;
  m.ns = 1e6;
  for (const char* name : {"gold", "bronze"}) {
    TenantMetrics t;
    t.tenant = name;
    t.generated = 10;
    t.sent = 8;
    t.delivered = 8;
    t.dropped = 2;
    t.latency.record(100, 8);
    m.tenants.push_back(std::move(t));
  }
  const auto rows = m.csv_rows();
  ASSERT_EQ(rows.size(), 3u);  // 2 tenants + "*" aggregate
  ASSERT_EQ(rows[0].size(), ScenarioMetrics::csv_header().size());
  EXPECT_EQ(rows[2][0], "*");
  EXPECT_EQ(rows[2][1], "-");   // mixed-class aggregate carries no class
  EXPECT_EQ(rows[2][4], "20");  // aggregate generated
  EXPECT_EQ(m.total_generated(), 20u);
  EXPECT_EQ(m.total_delivered(), 16u);
  EXPECT_EQ(m.total_dropped(), 4u);
}

TEST(ScenarioMetrics, SingleTenantHasNoAggregateRow) {
  ScenarioMetrics m;
  TenantMetrics t;
  t.tenant = "only";
  m.tenants.push_back(std::move(t));
  EXPECT_EQ(m.csv_rows().size(), 1u);
}

}  // namespace
}  // namespace vl::traffic
