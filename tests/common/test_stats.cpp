#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace vl {
namespace {

TEST(StatSet, AddAndGet) {
  StatSet s;
  EXPECT_EQ(s.get("x"), 0u);
  s.add("x");
  s.add("x", 4);
  EXPECT_EQ(s.get("x"), 5u);
}

TEST(StatSet, DiffDropsNonPositive) {
  StatSet a, b;
  a.add("grew", 10);
  a.add("same", 3);
  b.add("grew", 4);
  b.add("same", 3);
  b.add("only_base", 7);
  StatSet d = a.diff(b);
  EXPECT_EQ(d.get("grew"), 6u);
  EXPECT_EQ(d.get("same"), 0u);
  EXPECT_EQ(d.get("only_base"), 0u);
}

TEST(StatSet, Merge) {
  StatSet a, b;
  a.add("x", 2);
  b.add("x", 3);
  b.add("y", 1);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 5u);
  EXPECT_EQ(a.get("y"), 1u);
}

TEST(Geomean, MatchesHandComputation) {
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
  EXPECT_EQ(geomean({}), 0.0);
}

TEST(Samples, PercentilesNearestRank) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.record(i);
  EXPECT_EQ(s.percentile(50), 50.0);
  EXPECT_EQ(s.percentile(99), 99.0);
  EXPECT_EQ(s.percentile(100), 100.0);
  EXPECT_EQ(s.percentile(0), 1.0);
  EXPECT_EQ(s.percentile(1), 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_EQ(s.count(), 100u);
}

TEST(Samples, SingleSampleIsEveryPercentile) {
  Samples s;
  s.record(42.0);
  EXPECT_EQ(s.percentile(1), 42.0);
  EXPECT_EQ(s.median(), 42.0);
  EXPECT_EQ(s.percentile(99), 42.0);
}

TEST(Samples, RecordAfterSortingStillExact) {
  Samples s;
  s.record(3);
  s.record(1);
  EXPECT_EQ(s.median(), 1.0);  // nearest-rank of {1,3} at p50 -> rank 1
  s.record(2);                 // triggers resort on next query
  EXPECT_EQ(s.median(), 2.0);
  EXPECT_EQ(s.percentile(100), 3.0);
}

TEST(Samples, EmptyIsZero) {
  Samples s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(50), 0.0);
}

}  // namespace
}  // namespace vl
