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

}  // namespace
}  // namespace vl
