// Registry unit tests: the three entry kinds (owned counters, links,
// gauges), pointer stability of counter handles across growth, idempotent
// registration, the StatSet snapshot/merge bridge, and clear_readers().

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace vl::obs {
namespace {

TEST(Registry, OwnedCounterRoundTrip) {
  Registry reg;
  Counter& c = reg.counter("vlrd.pushes");
  EXPECT_EQ(reg.value("vlrd.pushes"), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.get(), 42u);
  EXPECT_EQ(reg.value("vlrd.pushes"), 42u);
  c.reset();
  EXPECT_EQ(reg.value("vlrd.pushes"), 0u);
}

TEST(Registry, CounterRegistrationIsIdempotent) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, CounterHandlesArePointerStable) {
  Registry reg;
  std::vector<Counter*> handles;
  for (int i = 0; i < 1000; ++i)
    handles.push_back(&reg.counter("c" + std::to_string(i)));
  // Registering 1000 more cells must not move any earlier cell.
  for (int i = 1000; i < 2000; ++i) reg.counter("c" + std::to_string(i));
  for (int i = 0; i < 1000; ++i) {
    handles[static_cast<std::size_t>(i)]->inc(
        static_cast<std::uint64_t>(i) + 1);
    EXPECT_EQ(reg.value("c" + std::to_string(i)),
              static_cast<std::uint64_t>(i) + 1);
  }
}

TEST(Registry, LinksReadLiveFields) {
  Registry reg;
  std::uint64_t wide = 7;
  std::uint32_t narrow = 3;
  reg.link("mem.hits", &wide);
  reg.link32("caf.used", &narrow);
  EXPECT_EQ(reg.value("mem.hits"), 7u);
  EXPECT_EQ(reg.value("caf.used"), 3u);
  wide = 100;
  narrow = 50;
  EXPECT_EQ(reg.value("mem.hits"), 100u);
  EXPECT_EQ(reg.value("caf.used"), 50u);
}

TEST(Registry, GaugesEvaluateAtReadTime) {
  Registry reg;
  std::uint64_t a = 1, b = 2;
  reg.gauge("sum", [&] { return a + b; });
  EXPECT_EQ(reg.value("sum"), 3u);
  a = 10;
  EXPECT_EQ(reg.value("sum"), 12u);
}

TEST(Registry, SnapshotExportsToStatSet) {
  Registry reg;
  reg.counter("b.two").inc(2);
  reg.counter("a.one").inc(1);
  std::uint64_t live = 9;
  reg.link("c.three", &live);
  const StatSet s = reg.snapshot("dev.");
  EXPECT_EQ(s.get("dev.a.one"), 1u);
  EXPECT_EQ(s.get("dev.b.two"), 2u);
  EXPECT_EQ(s.get("dev.c.three"), 9u);
  // A later snapshot sees later values — the snapshot is a copy, not a view.
  live = 10;
  EXPECT_EQ(s.get("dev.c.three"), 9u);
  EXPECT_EQ(reg.snapshot("dev.").get("dev.c.three"), 10u);
}

TEST(Registry, MergeIntoFoldsAcrossRegistries) {
  // A shard mesh's post-join pattern: one StatSet accumulating every
  // shard's snapshot.
  Registry shard0, shard1;
  shard0.counter("vlrd.pushes").inc(5);
  shard1.counter("vlrd.pushes").inc(7);
  StatSet total = shard0.snapshot();
  total.merge(shard1.snapshot());
  EXPECT_EQ(total.get("vlrd.pushes"), 12u);
}

TEST(Registry, ClearReadersDropsLinksAndGaugesOnly) {
  Registry reg;
  reg.counter("owned").inc(1);
  std::uint64_t live = 2;
  reg.link("linked", &live);
  reg.gauge("derived", [] { return std::uint64_t{3}; });
  EXPECT_EQ(reg.size(), 3u);
  reg.clear_readers();
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains("owned"));
  EXPECT_FALSE(reg.contains("linked"));
  EXPECT_FALSE(reg.contains("derived"));
  EXPECT_EQ(reg.value("owned"), 1u);
}

}  // namespace
}  // namespace vl::obs
