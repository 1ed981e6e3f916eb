// Fault-plane behaviour through the real engines: byte-identical chaos
// replay, zero-loss stall windows, channel loss/dup conservation on every
// backend, flash-crowd load mutation, and sharded link faults, channel
// loss/dup, shedding and churn staying deterministic across
// sequential-vs-threaded stepping.

#include "fault/plane.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "replay/lifecycle.hpp"
#include "traffic/engine.hpp"
#include "traffic/scenario.hpp"
#include "traffic/sharded_engine.hpp"

namespace vl::fault {
namespace {

using squeue::Backend;
using traffic::EngineResult;
using traffic::ScenarioSpec;
using traffic::ShardedOptions;
using traffic::find_scenario;
using traffic::run_spec;

ScenarioSpec with_faults(const char* scenario, const char* faults) {
  ScenarioSpec s = *find_scenario(scenario);
  s.faults = FaultSpec::parse(faults);
  return s;
}

std::uint64_t total(const traffic::ScenarioMetrics& m,
                    std::uint64_t traffic::TenantMetrics::*field) {
  std::uint64_t sum = 0;
  for (const auto& t : m.tenants) sum += t.*field;
  return sum;
}

TEST(FaultPlane, FaultRunIsByteIdenticalAcrossRepeats) {
  const ScenarioSpec s = with_faults(
      "incast-burst", "stall@20000+15000;flash@10000+30000:factor=0.5");
  const EngineResult a = run_spec(s, Backend::kVl, 42);
  const EngineResult b = run_spec(s, Backend::kVl, 42);
  EXPECT_EQ(a.csv(), b.csv());
  EXPECT_EQ(a.events, b.events);
}

TEST(FaultPlane, DeviceStallLosesNothingAndStretchesTheRun) {
  const ScenarioSpec plain = *find_scenario("incast-burst");
  const ScenarioSpec stalled =
      with_faults("incast-burst", "stall@20000+40000:every=1");
  const EngineResult base = run_spec(plain, Backend::kVl, 42);
  const EngineResult r = run_spec(stalled, Backend::kVl, 42);

  // A stall is a pure latency event: producers back-pressure through the
  // normal NACK/park paths, so conservation is exact.
  EXPECT_EQ(total(r.metrics, &traffic::TenantMetrics::delivered),
            total(r.metrics, &traffic::TenantMetrics::generated));
  EXPECT_EQ(total(r.metrics, &traffic::TenantMetrics::dropped), 0u);
  EXPECT_EQ(total(r.metrics, &traffic::TenantMetrics::delivered),
            total(base.metrics, &traffic::TenantMetrics::delivered));
  // ...but the window must actually have bitten.
  EXPECT_GT(r.metrics.ticks, base.metrics.ticks);
}

// Loss/dup act at the engine's send boundary, before a message reaches any
// channel, so every backend takes the same fate.
constexpr Backend kAllBackends[] = {Backend::kBlfq, Backend::kZmq,
                                    Backend::kVl, Backend::kVlIdeal,
                                    Backend::kCaf};

TEST(FaultPlane, ChanLossShedsAndConserves) {
  const ScenarioSpec s =
      with_faults("incast-burst", "loss@0+10000000:every=4");
  for (Backend b : kAllBackends) {
    const EngineResult r = run_spec(s, b, 42);
    const std::uint64_t gen =
        total(r.metrics, &traffic::TenantMetrics::generated);
    const std::uint64_t del =
        total(r.metrics, &traffic::TenantMetrics::delivered);
    const std::uint64_t drop =
        total(r.metrics, &traffic::TenantMetrics::dropped);
    EXPECT_GT(drop, 0u) << squeue::to_string(b);
    // Every generated message is accounted for.
    EXPECT_EQ(del + drop, gen) << squeue::to_string(b);
  }
}

TEST(FaultPlane, ChanDupDeliversExtraCopies) {
  const ScenarioSpec s = with_faults("incast-burst", "dup@0+10000000:every=4");
  for (Backend b : kAllBackends) {
    const EngineResult r = run_spec(s, b, 42);
    const std::uint64_t gen =
        total(r.metrics, &traffic::TenantMetrics::generated);
    const std::uint64_t del =
        total(r.metrics, &traffic::TenantMetrics::delivered);
    // Duplicates arrive as real deliveries.
    EXPECT_GT(del, gen) << squeue::to_string(b);
    EXPECT_EQ(total(r.metrics, &traffic::TenantMetrics::dropped), 0u)
        << squeue::to_string(b);
  }
}

TEST(FaultPlane, FlashCrowdRescalesArrivals) {
  // factor < 1 compresses arrival gaps: same message budget, delivered
  // over fewer simulated ticks.
  const ScenarioSpec flash =
      with_faults("incast-burst", "flash@0+10000000:factor=0.25");
  const EngineResult base = run_spec(*find_scenario("incast-burst"),
                                     Backend::kVl, 42);
  const EngineResult r = run_spec(flash, Backend::kVl, 42);
  EXPECT_EQ(total(r.metrics, &traffic::TenantMetrics::delivered),
            total(base.metrics, &traffic::TenantMetrics::delivered));
  EXPECT_LT(r.metrics.ticks, base.metrics.ticks);
}

TEST(FaultPlane, ScaleGapIsAPureFunction) {
  FaultSpec spec = FaultSpec::parse("flash@100+100:factor=0.5,class=2");
  FaultPlane p(spec, 1);
  // Outside the window / wrong class: identity.
  EXPECT_EQ(p.scale_gap(0, QosClass::kBulk, 50, 80), 80u);
  EXPECT_EQ(p.scale_gap(0, QosClass::kLatency, 150, 80), 80u);
  // Inside: scaled, repeatably.
  const Tick scaled = p.scale_gap(0, QosClass::kBulk, 150, 80);
  EXPECT_EQ(scaled, 40u);
  EXPECT_EQ(p.scale_gap(0, QosClass::kBulk, 150, 80), scaled);
  EXPECT_GT(p.flash_rescales(), 0u);
}

TEST(FaultPlane, ChanCopiesFollowsTheOrdinalPeriod) {
  FaultSpec spec = FaultSpec::parse("loss@0+1000:every=4");
  FaultPlane p(spec, 1);
  int dropped = 0;
  for (int i = 0; i < 16; ++i)
    if (p.chan_copies(0, 10) == 0) ++dropped;
  EXPECT_EQ(dropped, 4);  // every 4th message, deterministically
  EXPECT_EQ(p.lost(), 4u);
  // Outside the window nothing is touched.
  EXPECT_EQ(p.chan_copies(0, 5000), 1);
}

TEST(FaultPlane, ShardedLinkFaultsMatchSeqVsThreaded) {
  ShardedOptions seq;
  seq.shards = 4;
  seq.sim_threads = 1;
  seq.population = 4000;
  seq.messages = 2048;
  ShardedOptions thr = seq;
  thr.sim_threads = 3;

  ScenarioSpec s = *find_scenario("shard-diurnal");
  s.faults = FaultSpec::parse(
      "partition@2000+3000:src=0,dst=2;spike@1000+6000:extra=128");

  const auto a = traffic::run_sharded(s, Backend::kVl, 42, seq);
  const auto b = traffic::run_sharded(s, Backend::kVl, 42, thr);
  EXPECT_EQ(a.shard_digests, b.shard_digests);
  EXPECT_EQ(a.shard_delivered, b.shard_delivered);
  EXPECT_EQ(a.engine.csv(), b.engine.csv());

  // Conservation across the partition window: posts stall, nothing drops.
  EXPECT_EQ(total(a.engine.metrics, &traffic::TenantMetrics::delivered),
            total(a.engine.metrics, &traffic::TenantMetrics::generated));

  // And the faults changed the run relative to a fault-free one.
  const auto plain =
      traffic::run_sharded(*find_scenario("shard-diurnal"), Backend::kVl, 42,
                           seq);
  EXPECT_NE(a.shard_digests, plain.shard_digests);
}

TEST(FaultPlane, ShardedChanFaultsAndSheddingConserveAndMatchSeqVsThreaded) {
  ShardedOptions seq;
  seq.shards = 4;
  seq.population = 4000;
  seq.messages = 2048;
  ShardedOptions thr = seq;
  thr.sim_threads = 4;

  // Three inputs: channel loss/dup faults, producer-side shedding at a
  // full local channel (drop_depth, which a mesh node honours too), and the
  // same faults under tenant churn on VL, where every node reads the one
  // lifecycle plane and re-carves its own quotas at each join/leave.
  ScenarioSpec faulted = with_faults(
      "shard-diurnal", "loss@0+10000000:every=5;dup@0+10000000:every=7");
  ScenarioSpec shed = *find_scenario("shard-diurnal");
  for (auto& t : shed.tenants) t.drop_depth = 2;
  ScenarioSpec churned = faulted;
  churned.lifecycle = replay::LifecycleSpec::parse(
      "leave@3000:tenant=bulk;join@6000:tenant=bulk;leave@9000:tenant=api");

  std::uint64_t faulted_gen = 0;
  for (const ScenarioSpec* s : {&faulted, &shed, &churned}) {
    const Backend backend = s == &churned ? Backend::kVl : Backend::kZmq;
    const auto a = traffic::run_sharded(*s, backend, 42, seq);
    const auto b = traffic::run_sharded(*s, backend, 42, thr);
    EXPECT_EQ(a.shard_digests, b.shard_digests);
    EXPECT_EQ(a.shard_delivered, b.shard_delivered);
    EXPECT_EQ(a.engine.csv(), b.engine.csv());

    // Per class, everything sent arrives; what was generated is either
    // delivered or dropped, with each duplicate copy one extra delivery.
    const std::uint64_t duped = a.engine.device_stats.get("fault.chan_duped");
    const std::uint64_t lost = a.engine.device_stats.get("fault.chan_lost");
    std::uint64_t gen = 0, del = 0, drop = 0;
    for (const auto& t : a.engine.metrics.tenants) {
      EXPECT_EQ(t.delivered, t.sent) << t.tenant;
      if (!duped) {
        EXPECT_EQ(t.generated, t.delivered + t.dropped) << t.tenant;
      }
      gen += t.generated;
      del += t.delivered;
      drop += t.dropped;
    }
    EXPECT_GT(drop, 0u);
    EXPECT_EQ(gen + duped, del + drop);
    if (s != &shed) {
      EXPECT_GT(duped, 0u);
      EXPECT_EQ(drop, lost);
    }
    if (s == &faulted) faulted_gen = gen;
    // The departed tenant forfeits the rest of its budget: never generated.
    if (s == &churned) {
      EXPECT_LT(gen, faulted_gen);
    }
  }
}

}  // namespace
}  // namespace vl::fault
