// Sharded-simulation coverage: consistent-hash ring stability and
// rebalancing, conservative-lookahead safety, cross-shard metric merging,
// and the determinism contract — fixed seed reproduces byte-identical
// per-shard event streams, sequential and threaded stepping agree exactly,
// and delivered counts are equal across shard counts.

#include "traffic/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/hooks.hpp"
#include "sim/sharded.hpp"
#include "traffic/shard_router.hpp"

namespace vl::traffic {
namespace {

using squeue::Backend;

// --- ShardRouter -------------------------------------------------------------

TEST(ShardRouter, RoutesWholePopulationInRange) {
  ShardRouter r(4);
  for (std::uint64_t t = 0; t < 10000; ++t) {
    const int s = r.shard_for(t);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
  }
}

TEST(ShardRouter, SpreadIsRoughlyUniform) {
  ShardRouter r(8);
  const auto census = r.census(80000);
  for (const std::uint64_t n : census) {
    EXPECT_GT(n, 80000u / 8 / 3) << "a shard is starved";
    EXPECT_LT(n, 80000u / 8 * 3) << "a shard is overloaded";
  }
}

TEST(ShardRouter, AddingAShardMovesABoundedFraction) {
  // Consistent hashing's defining property: growing S=4 -> 5 may only
  // reassign the tenants the new shard captures — well under 2/S of the
  // population (mod-hash would move ~4/5 of them).
  constexpr std::uint64_t kPop = 20000;
  ShardRouter r(4);
  std::vector<int> before(kPop);
  for (std::uint64_t t = 0; t < kPop; ++t) before[t] = r.shard_for(t);

  r.add_shard();
  std::uint64_t moved = 0;
  for (std::uint64_t t = 0; t < kPop; ++t) {
    const int now = r.shard_for(t);
    if (now != before[t]) {
      ++moved;
      EXPECT_EQ(now, 4) << "a move must land on the new shard";
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LE(moved, 2 * kPop / 4);
}

TEST(ShardRouter, RebalanceMovesTenantsOffTheHotShard) {
  constexpr std::uint64_t kPop = 10000;
  ShardRouter r(4);
  const auto before = r.census(kPop);

  // Shard 2 is 8x hotter than the rest; 1 is (tied) coldest -> moves go
  // to the lowest-indexed coldest shard.
  std::vector<std::uint64_t> load = {100, 100, 800, 100};
  const std::size_t moved = r.rebalance(load, kPop);
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(r.overrides(), moved);

  const auto after = r.census(kPop);
  EXPECT_EQ(after[2], before[2] - moved);
  EXPECT_EQ(after[0], before[0] + moved);
  // Total is conserved.
  EXPECT_EQ(after[0] + after[1] + after[2] + after[3], kPop);
}

TEST(ShardRouter, RebalanceIsANoOpWhenBalanced) {
  ShardRouter r(4);
  std::vector<std::uint64_t> load = {100, 110, 95, 105};
  EXPECT_EQ(r.rebalance(load, 10000), 0u);
  EXPECT_EQ(r.overrides(), 0u);
}

// --- ShardedSim lookahead ----------------------------------------------------

TEST(ShardedSim, CrossShardDeliveryNeverBeatsTheLinkLatency) {
  constexpr Tick kLat = 100;
  sim::EventQueue q0, q1;
  sim::ShardedSim ssim(kLat, 1);
  ssim.add_shard(q0);
  ssim.add_shard(q1);

  // Shard 0 posts to shard 1 from several source ticks; each delivery
  // must observe dst.now() == send_tick + kLat, never earlier.
  std::vector<std::pair<Tick, Tick>> seen;  // (send, arrive)
  for (const Tick t : {Tick{3}, Tick{40}, Tick{41}, Tick{500}})
    q0.schedule_at(t, [&ssim, &q0, &q1, &seen, t] {
      ssim.post(0, 1, [&q1, &seen, t] { seen.emplace_back(t, q1.now()); });
      (void)q0;
    });
  ssim.run();

  ASSERT_EQ(seen.size(), 4u);
  for (const auto& [send, arrive] : seen) EXPECT_EQ(arrive, send + kLat);
  EXPECT_EQ(ssim.stats().messages, 4u);
  EXPECT_GE(ssim.stats().epochs, 1u);
}

TEST(ShardedSim, LinkWindowBoundsInFlightPosts) {
  sim::EventQueue q0, q1;
  sim::ShardedSim ssim(/*lookahead=*/10, 1);
  ssim.add_shard(q0);
  ssim.add_shard(q1);
  ssim.set_link_window(2);

  int refused = 0;
  q0.schedule_at(1, [&] {
    for (int i = 0; i < 5; ++i) {
      if (ssim.can_post(0, 1))
        ssim.post(0, 1, [] {});
      else
        ++refused;
    }
  });
  ssim.run();
  EXPECT_EQ(refused, 3);
  EXPECT_EQ(ssim.stats().messages, 2u);
  EXPECT_EQ(ssim.stats().window_stalls, 3u);
}

// --- ShardedSim epoch clocks -------------------------------------------------

TEST(ShardedSim, ClockSeesEveryEventUpToItsBoundaryAndNoneAfter) {
  sim::EventQueue q[2];
  sim::ShardedSim ssim(/*lookahead=*/100, 1);
  ssim.add_shard(q[0]);
  ssim.add_shard(q[1]);
  const std::vector<Tick> at[2] = {{10, 50, 51, 99, 100, 150, 237},
                                   {50, 75, 120, 200, 260}};
  std::vector<Tick> fired[2];
  for (int s = 0; s < 2; ++s)
    for (const Tick t : at[s])
      q[s].schedule_at(t, [&fired, &q, s] { fired[s].push_back(q[s].now()); });

  std::vector<Tick> boundaries;
  ssim.add_clock(50, [&](Tick b) {
    boundaries.push_back(b);
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(q[s].now(), b) << "shard " << s;
      const auto due = static_cast<std::size_t>(
          std::count_if(at[s].begin(), at[s].end(),
                        [b](Tick t) { return t <= b; }));
      EXPECT_EQ(fired[s].size(), due) << "shard " << s << " at " << b;
      for (const Tick t : fired[s]) EXPECT_LE(t, b);
    }
  });
  ssim.run();
  // One run per boundary before the last event (tick 260), none after.
  EXPECT_EQ(boundaries, (std::vector<Tick>{50, 100, 150, 200, 250}));
}

TEST(ShardedSim, LoneShardSamplesBeforeItsLastEventAndKeepsThatTick) {
  sim::EventQueue q;
  sim::ShardedSim ssim(sim::ShardedSim::kNoLinks);
  ssim.add_shard(q);
  for (const Tick t : {Tick{1}, Tick{3}, Tick{7}}) q.schedule_at(t, [] {});
  std::vector<Tick> samples;
  ssim.add_clock(5, [&](Tick b) { samples.push_back(b); });
  ssim.run();
  EXPECT_EQ(samples, std::vector<Tick>{5});
  EXPECT_EQ(q.last_fired(), 7u);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(ShardedSim, ClocksDueOnOneTickRunInRegistrationOrder) {
  sim::EventQueue q;
  sim::ShardedSim ssim(sim::ShardedSim::kNoLinks);
  ssim.add_shard(q);
  q.schedule_at(9, [] {});
  std::vector<std::pair<char, Tick>> order;
  ssim.add_clock(4, [&](Tick b) { order.emplace_back('a', b); });
  ssim.add_clock(2, [&](Tick b) { order.emplace_back('b', b); });
  ssim.run();
  const std::vector<std::pair<char, Tick>> want = {
      {'b', 2}, {'a', 4}, {'b', 4}, {'b', 6}, {'a', 8}, {'b', 8}};
  EXPECT_EQ(order, want);
}

/// Two shards bounce chains of posts between them, each hop also leaving a
/// local echo event. Returns each shard's (tick, id) event log, the epoch
/// count and the ticks a read-only clock (if any) ran at.
struct Bounce {
  std::vector<std::pair<Tick, int>> log[2];
  std::uint64_t epochs = 0;
  std::vector<Tick> clock_ticks;
};

Bounce bounce(int threads, Tick clock_period) {
  sim::EventQueue q[2];
  sim::ShardedSim ssim(/*lookahead=*/20, threads);
  ssim.add_shard(q[0]);
  ssim.add_shard(q[1]);
  Bounce out;
  std::function<void(int, int)> hop = [&](int s, int id) {
    out.log[s].emplace_back(q[s].now(), id);
    if (id % 10 == 9) return;  // end of this chain
    ssim.post(s, 1 - s, [&hop, s, id] { hop(1 - s, id + 1); });
    q[s].schedule_in(3 + id % 4, [&out, &q, s, id] {
      out.log[s].emplace_back(q[s].now(), -id);
    });
  };
  for (int c = 0; c < 4; ++c)
    q[c % 2].schedule_at(5 + 13 * c, [&hop, c] { hop(c % 2, 10 * c); });
  if (clock_period)
    ssim.add_clock(clock_period, [&](Tick b) {
      out.clock_ticks.push_back(b);
      EXPECT_EQ(q[0].now(), b);
      EXPECT_EQ(q[1].now(), b);
    });
  ssim.run();
  out.epochs = ssim.stats().epochs;
  return out;
}

TEST(ShardedSim, AClockSplitsWindowsWithoutMovingExchangesOrEvents) {
  const Bounce seq = bounce(1, 0);
  ASSERT_EQ(seq.log[0].size() + seq.log[1].size(), 4u * 10 + 4u * 9);
  for (const int threads : {1, 2}) {
    const Bounce plain = bounce(threads, 0);
    const Bounce clocked = bounce(threads, 7);
    EXPECT_FALSE(clocked.clock_ticks.empty());
    EXPECT_EQ(clocked.epochs, plain.epochs) << threads;
    EXPECT_EQ(plain.epochs, seq.epochs) << threads;
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(clocked.log[s], plain.log[s]) << threads << " shard " << s;
      EXPECT_EQ(plain.log[s], seq.log[s]) << threads << " shard " << s;
    }
  }
}

// --- ScenarioMetrics::merge --------------------------------------------------

TEST(ScenarioMetricsMerge, MatchesByNameAndAppendsStrangers) {
  ScenarioMetrics a, b;
  TenantMetrics web;
  web.tenant = "web";
  web.generated = web.sent = web.delivered = 10;
  web.blocked_ticks = 100;
  web.latency.record(50, 10);
  a.tenants = {web};
  a.ticks = 1000;
  a.ns = 500.0;

  TenantMetrics web2 = web;
  web2.blocked_ticks = 40;
  web2.latency = LogHistogram();
  web2.latency.record(200, 10);
  TenantMetrics bulk;
  bulk.tenant = "bulk";
  bulk.generated = bulk.sent = bulk.delivered = 5;
  b.tenants = {web2, bulk};
  b.ticks = 1500;
  b.ns = 750.0;

  a.merge(b);
  ASSERT_EQ(a.tenants.size(), 2u);
  EXPECT_EQ(a.tenants[0].tenant, "web");
  EXPECT_EQ(a.tenants[0].generated, 20u);
  EXPECT_EQ(a.tenants[0].blocked_ticks, 140u);
  EXPECT_EQ(a.tenants[0].latency.count(), 20u);  // histogram merged
  EXPECT_EQ(a.tenants[0].latency.max(), 200u);
  EXPECT_EQ(a.tenants[1].tenant, "bulk");
  EXPECT_EQ(a.ticks, 1500u);  // max, not sum: shards share the clock
  EXPECT_DOUBLE_EQ(a.ns, 750.0);
}

// --- run_sharded -------------------------------------------------------------

ShardedOptions small_opts(int shards, int threads = 1) {
  ShardedOptions o;
  o.shards = shards;
  o.sim_threads = threads;
  o.population = 4000;
  o.messages = 2048;
  return o;
}

TEST(ShardedEngine, ConservesAndDeliversEqualWorkAcrossShardCounts) {
  const auto r1 = run_sharded(*find_scenario("shard-diurnal"), Backend::kVl,
                              42, small_opts(1));
  const auto r4 = run_sharded(*find_scenario("shard-diurnal"), Backend::kVl,
                              42, small_opts(4));

  // Equal global work regardless of shard count.
  EXPECT_EQ(r1.engine.metrics.total_delivered(), 2048u);
  EXPECT_EQ(r4.engine.metrics.total_delivered(), 2048u);
  EXPECT_EQ(r1.cross_shard, 0u);
  EXPECT_GT(r4.cross_shard, 0u);  // most traffic crosses links at S=4
  EXPECT_GE(r4.epochs, 1u);

  // Conservation per class, globally (generated == sent == delivered:
  // sharded runs shed nothing).
  for (const auto& r : {r1, r4}) {
    std::uint64_t gen = 0, sent = 0, del = 0, lat = 0;
    for (const auto& t : r.engine.metrics.tenants) {
      gen += t.generated;
      sent += t.sent;
      del += t.delivered;
      lat += t.latency.count();
    }
    EXPECT_EQ(gen, 2048u);
    EXPECT_EQ(sent, gen);
    EXPECT_EQ(del, sent);
    EXPECT_EQ(lat, del);
  }
  ASSERT_EQ(r4.shard_delivered.size(), 4u);
  std::uint64_t by_shard = 0;
  for (const std::uint64_t n : r4.shard_delivered) by_shard += n;
  EXPECT_EQ(by_shard, 2048u);
}

TEST(ShardedEngine, FixedSeedReproducesPerShardStreamsExactly) {
  const auto a = run_sharded(*find_scenario("shard-diurnal"), Backend::kVl,
                             42, small_opts(4));
  const auto b = run_sharded(*find_scenario("shard-diurnal"), Backend::kVl,
                             42, small_opts(4));
  EXPECT_EQ(a.shard_digests, b.shard_digests);
  EXPECT_EQ(a.shard_delivered, b.shard_delivered);
  EXPECT_EQ(a.engine.events, b.engine.events);
  EXPECT_EQ(a.engine.csv(), b.engine.csv());

  const auto c = run_sharded(*find_scenario("shard-diurnal"), Backend::kVl,
                             43, small_opts(4));
  EXPECT_NE(a.shard_digests, c.shard_digests);  // the seed matters
}

TEST(ShardedEngine, ThreadedSteppingMatchesSequentialByteForByte) {
  const auto seq = run_sharded(*find_scenario("shard-diurnal"), Backend::kVl,
                               7, small_opts(4, /*threads=*/1));
  const auto thr = run_sharded(*find_scenario("shard-diurnal"), Backend::kVl,
                               7, small_opts(4, /*threads=*/2));
  EXPECT_EQ(seq.shard_digests, thr.shard_digests);
  EXPECT_EQ(seq.shard_delivered, thr.shard_delivered);
  EXPECT_EQ(seq.engine.events, thr.engine.events);
  EXPECT_EQ(seq.epochs, thr.epochs);
  EXPECT_EQ(seq.engine.csv(), thr.engine.csv());
}

TEST(ShardedEngine, RunsOnASoftwareBackendToo) {
  const auto r = run_sharded(*find_scenario("shard-diurnal"), Backend::kBlfq,
                             11, small_opts(2));
  EXPECT_EQ(r.engine.metrics.total_delivered(), 2048u);
  EXPECT_GT(r.cross_shard, 0u);
}

TEST(ShardedEngine, SupervisedMeshMatchesAcrossSteppingAndObservation) {
  // The QoS supervisor is an epoch clock on a mesh as on one node: it acts
  // on fixed boundaries, so threaded stepping and a timeline plus tracer
  // riding beside it leave every digest and CSV byte unchanged.
  ScenarioSpec spec = *find_scenario("shard-diurnal");
  spec.supervisor = true;
  const auto seq = run_sharded(spec, Backend::kVl, 42, small_opts(4));
  const auto thr =
      run_sharded(spec, Backend::kVl, 42, small_opts(4, /*threads=*/4));
  obs::Timeline tl;
  obs::Tracer tr;
  obs::RunHooks hooks;
  hooks.timeline = &tl;
  hooks.tracer = &tr;
  ShardedOptions observed_opts = small_opts(4);
  observed_opts.obs = &hooks;
  const auto observed = run_sharded(spec, Backend::kVl, 42, observed_opts);

  for (const auto& t : seq.engine.metrics.tenants) {
    EXPECT_EQ(t.generated, t.sent + t.dropped) << t.tenant;
    EXPECT_EQ(t.delivered, t.sent) << t.tenant;
  }
  EXPECT_EQ(seq.engine.metrics.total_delivered(), 2048u);
  for (const auto* r : {&thr, &observed}) {
    EXPECT_EQ(r->engine.csv(), seq.engine.csv());
    EXPECT_EQ(r->shard_digests, seq.shard_digests);
    EXPECT_EQ(r->shard_delivered, seq.shard_delivered);
    EXPECT_EQ(r->engine.events, seq.engine.events);
    EXPECT_EQ(r->epochs, seq.epochs);
  }
  // The supervisor ran and published its series on the caller's timeline.
  const auto& names = tl.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "sup.violations"),
            names.end());
  EXPECT_GT(tl.epochs(), 1u);
}

TEST(ShardedEngine, RejectsUnshardableSpecs) {
  const ScenarioSpec& ok = *find_scenario("shard-diurnal");

  ShardedOptions opts = small_opts(2);
  opts.population = 0;  // no ring
  ScenarioSpec no_pop = ok;
  no_pop.sharding.population = 0;
  EXPECT_THROW(run_sharded(no_pop, Backend::kBlfq, 1, opts),
               std::invalid_argument);

  ScenarioSpec fan_in = ok;  // topology without a channel per consumer
  fan_in.topology = Topology::kFanIn;
  EXPECT_THROW(run_sharded(fan_in, Backend::kBlfq, 1, small_opts(2)),
               std::invalid_argument);

  ShardedOptions too_many = small_opts(ok.consumers + 1);
  EXPECT_THROW(run_sharded(ok, Backend::kBlfq, 1, too_many),
               std::invalid_argument);

  // reconfig@'s one-shot events are run-wide state that threaded shards
  // would race on, so it stays single-node (join/leave only read the plane).
  ScenarioSpec reconfig = ok;
  reconfig.lifecycle = replay::LifecycleSpec::parse("reconfig@20000");
  EXPECT_THROW(run_sharded(reconfig, Backend::kVl, 1, small_opts(2)),
               std::invalid_argument);
}

TEST(ShardedEngine, RebalanceMovesTenantsUnderSkew) {
  // A hot shard (ingress + queue backlog) must trigger overload moves when
  // the spec opts in. Skew the ring by giving the run few shards and a
  // bursty class; the check is only that the mechanism engages and the run
  // still conserves.
  ScenarioSpec spec = *find_scenario("shard-diurnal");
  spec.sharding.rebalance = true;
  ShardedOptions o = small_opts(2);
  o.messages = 4096;
  const auto r = run_sharded(spec, Backend::kBlfq, 42, o);
  EXPECT_EQ(r.engine.metrics.total_delivered(), 4096u);
  // Rebalancing may or may not fire depending on the load pattern; the
  // deterministic contract still holds either way.
  const auto r2 = run_sharded(spec, Backend::kBlfq, 42, o);
  EXPECT_EQ(r.rebalanced, r2.rebalanced);
  EXPECT_EQ(r.shard_digests, r2.shard_digests);
}

}  // namespace
}  // namespace vl::traffic
