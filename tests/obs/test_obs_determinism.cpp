// The observability layer's load-bearing invariant: observation never
// perturbs the simulation. A run with a Timeline sampling every epoch and a
// Tracer recording every hook must execute the exact same event sequence as
// a run with neither — byte-identical per-tenant CSV, identical event
// counts, identical per-shard digests. And the timeline must be *correct*:
// its final epoch's cumulative series equal the end-of-run ScenarioMetrics
// the engines compute independently.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "obs/hooks.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "replay/trace.hpp"
#include "squeue/factory.hpp"
#include "traffic/engine.hpp"
#include "traffic/sharded_engine.hpp"

namespace vl::traffic {
namespace {

using squeue::Backend;

double class_p99(const ScenarioMetrics& m, QosClass cls) {
  for (const auto& c : m.by_class())
    if (c.cls == cls)
      return static_cast<double>(c.agg.latency.percentile(99));
  return -1.0;
}

ClassAgg find_class(const ScenarioMetrics& m, QosClass cls) {
  for (auto& c : m.by_class())
    if (c.cls == cls) return c;
  ADD_FAILURE() << "class " << to_string(cls) << " absent";
  return {};
}

TEST(ObsDeterminism, ClassicEngineByteIdenticalWithObsOnAndOff) {
  const ScenarioSpec* spec = find_scenario("qos-incast");
  ASSERT_NE(spec, nullptr);

  const EngineResult plain = run_spec(*spec, Backend::kVl, 42);

  obs::Timeline tl;
  obs::Tracer tr;
  obs::RunHooks hooks;
  hooks.timeline = &tl;
  hooks.sample_every = 5000;
  hooks.tracer = &tr;
  const EngineResult observed = run_spec(*spec, Backend::kVl, 42, 1, &hooks);

  // Same events, same simulated duration, same CSV bytes.
  EXPECT_EQ(observed.events, plain.events);
  EXPECT_EQ(observed.metrics.ticks, plain.metrics.ticks);
  EXPECT_EQ(observed.csv(), plain.csv());

  // The timeline sampled something and its final (cumulative) epoch agrees
  // with the independently computed end-of-run metrics.
  ASSERT_GT(tl.size(), 0u);
  EXPECT_EQ(tl.last("eq.executed"), static_cast<double>(observed.events));
  for (const auto& c : observed.metrics.by_class()) {
    const std::string base = std::string("class.") + to_string(c.cls) + ".";
    EXPECT_EQ(tl.last(base + "delivered"),
              static_cast<double>(c.agg.delivered));
    EXPECT_EQ(tl.last(base + "sent"), static_cast<double>(c.agg.sent));
    EXPECT_EQ(tl.last(base + "p99"),
              static_cast<double>(c.agg.latency.percentile(99)));
    EXPECT_NEAR(tl.last(base + "slo_att_pct"), c.slo_attained_pct(), 1e-9);
  }

  // The trace recorded spans and every B has a matching E per lane.
  ASSERT_GT(tr.total_events(), 0u);
  std::map<std::uint32_t, int> depth;
  for (const auto& ev : tr.buffer(0).events()) {
    if (ev.ph == 'B') ++depth[ev.tid];
    if (ev.ph == 'E') {
      --depth[ev.tid];
      EXPECT_GE(depth[ev.tid], 0) << "E without open B in lane " << ev.tid;
    }
  }
  for (const auto& [tid, d] : depth)
    EXPECT_EQ(d, 0) << "unclosed span in lane " << tid;
}

TEST(ObsDeterminism, SupervisedRunByteIdenticalWithHooksOnAndOff) {
  // The QoS supervisor keeps its own fixed clock and reads tenant counters
  // directly, so neither a trace recorder nor a caller timeline at another
  // cadence can move its decisions: the supervised CSV equals the
  // hook-less one.
  const ScenarioSpec* spec = find_scenario("qos-adversarial-bulk");
  ASSERT_NE(spec, nullptr);
  ASSERT_TRUE(spec->supervisor);
  for (Backend b : {Backend::kVl, Backend::kCaf}) {
    const std::string plain = run_spec(*spec, b, 42).csv();

    replay::TraceRecorder rec;
    obs::RunHooks rec_hooks;
    rec_hooks.recorder = &rec;
    EXPECT_EQ(run_spec(*spec, b, 42, 1, &rec_hooks).csv(), plain)
        << squeue::to_string(b) << " with a recorder";

    obs::Timeline tl;
    obs::RunHooks tl_hooks;
    tl_hooks.timeline = &tl;
    tl_hooks.sample_every = 10000;
    EXPECT_EQ(run_spec(*spec, b, 42, 1, &tl_hooks).csv(), plain)
        << squeue::to_string(b) << " with a 10000-tick timeline";
    // The caller's timeline still carries the supervisor's decisions.
    EXPECT_GT(tl.last("sup.decreases"), 0.0) << squeue::to_string(b);
  }
}

TEST(ObsDeterminism, VlSendsTraceSpansAndQuotaNacks) {
  // VL's blocking sends (batched and single alike) trace like every other
  // backend's: a chan/send_many span per call, carrying its length, and a
  // nack_quota instant per quota refusal — on the supervised bulk flood the
  // bulk producers run into their per-class quota all the time.
  const ScenarioSpec* spec = find_scenario("qos-adversarial-bulk");
  ASSERT_NE(spec, nullptr);
  obs::Tracer tr;
  obs::RunHooks hooks;
  hooks.tracer = &tr;
  const EngineResult traced = run_spec(*spec, Backend::kVl, 42, 1, &hooks);
  EXPECT_EQ(traced.csv(), run_spec(*spec, Backend::kVl, 42).csv());

  std::size_t spans = 0, nacks = 0;
  const std::string send_many = "send_many", nack_quota = "nack_quota";
  for (const auto& ev : tr.buffer(0).events()) {
    if (ev.ph == 'B' && ev.name == send_many) {
      ++spans;
      EXPECT_GE(ev.arg, 1u) << "send_many span without its length";
    }
    if (ev.ph == 'i' && ev.name == nack_quota) ++nacks;
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GT(nacks, 0u);
}

TEST(ObsDeterminism, ShardedEngineDigestsIdenticalWithObsOnAndOff) {
  const ScenarioSpec* spec = find_scenario("shard-diurnal");
  ASSERT_NE(spec, nullptr);

  ShardedOptions opts;
  opts.shards = 4;
  opts.population = 256;
  opts.messages = 6000;  // Keep the tier-1 run small.
  const ShardedResult plain = run_sharded(*spec, Backend::kVl, 42, opts);

  obs::Timeline tl;
  obs::Tracer tr;
  obs::RunHooks hooks;
  hooks.timeline = &tl;
  hooks.tracer = &tr;
  ShardedOptions obs_opts = opts;
  obs_opts.obs = &hooks;
  const ShardedResult observed =
      run_sharded(*spec, Backend::kVl, 42, obs_opts);

  // The determinism witness: every shard's event-stream digest unchanged.
  EXPECT_EQ(observed.shard_digests, plain.shard_digests);
  EXPECT_EQ(observed.shard_delivered, plain.shard_delivered);
  EXPECT_EQ(observed.engine.events, plain.engine.events);
  EXPECT_EQ(observed.engine.csv(), plain.engine.csv());
  EXPECT_EQ(observed.epochs, plain.epochs);

  // The timeline is an epoch clock: one sample on every sample_every
  // boundary before the last event, plus the final cumulative sample on
  // that event; the final epoch matches the merged metrics.
  ASSERT_GT(tl.size(), 0u);
  ASSERT_EQ(tl.dropped(), 0u);
  const Tick every = hooks.sample_every;
  const Tick last = observed.engine.metrics.ticks;
  EXPECT_EQ(tl.epochs(), (last - 1) / every + 1);
  for (std::size_t i = 0; i + 1 < tl.size(); ++i)
    EXPECT_EQ(tl.at(i).tick % every, 0u) << "sample " << i;
  EXPECT_EQ(tl.at(tl.size() - 1).tick, last);
  EXPECT_EQ(tl.last("eq.executed"),
            static_cast<double>(observed.engine.events));
  const ClassAgg bulk = find_class(observed.engine.metrics, QosClass::kBulk);
  EXPECT_EQ(tl.last("class.bulk.delivered"),
            static_cast<double>(bulk.agg.delivered));
  EXPECT_EQ(tl.last("class.bulk.p99"), class_p99(observed.engine.metrics,
                                                 QosClass::kBulk));

  // The tracer saw every shard (pids 0..3) plus the barrier lane (pid 4).
  ASSERT_GT(tr.total_events(), 0u);
  EXPECT_GT(tr.buffer(4).size(), 0u);  // barrier epochs traced

  // Device stats merged across shards: the registry snapshot is present
  // and its executed-events gauge agrees with the summed kernel counter.
  EXPECT_EQ(observed.engine.device_stats.get("eq.executed"),
            observed.engine.events);
}

}  // namespace
}  // namespace vl::traffic
