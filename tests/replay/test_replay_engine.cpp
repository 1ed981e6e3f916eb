// Record/replay through the traffic engine: a recorded run replayed on
// the same cell reproduces per-tenant counts exactly (the trace is the
// post-shed stream) and the latency distribution tick-for-tick; replay is
// deterministic; re-recording a replay reproduces the trace; send-boundary
// loss applies to a replayed stream; shape and single-node vs mesh
// mismatches, and clauses that shape live arrivals, throw instead of
// replaying garbage.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fault/spec.hpp"
#include "obs/hooks.hpp"
#include "replay/lifecycle.hpp"
#include "replay/trace.hpp"
#include "traffic/engine.hpp"
#include "traffic/sharded_engine.hpp"

namespace vl::traffic {
namespace {

using squeue::Backend;

/// Record `scenario` on `backend` and return (recorded result, trace).
struct Recorded {
  EngineResult result;
  replay::Trace trace;
};

Recorded record(const std::string& scenario, Backend b, std::uint64_t seed) {
  ScenarioSpec spec = *find_scenario(scenario);
  spec.supervisor = false;
  replay::TraceRecorder rec;
  obs::RunHooks hooks;
  hooks.recorder = &rec;
  EngineResult r = run_spec(spec, b, seed, /*scale=*/1, &hooks);
  return {std::move(r), rec.finish()};
}

EngineResult replay(const std::string& scenario, Backend b,
                    const replay::Trace& t, std::uint64_t seed) {
  ScenarioSpec spec = *find_scenario(scenario);
  spec.supervisor = false;
  spec.replay = &t;
  return run_spec(spec, b, seed);
}

TEST(ReplayEngine, ReproducesRecordedRunExactly) {
  for (Backend b : {Backend::kVl, Backend::kCaf}) {
    const Recorded rec = record("qos-incast", b, 42);
    ASSERT_FALSE(rec.trace.empty());
    EXPECT_EQ(rec.trace.records.size(),
              static_cast<std::size_t>(rec.result.metrics.total_delivered()));

    const EngineResult rep = replay("qos-incast", b, rec.trace, 42);
    ASSERT_EQ(rep.metrics.tenants.size(), rec.result.metrics.tenants.size());
    for (std::size_t i = 0; i < rep.metrics.tenants.size(); ++i) {
      const TenantMetrics& a = rec.result.metrics.tenants[i];
      const TenantMetrics& r = rep.metrics.tenants[i];
      EXPECT_EQ(r.delivered, a.delivered) << a.tenant;
      EXPECT_EQ(r.sent, a.sent) << a.tenant;
      // Same backend, same pacing: the latency distribution reproduces
      // tick-for-tick, far inside the headline 5% tolerance.
      EXPECT_EQ(r.latency.percentile(99), a.latency.percentile(99))
          << a.tenant;
    }
  }
}

TEST(ReplayEngine, ReplayIsDeterministic) {
  const Recorded rec = record("qos-incast", Backend::kVl, 7);
  const EngineResult a = replay("qos-incast", Backend::kVl, rec.trace, 7);
  const EngineResult b = replay("qos-incast", Backend::kVl, rec.trace, 7);
  EXPECT_EQ(a.csv(), b.csv());
}

TEST(ReplayEngine, ReRecordingAReplayReproducesTheTrace) {
  const Recorded rec = record("qos-incast", Backend::kVl, 42);
  ScenarioSpec spec = *find_scenario("qos-incast");
  spec.supervisor = false;
  spec.replay = &rec.trace;
  replay::TraceRecorder rerec;
  obs::RunHooks hooks;
  hooks.recorder = &rerec;
  (void)run_spec(spec, Backend::kVl, 42, 1, &hooks);
  EXPECT_EQ(rerec.finish().records, rec.trace.records);
}

TEST(ReplayEngine, ForeignBackendReplayConservesEveryRecord) {
  // The trace is the post-shed stream: replayed on a different backend,
  // every recorded copy must still be delivered (channels are lossless).
  const Recorded rec = record("qos-incast", Backend::kVl, 42);
  for (Backend b :
       {Backend::kBlfq, Backend::kZmq, Backend::kVlIdeal, Backend::kCaf}) {
    const EngineResult rep = replay("qos-incast", b, rec.trace, 42);
    EXPECT_EQ(rep.metrics.total_delivered(),
              static_cast<std::uint64_t>(rec.trace.records.size()))
        << squeue::to_string(b);
    for (const TenantMetrics& t : rep.metrics.tenants)
      EXPECT_EQ(t.dropped, 0u) << t.tenant;
  }
}

TEST(ReplayEngine, ChannelLossAppliesToAReplayedStream) {
  const Recorded rec = record("qos-incast", Backend::kVl, 42);
  ScenarioSpec spec = *find_scenario("qos-incast");
  spec.supervisor = false;
  spec.replay = &rec.trace;
  spec.faults = fault::FaultSpec::parse("loss@0+10000000:every=4");
  const EngineResult r = run_spec(spec, Backend::kVl, 42);
  std::uint64_t dropped = 0;
  for (const TenantMetrics& t : r.metrics.tenants) dropped += t.dropped;
  EXPECT_GT(dropped, 0u);
  // Every record is either delivered or lost at the send boundary.
  EXPECT_EQ(r.metrics.total_delivered() + dropped,
            static_cast<std::uint64_t>(rec.trace.records.size()));
}

TEST(ReplayEngine, ArrivalShapingClausesThrowNamingTheClause) {
  // A trace is the post-shed, post-churn stream: flash crowds and
  // joins/leaves already acted on its ticks, so a replay that names one is
  // refused rather than run without it.
  const Recorded rec = record("qos-incast", Backend::kVl, 42);
  ScenarioSpec spec = *find_scenario("qos-incast");
  spec.supervisor = false;
  spec.replay = &rec.trace;
  auto refusal = [&spec](const char* faults, const char* churn) {
    ScenarioSpec s = spec;
    s.faults = fault::FaultSpec::parse(faults);
    s.lifecycle = replay::LifecycleSpec::parse(churn);
    try {
      (void)run_spec(s, Backend::kVl, 42);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("ran");
  };
  EXPECT_NE(refusal("flash@0+50000:factor=0.5", "").find("flash@"),
            std::string::npos);
  EXPECT_NE(refusal("", "join@20000:tenant=bulk").find("join@"),
            std::string::npos);
  EXPECT_NE(refusal("", "leave@20000:tenant=bulk").find("leave@"),
            std::string::npos);
  // SQI re-registration acts on the consumer, not on arrivals: it replays.
  EXPECT_EQ(refusal("", "reconfig@20000"), "ran");
}

TEST(ReplayEngine, ShapeMismatchThrows) {
  const Recorded rec = record("qos-incast", Backend::kVl, 42);
  ScenarioSpec other = *find_scenario("incast-burst");  // different shape
  other.supervisor = false;
  other.replay = &rec.trace;
  EXPECT_THROW(run_spec(other, Backend::kVl, 42), std::invalid_argument);
}

TEST(ReplayEngine, EngineKindMismatchThrows) {
  replay::Trace t;
  t.scenario = "shard-diurnal";
  t.sharded = true;  // recorded on a shard mesh
  t.producers = 8;
  t.tenants = 3;
  ScenarioSpec spec = *find_scenario("qos-incast");
  spec.replay = &t;
  EXPECT_THROW(run_spec(spec, Backend::kVl, 42), std::invalid_argument);
}

TEST(ReplayEngine, ShardedRecordReplayRoundTrip) {
  ShardedOptions opts;
  opts.shards = 2;
  opts.population = 4000;
  opts.messages = 2048;
  replay::TraceRecorder rec;
  obs::RunHooks hooks;
  hooks.recorder = &rec;
  ShardedOptions ropts = opts;
  ropts.obs = &hooks;
  const ScenarioSpec spec = *find_scenario("shard-diurnal");
  const auto recorded = run_sharded(spec, Backend::kVl, 42, ropts);
  const replay::Trace trace = rec.finish();
  ASSERT_TRUE(trace.sharded);
  ASSERT_FALSE(trace.empty());

  ScenarioSpec rspec = spec;
  rspec.replay = &trace;
  const auto replayed = run_sharded(rspec, Backend::kVl, 42, opts);
  EXPECT_EQ(replayed.engine.metrics.total_delivered(),
            recorded.engine.metrics.total_delivered());

  // A single-node replay of a mesh trace must be rejected.
  ScenarioSpec classic = *find_scenario("qos-incast");
  classic.replay = &trace;
  EXPECT_THROW(run_spec(classic, Backend::kVl, 42), std::invalid_argument);
}

}  // namespace
}  // namespace vl::traffic
