// Lifecycle plane: spec parse/summary round trips, the plane's pure
// (spec, now) queries, reconfig one-shot consumption, and engine-level
// churn — tenants leaving and rejoining mid-run keep the conservation
// identity generated == delivered + dropped exact on every backend, and
// churned runs stay deterministic.

#include "replay/lifecycle.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "traffic/engine.hpp"

namespace vl::replay {
namespace {

TEST(LifecycleSpec, ParseSummaryRoundTrip) {
  const char* text =
      "leave@30000:tenant=bulk;join@45000:tenant=bulk;reconfig@20000";
  const LifecycleSpec s = LifecycleSpec::parse(text);
  ASSERT_EQ(s.events.size(), 3u);
  EXPECT_EQ(s.events[0].kind, LifecycleEvent::Kind::kLeave);
  EXPECT_EQ(s.events[0].at, 30000u);
  EXPECT_EQ(s.events[0].tenant, "bulk");
  EXPECT_EQ(s.events[2].kind, LifecycleEvent::Kind::kReconfig);
  EXPECT_EQ(s.events[2].channel, -1);
  EXPECT_TRUE(s.has_churn());
  EXPECT_TRUE(s.has_reconfig());
  EXPECT_EQ(LifecycleSpec::parse(s.summary()).summary(), s.summary());
}

TEST(LifecycleSpec, ParseChannelScopedReconfig) {
  const LifecycleSpec s = LifecycleSpec::parse("reconfig@500:channel=2");
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].channel, 2);
  EXPECT_FALSE(s.has_churn());
}

TEST(LifecycleSpec, MalformedInputsThrow) {
  EXPECT_THROW(LifecycleSpec::parse("frobnicate@100"), std::invalid_argument);
  EXPECT_THROW(LifecycleSpec::parse("join@"), std::invalid_argument);
  EXPECT_THROW(LifecycleSpec::parse("join@100"), std::invalid_argument);
  EXPECT_THROW(LifecycleSpec::parse("leave@xyz:tenant=a"),
               std::invalid_argument);
}

TEST(LifecycleSpec, BadIntegersThrowNamingTheClause) {
  // Each used to parse silently: channel=abc as channel 0, channel=-5 as
  // "every channel", and the oversized tick clamped to 2^64-1.
  for (const std::string clause :
       {"reconfig@20000:channel=abc", "reconfig@20000:channel=-5",
        "leave@99999999999999999999999:tenant=bulk",
        "reconfig@1:channel=2147483648", "leave@5+10:tenant=bulk"}) {
    try {
      LifecycleSpec::parse("join@1:tenant=a; " + clause);
      ADD_FAILURE() << "accepted: " << clause;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + clause + "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(LifecycleSpec::parse("reconfig@281474976710655:channel=2147483647")
                .summary(),
            "reconfig@281474976710655:channel=2147483647");
}

TEST(LifecyclePlane, WindowsAndNextActive) {
  const LifecycleSpec s =
      LifecycleSpec::parse("leave@100:tenant=a;join@300:tenant=a");
  const LifecyclePlane p(s, {"a", "b"});
  // Tenant a: active, inactive over [100, 300), active again.
  EXPECT_EQ(p.next_active(0, 0), 0u);
  EXPECT_EQ(p.next_active(0, 100), 300u);
  EXPECT_EQ(p.next_active(0, 299), 300u);
  EXPECT_EQ(p.next_active(0, 300), 0u);
  EXPECT_TRUE(p.tenant_has_events(0));
  // Tenant b has no events: always active, skips the per-lap check.
  EXPECT_EQ(p.next_active(1, 12345), 0u);
  EXPECT_FALSE(p.tenant_has_events(1));
  // Active-tenant census around the boundaries.
  EXPECT_TRUE(p.tenant_active_at(0, 0));
  EXPECT_FALSE(p.tenant_active_at(0, 150));
  EXPECT_TRUE(p.tenant_active_at(0, 300));
  ASSERT_EQ(p.churn_boundaries().size(), 2u);
  EXPECT_EQ(p.churn_boundaries()[0], 100u);
  EXPECT_EQ(p.churn_boundaries()[1], 300u);
}

TEST(LifecyclePlane, FirstEventJoinStartsInactive) {
  const LifecycleSpec s = LifecycleSpec::parse("join@500:tenant=late");
  const LifecyclePlane p(s, {"late"});
  EXPECT_EQ(p.next_active(0, 0), 500u);
  EXPECT_EQ(p.next_active(0, 500), 0u);
}

TEST(LifecyclePlane, LeaveWithNoRejoinForfeitsForever) {
  const LifecycleSpec s = LifecycleSpec::parse("leave@100:tenant=a");
  const LifecyclePlane p(s, {"a"});
  EXPECT_EQ(p.next_active(0, 100), LifecyclePlane::kNever);
}

TEST(LifecyclePlane, ReconfigFiresOncePerChannel) {
  const LifecycleSpec s = LifecycleSpec::parse("reconfig@100");
  LifecyclePlane p(s, {"a"});
  EXPECT_FALSE(p.take_reconfig(0, 50));  // not due yet
  EXPECT_TRUE(p.take_reconfig(0, 100));
  EXPECT_FALSE(p.take_reconfig(0, 200));  // wildcard: once per channel
  EXPECT_TRUE(p.take_reconfig(1, 200));   // other channels still due
  EXPECT_FALSE(p.take_reconfig(1, 300));

  LifecyclePlane named(LifecycleSpec::parse("reconfig@100:channel=1"), {"a"});
  EXPECT_FALSE(named.take_reconfig(0, 200));  // wrong channel
  EXPECT_TRUE(named.take_reconfig(1, 200));
  EXPECT_FALSE(named.take_reconfig(1, 300));  // named event fires once
}

// --- engine-level churn ------------------------------------------------------

TEST(LifecycleEngine, ChurnConservesOnEveryBackend) {
  using squeue::Backend;
  for (Backend b : {Backend::kBlfq, Backend::kZmq, Backend::kVl,
                    Backend::kVlIdeal, Backend::kCaf}) {
    traffic::ScenarioSpec spec = *traffic::find_scenario("qos-incast");
    spec.supervisor = false;
    spec.lifecycle =
        LifecycleSpec::parse("leave@30000:tenant=bulk;join@45000:tenant=bulk");
    const traffic::EngineResult r = traffic::run_spec(spec, b, 42);
    for (const traffic::TenantMetrics& t : r.metrics.tenants) {
      EXPECT_EQ(t.generated, t.delivered + t.dropped)
          << squeue::to_string(b) << "/" << t.tenant;
      EXPECT_GT(t.delivered, 0u) << squeue::to_string(b) << "/" << t.tenant;
    }
  }
}

TEST(LifecycleEngine, ChurnedRunIsDeterministic) {
  traffic::ScenarioSpec spec = *traffic::find_scenario("qos-incast");
  spec.supervisor = false;
  spec.lifecycle =
      LifecycleSpec::parse("leave@30000:tenant=bulk;join@45000:tenant=bulk");
  const traffic::EngineResult a = traffic::run_spec(spec, squeue::Backend::kVl, 42);
  const traffic::EngineResult b = traffic::run_spec(spec, squeue::Backend::kVl, 42);
  EXPECT_EQ(a.csv(), b.csv());
}

TEST(LifecycleEngine, UnknownTenantThrows) {
  traffic::ScenarioSpec spec = *traffic::find_scenario("qos-incast");
  spec.lifecycle = LifecycleSpec::parse("leave@100:tenant=nosuch");
  EXPECT_THROW(traffic::run_spec(spec, squeue::Backend::kVl, 42),
               std::invalid_argument);
}

TEST(LifecycleEngine, ReconfigRejectedOffTheVlBackends) {
  traffic::ScenarioSpec spec = *traffic::find_scenario("qos-incast");
  spec.lifecycle = LifecycleSpec::parse("reconfig@20000");
  EXPECT_THROW(traffic::run_spec(spec, squeue::Backend::kZmq, 42),
               std::invalid_argument);
  EXPECT_THROW(traffic::run_spec(spec, squeue::Backend::kCaf, 42),
               std::invalid_argument);
}

}  // namespace
}  // namespace vl::replay
