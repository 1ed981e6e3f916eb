// Closed-loop QoS supervision: size_quotas() reproducing the hand-carved
// tables, the AIMD decision rules (windowed violation, panic-to-floor,
// probing recovery) against synthetic counters, and the end-to-end
// payoff — the supervisor must beat static quotas on the adversarial-bulk
// flood's latency-class SLO attainment.

#include "runtime/qos_supervisor.hpp"

#include <gtest/gtest.h>

#include "squeue/factory.hpp"
#include "traffic/engine.hpp"
#include "traffic/scenario.hpp"

namespace vl::runtime {
namespace {

TEST(SizeQuotas, ReproducesTheRelayCarve) {
  const sim::SystemConfig cfg = squeue::config_for(squeue::Backend::kVl);
  ChannelDemand d;
  d.relay_channels = 31;  // the historic FIR channel count
  const QuotaPlan p = size_quotas(cfg, d);
  EXPECT_EQ(p.per_sqi_quota,
            std::max(1u, (cfg.vlrd.prod_entries - 1) / 31u));
  // No qos demand: class rows stay at the token quota.
  EXPECT_EQ(p.vl_class_quota[0], 1u);
}

TEST(SizeQuotas, ReproducesTheClassCarve) {
  const sim::SystemConfig cfg = squeue::config_for(squeue::Backend::kVl);
  ChannelDemand d;
  d.qos = true;
  const bool present[kQosClasses] = {true, true, true};
  base_weights(d, present);
  const QuotaPlan p = size_quotas(cfg, d);

  const std::uint32_t budget = cfg.vlrd.prod_entries - 1;
  const std::uint32_t wsum = qos_weight(QosClass::kStandard) +
                             qos_weight(QosClass::kLatency) +
                             qos_weight(QosClass::kBulk);
  for (QosClass c : {QosClass::kStandard, QosClass::kLatency,
                     QosClass::kBulk}) {
    const auto i = static_cast<std::size_t>(c);
    EXPECT_EQ(p.vl_class_quota[i],
              std::max(1u, budget * qos_weight(c) / wsum))
        << to_string(c);
    EXPECT_EQ(p.caf_class_credits[i],
              std::max(1u, cfg.caf.credits_per_queue * qos_weight(c) / wsum))
        << to_string(c);
  }

  // Absent classes keep the token quota.
  ChannelDemand partial;
  partial.qos = true;
  const bool only_lat[kQosClasses] = {false, true, false};
  base_weights(partial, only_lat);
  const QuotaPlan q = size_quotas(cfg, partial);
  EXPECT_EQ(q.vl_class_quota[static_cast<std::size_t>(QosClass::kStandard)],
            1u);
  EXPECT_GT(q.vl_class_quota[static_cast<std::size_t>(QosClass::kLatency)],
            1u);
}

// Drives on_epoch() with hand-rolled cumulative latency-class counters
// (delivered / slo_within / blocked_ticks) the test scripts epoch by epoch.
struct SupervisorHarness {
  LatencyCounters c;

  /// One epoch in which `n` latency messages arrive, `good` of them within
  /// budget.
  void epoch(QosSupervisor& sup, std::uint64_t n, std::uint64_t good,
             std::uint64_t dblocked = 0) {
    c.delivered += n;
    c.slo_within += good;
    c.blocked_ticks += dblocked;
    sup.on_epoch(c);
  }
};

const bool kAll[kQosClasses] = {true, true, true};

TEST(QosSupervisor, PanicDropsBulkSideWeightsToTheFloorInOneEpoch) {
  QosSupervisor::Config cfg;
  cfg.min_window = 8;
  QosSupervisor sup(cfg, kAll);
  SupervisorHarness h;

  EXPECT_DOUBLE_EQ(sup.weight(QosClass::kBulk), 1.0);
  h.epoch(sup, 20, 0);  // 0% attainment, window judgeable: panic
  EXPECT_EQ(sup.violations(), 1u);
  EXPECT_DOUBLE_EQ(sup.weight(QosClass::kBulk), cfg.floor * 1.0);
  EXPECT_DOUBLE_EQ(sup.weight(QosClass::kStandard), cfg.floor * 2.0);
  EXPECT_DOUBLE_EQ(sup.weight(QosClass::kLatency), 4.0);  // never touched
}

TEST(QosSupervisor, MarginalMissStepsOneClassAtATime) {
  QosSupervisor::Config cfg;
  cfg.min_window = 8;
  QosSupervisor sup(cfg, kAll);
  SupervisorHarness h;

  h.epoch(sup, 20, 18);  // 90% < 95% target but above panic threshold
  EXPECT_EQ(sup.violations(), 1u);
  EXPECT_DOUBLE_EQ(sup.weight(QosClass::kBulk), 0.5);   // one MD step
  EXPECT_DOUBLE_EQ(sup.weight(QosClass::kStandard), 2.0);  // untouched
}

TEST(QosSupervisor, SmallWindowsAccumulateUntilJudgeable) {
  QosSupervisor::Config cfg;
  cfg.min_window = 8;
  QosSupervisor sup(cfg, kAll);
  SupervisorHarness h;

  h.epoch(sup, 3, 0);  // 3 deliveries: below min_window, no verdict yet
  EXPECT_EQ(sup.violations(), 0u);
  h.epoch(sup, 3, 0);
  EXPECT_EQ(sup.violations(), 0u);
  h.epoch(sup, 3, 0);  // accumulated window of 9 >= 8: verdict fires
  EXPECT_EQ(sup.violations(), 1u);
}

TEST(QosSupervisor, RecoveryProbesOneClassPerCleanStreak) {
  QosSupervisor::Config cfg;
  cfg.min_window = 8;
  cfg.recovery_epochs = 2;
  QosSupervisor sup(cfg, kAll);
  SupervisorHarness h;

  h.epoch(sup, 20, 0);  // panic: both classes at floor
  const double std_floor = sup.weight(QosClass::kStandard);
  const double bulk_floor = sup.weight(QosClass::kBulk);

  h.epoch(sup, 20, 20);  // clean
  h.epoch(sup, 20, 20);  // clean streak reaches recovery_epochs
  EXPECT_EQ(sup.increases(), 1u);
  EXPECT_GT(sup.weight(QosClass::kStandard), std_floor);  // standard first
  EXPECT_DOUBLE_EQ(sup.weight(QosClass::kBulk), bulk_floor);
}

TEST(QosSupervisor, BlockedTicksSpikeIsALeadingIndicator) {
  QosSupervisor::Config cfg;
  cfg.min_window = 1000000;  // attainment path disabled for this test
  cfg.blocked_spike = 4.0;
  QosSupervisor sup(cfg, kAll);
  SupervisorHarness h;

  h.epoch(sup, 0, 0, 100);  // seeds the EWMA
  h.epoch(sup, 0, 0, 110);
  EXPECT_EQ(sup.violations(), 0u);
  h.epoch(sup, 0, 0, 5000);  // >> 4x EWMA: spike
  EXPECT_EQ(sup.violations(), 1u);
  EXPECT_LT(sup.weight(QosClass::kBulk), 1.0);
}

TEST(QosSupervisor, SupervisorBeatsStaticQuotasOnAdversarialBulk) {
  using traffic::find_scenario;
  const traffic::ScenarioSpec* spec = find_scenario("qos-adversarial-bulk");
  ASSERT_NE(spec, nullptr);
  ASSERT_TRUE(spec->supervisor);  // preset default: closed loop on

  traffic::ScenarioSpec off = *spec;
  off.supervisor = false;

  const auto on_r = traffic::run_spec(*spec, squeue::Backend::kVl, 42);
  const auto off_r = traffic::run_spec(off, squeue::Backend::kVl, 42);

  double att_on = -1, att_off = -1;
  for (const auto& c : on_r.metrics.by_class())
    if (c.cls == QosClass::kLatency) att_on = c.slo_attained_pct();
  for (const auto& c : off_r.metrics.by_class())
    if (c.cls == QosClass::kLatency) att_off = c.slo_attained_pct();

  // The closed loop must hold the SLO the static carve measurably fails.
  EXPECT_GE(att_on, 90.0);
  EXPECT_LT(att_off, 50.0);
  EXPECT_GT(att_on, att_off + 30.0);
}

}  // namespace
}  // namespace vl::runtime
