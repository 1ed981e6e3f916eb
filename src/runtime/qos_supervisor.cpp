#include "runtime/qos_supervisor.hpp"

#include <algorithm>
#include <cmath>

#include "squeue/caf.hpp"
#include "vlrd/cluster.hpp"

namespace vl::runtime {

QuotaPlan size_quotas(const sim::SystemConfig& cfg, const ChannelDemand& d) {
  QuotaPlan plan;
  if (d.relay_channels > 0)
    plan.per_sqi_quota =
        std::max(1u, (cfg.vlrd.prod_entries - 1) / d.relay_channels);
  if (d.qos) {
    double sum = 0.0;
    for (std::size_t c = 0; c < kQosClasses; ++c) sum += d.weights[c];
    const std::uint32_t sqis = std::max(d.payload_sqis, 1u);
    const std::uint32_t vl_budget = cfg.vlrd.prod_entries - 1;
    const std::uint32_t caf_budget = cfg.caf.credits_per_queue;
    for (std::size_t c = 0; c < kQosClasses; ++c) {
      if (d.weights[c] > 0.0 && sum > 0.0) {
        // All operands are far below 2^26, so these products and quotients
        // are exact in double; std::floor therefore reproduces the historic
        // integer division bit-for-bit when the weights are integral.
        plan.vl_class_quota[c] = std::max(
            1u, static_cast<std::uint32_t>(
                    std::floor(vl_budget * d.weights[c] / (sum * sqis))));
        plan.caf_class_credits[c] = std::max(
            1u, static_cast<std::uint32_t>(
                    std::floor(caf_budget * d.weights[c] / sum)));
      } else {
        plan.vl_class_quota[c] = 1;
        plan.caf_class_credits[c] = 1;
      }
    }
  }
  return plan;
}

void base_weights(ChannelDemand& d, const bool present[kQosClasses]) {
  for (std::size_t c = 0; c < kQosClasses; ++c)
    d.weights[c] =
        present[c] ? static_cast<double>(qos_weight(static_cast<QosClass>(c)))
                   : 0.0;
}

QosSupervisor::QosSupervisor(const Config& cfg, const bool present[kQosClasses])
    : cfg_(cfg) {
  for (std::size_t c = 0; c < kQosClasses; ++c) {
    present_[c] = present[c];
    base_[c] = present[c]
                   ? static_cast<double>(qos_weight(static_cast<QosClass>(c)))
                   : 0.0;
    w_[c] = base_[c];
  }
}

void QosSupervisor::attach(const sim::SystemConfig& syscfg,
                           const ChannelDemand& demand, vlrd::Cluster* vl,
                           squeue::CafDevice* caf) {
  actuators_.push_back(Actuator{syscfg, demand, vl, caf});
}

void QosSupervisor::register_series(obs::Timeline& tl) {
  for (std::size_t c = 0; c < kQosClasses; ++c)
    tl.add_series(std::string("sup.weight.") +
                      to_string(static_cast<QosClass>(c)),
                  [this, c] { return w_[c]; });
  tl.add_series("sup.violations",
                [this] { return static_cast<double>(violations_); });
  tl.add_series("sup.decreases",
                [this] { return static_cast<double>(decreases_); });
  tl.add_series("sup.increases",
                [this] { return static_cast<double>(increases_); });
}

void QosSupervisor::actuate() {
  for (auto& a : actuators_) {
    if (!a.demand.qos) continue;
    ChannelDemand d = a.demand;
    for (std::size_t c = 0; c < kQosClasses; ++c)
      d.weights[c] = present_[c] ? w_[c] : 0.0;
    const QuotaPlan p = size_quotas(a.cfg, d);
    // The latency class's weight never moves, so its row re-applies
    // unchanged — a no-op on both knob paths.
    for (std::size_t c = 0; c < kQosClasses; ++c) {
      if (a.vl)
        a.vl->set_class_quota(static_cast<QosClass>(c), p.vl_class_quota[c]);
      if (a.caf)
        a.caf->set_class_credit(static_cast<QosClass>(c),
                                p.caf_class_credits[c]);
    }
  }
}

void QosSupervisor::on_epoch(const LatencyCounters& c) {
  ++epochs_;
  // Integer counts below 2^53: exact as doubles.
  const auto delivered = static_cast<double>(c.delivered);
  const auto within = static_cast<double>(c.slo_within);
  const auto blocked = static_cast<double>(c.blocked_ticks);
  const double d_del = delivered - prev_delivered_;
  const double d_within = within - prev_within_;
  const double d_blocked = blocked - prev_blocked_;
  prev_delivered_ = delivered;
  prev_within_ = within;
  prev_blocked_ = blocked;

  // Accumulate deliveries until the window is judgeable: low-rate latency
  // traffic then yields a verdict every few epochs instead of never
  // clearing the min_window bar within any single epoch.
  acc_del_ += d_del;
  acc_within_ += d_within;
  bool violation = false;
  bool panic = false;
  if (acc_del_ >= static_cast<double>(cfg_.min_window)) {
    const double att_pct = 100.0 * acc_within_ / acc_del_;
    if (att_pct + 1e-9 < cfg_.slo_target_pct) violation = true;
    if (att_pct < cfg_.panic_frac * cfg_.slo_target_pct) panic = true;
    acc_del_ = acc_within_ = 0.0;
  }
  // Blocked-ticks spike: sudden queueing ahead of the latency class is a
  // leading indicator — react before the attainment window even closes.
  if (!violation && epochs_ > 1 && blocked_ewma_ >= 1.0 &&
      d_blocked > cfg_.blocked_spike * blocked_ewma_)
    violation = true;
  blocked_ewma_ = epochs_ == 1 ? d_blocked
                               : (3.0 * blocked_ewma_ + d_blocked) / 4.0;

  if (violation) {
    ++violations_;
    clean_epochs_ = 0;
    // Multiplicative decrease, bulk first; standard only once bulk is
    // already pinned at its floor. The latency class is never touched.
    // In panic (attainment far below target) every adjustable class drops
    // straight to its floor — a deep breach is unambiguous and needs
    // one-epoch convergence, not one class step per epoch.
    bool changed = false;
    for (QosClass cls : {QosClass::kBulk, QosClass::kStandard}) {
      const auto c = static_cast<std::size_t>(cls);
      if (!present_[c]) continue;
      const double fl = cfg_.floor * base_[c];
      if (w_[c] > fl + 1e-12) {
        w_[c] = panic ? fl : std::max(fl, w_[c] * cfg_.decrease);
        changed = true;
        if (!panic) break;
      }
    }
    if (changed) {
      ++decreases_;
      actuate();
    }
  } else if (++clean_epochs_ >= cfg_.recovery_epochs) {
    clean_epochs_ = 0;
    // Probe capacity back one class at a time, standard before bulk, so
    // a failed probe costs a single shallow dip.
    bool changed = false;
    for (QosClass cls : {QosClass::kStandard, QosClass::kBulk}) {
      const auto c = static_cast<std::size_t>(cls);
      if (!present_[c] || w_[c] >= base_[c] - 1e-12) continue;
      w_[c] = std::min(base_[c], w_[c] + cfg_.increase * base_[c]);
      changed = true;
      break;
    }
    if (changed) {
      ++increases_;
      actuate();
    }
  }
}

}  // namespace vl::runtime
