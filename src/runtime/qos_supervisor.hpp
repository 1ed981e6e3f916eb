#pragma once
// Closed-loop QoS supervision: quota auto-sizing + AIMD re-weighting.
//
// Two pieces, deliberately decoupled from the data path (the sonic-swss
// orchagent shape: a control daemon that reads counter tables and writes
// config state, never touching packets):
//
//   * size_quotas() — the one quota-sizing policy. Given a SystemConfig
//     and a ChannelDemand (the channel graph summarized to what sizing
//     needs: relay-cycle channel count, payload SQIs per device, per-class
//     weights), it carves the hardware enqueue budgets: VLRD per-SQI
//     prodBuf quotas, VLRD per-class quotas, CAF per-class credit caps.
//     traffic::machine_config_for, workloads::run, and the supervisor all
//     call this one function, so the initial static carve and every online
//     re-carve are the same arithmetic — there is no second hand-carved
//     table to drift out of sync.
//
//   * QosSupervisor — the closed loop. Invoked at epoch boundaries (a
//     single node's sampling loop, a shard mesh's lookahead
//     barrier — both between event-queue steps, where knob mutation is
//     safe by construction), it reads the latency class's cumulative
//     counters (windowed SLO attainment, blocked-ticks trend) and
//     AIMD-adjusts the class weights: multiplicative decrease of the
//     bulk-side weights when the latency class misses its windowed SLO
//     target or its blocked_ticks spike, additive increase back toward the
//     base weights after consecutive clean epochs. Each adjustment re-runs
//     size_quotas() per attached machine and actuates via the
//     epoch-boundary-safe knobs (Cluster::set_class_quota,
//     CafDevice::set_class_credit).
//
// The supervisor reads *only* three cumulative counters of the latency
// class — delivered, slo_within and blocked_ticks, summed over every
// node's latency-class tenant rows by the caller — so its decisions are a
// pure function of those counts at each boundary: deterministic across
// runs and across sequential/threaded sharded stepping.

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "obs/timeline.hpp"
#include "sim/config.hpp"

namespace vl::vlrd {
class Cluster;
}
namespace vl::squeue {
class CafDevice;
}

namespace vl::runtime {

/// The channel graph summarized to what quota sizing needs.
struct ChannelDemand {
  /// Channels alive in a produce-while-consume cycle (pipeline relays,
  /// closed-loop acks, chained kernel stages) sharing one prodBuf;
  /// 0 = no relay cycle, leave the per-SQI quota unbounded.
  std::uint32_t relay_channels = 0;
  /// Payload SQIs per routing device (the per-class carve divisor on VL:
  /// quotas guard each device's own prodBuf).
  std::uint32_t payload_sqis = 1;
  /// Apply the per-class carve at all?
  bool qos = false;
  /// Per-class weights; 0 = class absent (gets a token quota of 1 so
  /// stray untagged messages — termination pills — still flow).
  double weights[kQosClasses] = {0.0, 0.0, 0.0};
};

/// The carved budgets. Fields are only meaningful where the corresponding
/// demand asked for them (per_sqi_quota when relay_channels > 0, class
/// rows when qos).
struct QuotaPlan {
  std::uint32_t per_sqi_quota = 0;  ///< 0 = unbounded.
  std::uint32_t vl_class_quota[kQosClasses] = {1, 1, 1};
  std::uint32_t caf_class_credits[kQosClasses] = {1, 1, 1};
};

/// Carve `cfg`'s enqueue budgets for `d`. Pure function; with integral
/// weights it reproduces the historic hand-carved tables bit-for-bit
/// (integer truncation and double flooring agree on these magnitudes).
QuotaPlan size_quotas(const sim::SystemConfig& cfg, const ChannelDemand& d);

/// Base AIMD weights for a demand: qos_weight() for present classes.
void base_weights(ChannelDemand& d, const bool present[kQosClasses]);

/// The latency class's cumulative counters at an epoch boundary, summed
/// over every node's latency-class tenant rows (all zero when the class is
/// absent).
struct LatencyCounters {
  std::uint64_t delivered = 0;
  std::uint64_t slo_within = 0;  ///< Deliveries within the tenant's SLO.
  std::uint64_t blocked_ticks = 0;
};

class QosSupervisor {
 public:
  struct Config {
    /// Windowed latency-class SLO attainment target (percent).
    double slo_target_pct = 95.0;
    /// Multiplicative decrease applied to bulk-side weights on violation.
    double decrease = 0.5;
    /// Additive recovery step per clean epoch run, as a fraction of the
    /// class's base weight. One class per step (standard first, bulk
    /// last), so a probe that turns out too aggressive costs one shallow
    /// dip instead of a compound overshoot.
    double increase = 0.125;
    /// Weight floor as a fraction of the base weight (never starve a
    /// class to zero — its producers must keep draining).
    double floor = 0.125;
    /// Minimum latency-class deliveries in a window to judge it (smaller
    /// windows are noise, not evidence).
    std::uint64_t min_window = 8;
    /// Blocked-ticks spike threshold: violation when the latency class's
    /// per-epoch blocked delta exceeds this multiple of its EWMA.
    double blocked_spike = 8.0;
    /// Clean epochs required before an additive-increase step.
    int recovery_epochs = 8;
    /// Panic threshold: when windowed attainment is below this fraction
    /// of the target, every adjustable class drops straight to its floor
    /// in the same epoch (convergence in one epoch instead of one class
    /// step per epoch — the difference between losing 3% and 10% of a
    /// run's latency traffic to the transient).
    double panic_frac = 0.5;
  };

  /// `present[c]`: which classes the workload uses (absent classes keep
  /// their token quota and are never adjusted).
  QosSupervisor(const Config& cfg, const bool present[kQosClasses]);

  /// Attach one machine's actuators. `vl`/`caf` may each be null (the
  /// machine's backend decides which knob is live); `syscfg`/`demand` are
  /// that machine's sizing inputs — per-shard machines differ.
  void attach(const sim::SystemConfig& syscfg, const ChannelDemand& demand,
              vlrd::Cluster* vl, squeue::CafDevice* caf);

  /// Publish the decision series ("sup.weight.<class>", "sup.decreases",
  /// "sup.increases", "sup.violations") — the --timeline export of every
  /// per-epoch weight vector.
  void register_series(obs::Timeline& tl);

  /// One control epoch: difference `c` against the previous epoch's
  /// counters, decide, and actuate on change. Call only between
  /// event-queue steps / at the sharded barrier.
  void on_epoch(const LatencyCounters& c);

  double weight(QosClass c) const {
    return w_[static_cast<std::size_t>(c)];
  }
  std::uint64_t decreases() const { return decreases_; }
  std::uint64_t increases() const { return increases_; }
  std::uint64_t violations() const { return violations_; }

 private:
  /// Apply the current weights to every attached machine (on_epoch calls
  /// it on every weight change).
  void actuate();

  struct Actuator {
    sim::SystemConfig cfg;
    ChannelDemand demand;
    vlrd::Cluster* vl = nullptr;
    squeue::CafDevice* caf = nullptr;
  };

  Config cfg_;
  bool present_[kQosClasses] = {false, false, false};
  double base_[kQosClasses] = {0, 0, 0};
  double w_[kQosClasses] = {0, 0, 0};
  std::vector<Actuator> actuators_;

  // Previous-epoch cumulative readings (windowed deltas).
  double prev_delivered_ = 0, prev_within_ = 0, prev_blocked_ = 0;
  double acc_del_ = 0, acc_within_ = 0;  // pending (unjudged) window
  double blocked_ewma_ = 0;
  int clean_epochs_ = 0;
  std::uint64_t decreases_ = 0, increases_ = 0, violations_ = 0;
  std::uint64_t epochs_ = 0;
};

}  // namespace vl::runtime
