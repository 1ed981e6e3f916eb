#pragma once
// Deterministic fault-injection plane.
//
// A FaultPlane turns a FaultSpec into live faults without breaking the
// simulator's determinism contract. Every injection mechanism rides the
// existing (tick, seq) machinery:
//
//   * device stalls   — ordinary events scheduled on the target machine's
//                       EventQueue before the run starts pause/resume the
//                       VLRD injectors (Vlrd::set_injector_stalled). The
//                       injector finishes its in-flight line, then parks;
//                       producers back-pressure through the normal NACK /
//                       park paths, so no message is ever lost — a stall
//                       window is a pure latency event.
//   * link faults     — per-link extra latency and down flags on the
//                       ShardedSim, applied ONLY at the lookahead barrier
//                       (apply_links from the BarrierHook): each epoch sees
//                       one immutable link table, which keeps fault runs
//                       byte-identical between sequential and threaded
//                       stepping.
//   * channel loss/dup— the traffic engine consults chan_copies() at the
//                       send boundary (before a message joins its
//                       sub-batch), on every backend. Mutating
//                       the batch *before* it is counted keeps the pill
//                       drain counts and the conservation identity
//                       (generated == delivered + dropped) exact.
//   * flash crowds    — scale_gap() rescales a producer's arrival gap as a
//                       pure function of (shard, class, tick), so the load
//                       mutation is deterministic and seed-independent.
//
// All mutable state is per-shard (ordinal counters, fault counters), so
// threaded shard stepping races on nothing. Activations surface three
// ways: owned obs::Registry counters on each machine ("fault.*"), optional
// obs::Timeline series (register_series), and obs::Tracer instants on the
// affected shard's lane.

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "fault/spec.hpp"
#include "obs/registry.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"

namespace vl::runtime {
class Machine;
}
namespace vl::sim {
class ShardedSim;
}

namespace vl::fault {

class FaultPlane {
 public:
  /// `shards`: how many shards the run has (1 for a single node).
  /// Event shard/link indices are clamped modulo this, so one spec is
  /// meaningful at any scale.
  FaultPlane(const FaultSpec& spec, int shards);

  const FaultSpec& spec() const { return spec_; }
  int shards() const { return shards_; }

  /// Arm one shard's machine: registers the "fault.*" counters in its
  /// telemetry registry and schedules the device-stall window events on
  /// its queue. Call once per shard, before the run starts, in shard-id
  /// order (the scheduling order is part of the deterministic replay).
  void arm_machine(runtime::Machine& m, int shard);

  /// Aggregate fault series for a run timeline (sampled like any other).
  void register_series(obs::Timeline& tl);

  /// Producer pacing hook: the arrival gap after any active flash-crowd
  /// windows for (shard, class) at `now`. Pure function of its arguments
  /// and the spec.
  Tick scale_gap(int shard, QosClass cls, Tick now, Tick gap);

  /// Channel-level fault fate for the next payload message leaving a
  /// producer on `shard`: 0 = drop (count it as shed), 1 = send once,
  /// 2 = send twice. Advances the shard's deterministic ordinal counter.
  int chan_copies(int shard, Tick now);
  /// Any loss/dup events in the spec at all (the engine gates the
  /// per-message hook on this).
  bool mutates_channels() const { return chan_events_; }

  /// Apply the tick-`now` link-fault table to the sharded sim. Call ONLY
  /// from the barrier hook (single-threaded, shards aligned). Emits one
  /// tracer instant per link transition into `tb` when given.
  void apply_links(sim::ShardedSim& ssim, Tick now,
                   obs::TraceBuffer* tb = nullptr);

  // Totals across shards (tests and end-of-run reports).
  std::uint64_t lost() const;
  std::uint64_t duped() const;
  std::uint64_t stall_windows() const;
  std::uint64_t flash_rescales() const;
  std::uint64_t link_transitions() const { return link_transitions_; }

 private:
  struct ShardState {
    std::uint64_t lost = 0;
    std::uint64_t duped = 0;
    std::uint64_t stalls = 0;        ///< Stall windows entered.
    std::uint64_t flash_scaled = 0;  ///< Gaps rescaled by a flash window.
    std::uint64_t chan_seq = 0;      ///< Loss/dup ordinal counter.
    // Mirrors owned by the machine's registry (survive the plane).
    obs::Counter* c_lost = nullptr;
    obs::Counter* c_duped = nullptr;
    obs::Counter* c_flash = nullptr;
  };

  int clamp(int idx) const {
    return idx < 0 ? -1 : idx % (shards_ < 1 ? 1 : shards_);
  }
  bool shard_match(const FaultEvent& e, int shard) const {
    return e.shard < 0 || clamp(e.shard) == shard;
  }

  FaultSpec spec_;
  int shards_;
  std::vector<ShardState> st_;
  bool chan_events_ = false;
  bool flash_events_ = false;
  // Currently-applied S*S link table (apply_links diffs against it).
  std::vector<Tick> cur_extra_;
  std::vector<std::uint8_t> cur_down_;
  std::uint64_t link_transitions_ = 0;
};

}  // namespace vl::fault
