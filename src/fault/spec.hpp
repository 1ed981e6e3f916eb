#pragma once
// Deterministic fault schedules.
//
// A FaultSpec is a plain list of timed fault windows — *what* goes wrong,
// *where*, and *when* — with no behaviour of its own. The FaultPlane
// (fault/plane.hpp) turns a spec into scheduled (tick, seq) events and
// per-shard injection state; keeping the schedule a dumb value type is
// what lets it ride inside a ScenarioSpec, print in a --list line, and be
// compared across runs.
//
// Everything is a closed window [start, start + duration): faults always
// lift, so a chaos run's tail is a recovery measurement, not a hang. All
// parameters are explicit ticks/counts — no wall clock, no host RNG — so
// the same spec replays the same fault sequence byte-for-byte, including
// under a shard mesh's threaded stepping.
//
// Text grammar (CLI `--faults`, semicolon-separated clauses):
//
//   spike@START+DUR:extra=T[,src=A][,dst=B]   link latency spike (sharded)
//   partition@START+DUR[:src=A][,dst=B]       link down, bounded (sharded)
//   stall@START+DUR[:shard=K]                 VLRD injector pause + resume
//   loss@START+DUR:every=N[,shard=K]          drop every Nth send
//   dup@START+DUR:every=N[,shard=K]           duplicate every Nth send
//   flash@START+DUR:factor=F[,class=C][,shard=K]
//                                             scale arrival gaps by F
//                                             (F < 1 = flash crowd)
//   rand:SEED[,COUNT[,HORIZON]]               expand COUNT pseudo-random
//                                             clauses from SEED (defaults
//                                             8 events over 200000 ticks)
//
// Omitted src/dst/shard mean "every link/shard"; class is the QosClass
// index (0 standard, 1 latency, 2 bulk), -1 = all classes. A `rand:`
// clause expands deterministically at parse time — the expansion is part
// of the spec's value, so two parses of the same string are equal.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace vl::fault {

enum class FaultKind : std::uint8_t {
  kLinkSpike,    ///< Extra latency on inter-shard link(s).
  kPartition,    ///< Inter-shard link(s) refuse posts for the window.
  kDeviceStall,  ///< VLRD injector paused; state intact, resumes after.
  kChanLoss,     ///< Drop every Nth message at the channel send boundary.
  kChanDup,      ///< Duplicate every Nth message at the send boundary.
  kFlashCrowd,   ///< Multiply a class's arrival gaps by `factor`.
};

const char* to_string(FaultKind k);

struct FaultEvent {
  FaultKind kind = FaultKind::kDeviceStall;
  Tick start = 0;
  Tick duration = 0;  ///< Active window is [start, start + duration).
  int src = -1;       ///< Link faults: source shard (-1 = all).
  int dst = -1;       ///< Link faults: destination shard (-1 = all).
  int shard = -1;     ///< Stall/loss/dup/flash target shard (-1 = all).
  Tick extra = 0;     ///< kLinkSpike: added hop latency.
  std::uint32_t every = 0;  ///< kChanLoss/kChanDup: ordinal period.
  int cls = -1;       ///< kFlashCrowd: QosClass index (-1 = all).
  double factor = 1.0;  ///< kFlashCrowd: gap multiplier (< 1 floods).

  bool active_at(Tick now) const {
    return now >= start && now < start + duration;
  }
};

struct FaultSpec {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  bool has(FaultKind k) const;
  /// Last tick any window is still active (0 for an empty spec).
  Tick end_tick() const;
  /// One-line rendering in the parse grammar (round-trips through parse()).
  std::string summary() const;

  /// Parse the grammar above (common/clause.hpp; a rand COUNT is <= 4096).
  /// Throws std::invalid_argument naming a malformed or out-of-range clause.
  static FaultSpec parse(const std::string& text);

  /// Deterministic pseudo-random schedule: `count` events drawn from
  /// `seed` over [horizon/8, horizon). Shard/link indices are drawn in
  /// [0, 8) and clamped modulo the actual shard count by the FaultPlane,
  /// so one spec is meaningful at any scale.
  static FaultSpec random(std::uint64_t seed, int count = 8,
                          Tick horizon = 200000);
};

}  // namespace vl::fault
