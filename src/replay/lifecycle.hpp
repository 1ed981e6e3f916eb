#pragma once
// Lifecycle plane: tenant churn and device reconfiguration as scheduled,
// deterministic mid-run events — the scenario space the static presets
// cannot express (ROADMAP item 4), layered on the same (tick, seq) event
// discipline as the fault plane.
//
//   join@TICK:tenant=NAME     tenant starts (or resumes) producing at TICK
//   leave@TICK:tenant=NAME    tenant's producers quiesce at TICK
//   reconfig@TICK[:channel=C] SQI re-registration: the consumer of channel
//                             C (omitted = every channel) drops its armed
//                             demand and re-registers — the paper § III-B
//                             migration path, VL backends only
//
// Clauses are semicolon-separated; a tenant whose FIRST event is a join
// starts inactive (it joins mid-run), otherwise it starts active and its
// first leave quiesces it. Like FaultSpec, a LifecycleSpec is a dumb value
// type — parse/summary round-trip, and the same spec replays the same
// event sequence byte-for-byte.
//
// The LifecyclePlane turns the spec into run behaviour:
//   * producers consult next_active() at the top of each injection lap:
//     active → proceed; paused → sleep to the next join tick; departed
//     for good → forfeit the remaining budget (never generated, so the
//     conservation identity generated == delivered + dropped stays exact,
//     and the count-carrying termination pills still drain workers).
//   * workers consult take_reconfig() between receive laps and call
//     Channel::reconfigure(), which for VL channels is Consumer::migrate()
//     onto the same thread — every pushable tag drops, in-flight
//     injections reject and recover through the § III-B path, and the
//     landed-frame sweep (PR 6) guarantees nothing strands: zero loss.
//   * each node schedules a quota re-carve of its own machine
//     (runtime::size_quotas over the classes active at that instant) at
//     every join/leave boundary, so hardware quotas track the live tenant
//     mix.
//
// Join/leave only read the plane, so the shards of a mesh share one
// (threaded stepping races on nothing); take_reconfig() is the one mutator,
// which is why reconfig@ needs a single node.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace vl::replay {

struct LifecycleEvent {
  enum class Kind : std::uint8_t { kJoin, kLeave, kReconfig };
  Kind kind = Kind::kJoin;
  Tick at = 0;
  std::string tenant;  ///< join/leave: tenant name.
  int channel = -1;    ///< reconfig: channel index (-1 = every channel).
};

const char* to_string(LifecycleEvent::Kind k);

struct LifecycleSpec {
  std::vector<LifecycleEvent> events;

  bool empty() const { return events.empty(); }
  bool has_reconfig() const;
  bool has_churn() const;  ///< Any join/leave events.
  /// One-line rendering in the parse grammar (round-trips through parse()).
  std::string summary() const;
  /// Parse the grammar above (common/clause.hpp). Throws
  /// std::invalid_argument naming a malformed or out-of-range clause.
  static LifecycleSpec parse(const std::string& text);
};

/// Live lifecycle state for one run. Constructed by the engine from the
/// spec plus the run's tenant names (index order = tenant index); all
/// queries are pure functions of (spec, now) plus one-shot reconfig
/// consumption, so identical runs replay identically.
class LifecyclePlane {
 public:
  static constexpr Tick kNever = std::numeric_limits<Tick>::max();

  LifecyclePlane(const LifecycleSpec& spec,
                 const std::vector<std::string>& tenant_names);

  const LifecycleSpec& spec() const { return spec_; }

  /// Producer pacing: 0 = tenant is active at `now`, produce; kNever =
  /// departed with no future join, forfeit the rest; otherwise the tick
  /// of the next join (sleep until then and re-check).
  Tick next_active(int tenant, Tick now) const;

  /// True when the tenant has any lifecycle windows at all (tenants with
  /// no events are always active and skip the per-lap check).
  bool tenant_has_events(int tenant) const {
    return !windows_[static_cast<std::size_t>(tenant)].empty() ||
           !starts_active_[static_cast<std::size_t>(tenant)];
  }

  /// Worker hook: consume (at most one per call) a pending reconfig event
  /// for channel `chan` whose tick has passed. An event naming a channel
  /// fires once; a wildcard event (channel = -1) fires once per channel.
  bool take_reconfig(int chan, Tick now);

  /// Sorted, de-duplicated join/leave ticks — where the engine schedules
  /// quota re-carves.
  const std::vector<Tick>& churn_boundaries() const { return boundaries_; }

  /// Tenant indices active at `now` (for the re-carve's class-presence
  /// computation; boundary ticks count as post-transition).
  bool tenant_active_at(int tenant, Tick now) const;

 private:
  struct Window {  ///< Half-open [from, to) inactive span.
    Tick from = 0;
    Tick to = kNever;
  };

  LifecycleSpec spec_;
  /// Per-tenant inactive windows, ascending; an always-inactive tail has
  /// to == kNever.
  std::vector<std::vector<Window>> windows_;
  std::vector<bool> starts_active_;
  std::vector<Tick> boundaries_;
  /// Per reconfig event: channels it already fired for.
  std::vector<std::vector<int>> reconfig_fired_;
};

}  // namespace vl::replay
