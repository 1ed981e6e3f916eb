#pragma once
// Telemetry registry: the counter tables every component publishes into and
// every consumer (timeline sampler, CSV export, the planned QoS supervisor)
// reads out of — the sonic-swss orchagent counter-table shape, specialised
// to the simulator.
//
// Three kinds of entries, all read out uniformly by name:
//
//   * owned counters  — Counter cells allocated by the registry. Handles
//     are pointer-stable (deque-backed: registering more counters never
//     moves an existing cell), so a hot path holds the Counter& once and
//     every increment is a single relaxed atomic add — no map lookup, no
//     lock, no string hashing. Relaxed is sufficient: within one shard the
//     event loop is single-threaded, and under ShardedSim's threaded
//     stepping each shard only ever touches its own registry; the barrier
//     (a mutex hand-off) orders the reads.
//   * links           — read-only views over counters that already live as
//     plain struct fields in device/kernel code (VlrdStats, MemStats, the
//     EventQueue's executed counter). Those hot paths already increment a
//     plain field; linking makes the value registry-visible without moving
//     it or adding a second write.
//   * gauges          — closures evaluated at snapshot time, for derived or
//     aggregated values (cluster-total device stats, per-class occupancy).
//
// Snapshots export as vl::StatSet, so everything downstream of a snapshot —
// diff around a region of interest, merge across shards, to_string — is the
// existing StatSet machinery. StatSet is thereby demoted to what it is good
// at (a cold snapshot/diff/merge view over a std::map); the registry is the
// layer hot paths and pollers talk to. Per-shard registries merge post-join
// exactly like a sharded run's other counters: snapshot each shard,
// StatSet::merge the snapshots.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "common/stats.hpp"

namespace vl::obs {

/// A pointer-stable monotonic counter cell. Hot paths hold the reference
/// and pay one relaxed add per increment.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Registry {
 public:
  /// Owned counter handle for `name` (hierarchical dot-separated names by
  /// convention: "vlrd.push_nacks"). Idempotent: re-registering a name
  /// returns the same cell. The reference stays valid for the registry's
  /// lifetime regardless of later registrations.
  Counter& counter(const std::string& name);

  /// Registry-visible view over an existing 64-bit counter field. The
  /// referent must outlive the registry or be dropped via clear_readers().
  void link(const std::string& name, const std::uint64_t* src);
  /// Same, over a 32-bit field (CAF occupancy arrays and friends).
  void link32(const std::string& name, const std::uint32_t* src);

  /// Derived value, evaluated at read/snapshot time.
  void gauge(const std::string& name, std::function<std::uint64_t()> fn);

  /// Read one entry by name (0 for unknown names). Cold path.
  std::uint64_t value(const std::string& name) const;
  bool contains(const std::string& name) const {
    return index_.count(name) != 0;
  }
  std::size_t size() const { return index_.size(); }

  /// Snapshot every entry into a StatSet (names prefixed with `prefix`) —
  /// the diff/merge/to_string view. Deterministic: StatSet's map orders by
  /// name regardless of registration order.
  StatSet snapshot(const std::string& prefix = {}) const;
  /// Merge a snapshot into an existing set (per-shard post-join fold).
  void merge_into(StatSet& out, const std::string& prefix = {}) const;

  /// Drop every link and gauge (owned counters stay). Call when referents
  /// (a run's context, a dead machine) are about to go away while the
  /// registry itself lives on.
  void clear_readers();

 private:
  struct Entry {
    Counter* owned = nullptr;
    const std::uint64_t* link64 = nullptr;
    const std::uint32_t* link32 = nullptr;
    std::function<std::uint64_t()> fn;
    std::uint64_t read() const;
  };

  std::deque<Counter> cells_;  // deque: growth never moves existing cells
  std::map<std::string, Entry> index_;
};

}  // namespace vl::obs
