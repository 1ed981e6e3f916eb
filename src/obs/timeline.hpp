#pragma once
// Epoch time-series sampler: the time axis the end-of-run aggregates lack.
//
// Consumers register named series as closures over live counters/metrics
// (registry entries, TenantMetrics fields, device stats). sample(tick)
// evaluates every series once and appends one row per series into a bounded
// ring — when the ring fills, the oldest epoch is dropped and `dropped()`
// says so, so long runs degrade to "most recent window" instead of OOM.
//
// The sampler never touches the event queue: it neither schedules events
// nor consumes (tick, seq) numbers, so a sampled run replays the exact
// event sequence of an unsampled one. The engine calls sample() from
// outside the data path: a sim::ShardedSim epoch clock, which runs between
// events with every shard at the sample tick.
//
// Export is long format — epoch,tick,series,value — one row per
// (epoch, series), because downstream tools (pandas, gnuplot, the PR-8
// supervisor's decision log) pivot long data trivially while wide CSV
// would hard-code the series set into the header.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace vl::obs {

class Timeline {
 public:
  /// `cap`: maximum retained epochs (oldest dropped beyond it).
  explicit Timeline(std::size_t cap = 4096) : cap_(cap ? cap : 1) {}

  /// Register a series. Values are doubles so percentile/attainment series
  /// fit next to integer counters. Registration order fixes column order
  /// in every epoch (deterministic output).
  void add_series(std::string name, std::function<double()> fn);

  /// Evaluate every series at simulated time `tick` and append an epoch.
  void sample(Tick tick);

  /// Drop every series closure (retained samples stay). Call before the
  /// closed-over state (engine contexts, machines) is destroyed or moved.
  void detach();

  struct Epoch {
    std::uint64_t index;  // absolute epoch number, survives ring eviction
    Tick tick;
    std::vector<double> values;  // parallel to names()
  };

  /// On overflow, halve the retained history (drop every other stored
  /// epoch) instead of evicting the oldest: the ring then covers the whole
  /// run at a coarser effective cadence, which is what a plot or a
  /// post-hoc SLO analysis wants. dropped() stays 0 in this mode;
  /// coarsenings() counts the halvings (effective cadence is
  /// sample-every x 2^coarsenings).
  void set_auto_coarsen(bool on) { auto_coarsen_ = on; }
  std::uint64_t coarsenings() const { return coarsenings_; }

  std::size_t size() const { return ring_.size(); }
  const Epoch& at(std::size_t i) const { return ring_[i]; }
  std::uint64_t epochs() const { return next_index_; }   // total sampled
  std::uint64_t dropped() const { return dropped_; }     // evicted by cap
  const std::vector<std::string>& names() const { return names_; }

  /// Value of `name` in the most recent epoch (0 if never sampled or
  /// unknown). The determinism test uses this to check that the final
  /// epoch's cumulative series equal the end-of-run ScenarioMetrics.
  double last(const std::string& name) const;

  /// Long-format CSV: "epoch,tick,series,value\n" rows.
  std::string csv() const;
  /// JSON: {"series": [...], "epochs": [{"epoch":..,"tick":..,"values":[..]}]}
  std::string json() const;
  /// Write csv() or json() to `path`, picking by extension (".json" → JSON).
  bool write(const std::string& path) const;

 private:
  std::size_t cap_;
  std::vector<std::string> names_;
  std::vector<std::function<double()>> series_;
  std::deque<Epoch> ring_;
  std::uint64_t next_index_ = 0;
  std::uint64_t dropped_ = 0;
  bool auto_coarsen_ = false;
  std::uint64_t coarsenings_ = 0;
};

}  // namespace vl::obs
