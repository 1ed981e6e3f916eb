#pragma once
// Lightweight named-counter and sample facilities.
//
// StatSet is the *snapshot* view of the telemetry system: a cold,
// map-backed bag of named values that supports diff around a region of
// interest (the same way the paper reads gem5 stats around the ROI),
// merge across shards, and to_string. Live counters belong in
// obs::Registry (src/obs/registry.hpp) — hot paths hold pointer-stable
// handles there and Registry::snapshot() exports into a StatSet, so
// everything downstream of a snapshot keeps using this type.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vl {

/// A group of named monotonic counters with snapshot/diff support.
class StatSet {
 public:
  void add(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  std::uint64_t get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  void clear() { counters_.clear(); }

  /// Returns (*this - base), treating missing counters in base as zero.
  StatSet diff(const StatSet& base) const {
    StatSet out;
    for (const auto& [k, v] : counters_) {
      const std::uint64_t b = base.get(k);
      if (v > b) out.counters_[k] = v - b;
    }
    return out;
  }

  /// Merge another set into this one (summing counters).
  void merge(const StatSet& other) {
    for (const auto& [k, v] : other.counters_) counters_[k] += v;
  }

  const std::map<std::string, std::uint64_t>& raw() const { return counters_; }

  std::string to_string() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
};

/// Exact-percentile sample store. The simulator is deterministic and runs
/// are bounded, so storing every sample and sorting on demand is both exact
/// and cheap — no estimator error in reported tail latencies.
class Samples {
 public:
  void record(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return xs_.size(); }
  double mean() const;

  /// p in [0, 100]; nearest-rank percentile. 0 with no samples.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  void clear() {
    xs_.clear();
    sorted_ = false;
  }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
};

/// Geometric mean of a series of ratios; used for the paper's 2.09x headline.
double geomean(const std::vector<double>& xs);

}  // namespace vl
