#pragma once
// Trace record/replay plane (ROADMAP item 4).
//
// A Trace is the production-shaped counterpart of the synthetic
// ArrivalSpec presets: the per-message stream an engine run actually
// emitted at its send boundary — (tick, tenant, producer, class, size,
// destination) per message copy — in a form that can be saved, diffed,
// and replayed through traffic::run / run_sharded on any backend.
//
//   * TraceRecorder taps the engine via obs::RunHooks::recorder. Each
//     producer appends to its own stream (race-free under a shard
//     mesh's threaded stepping); finish() merges the streams into one
//     deterministic (tick, producer, sequence) order, so two identical
//     runs record byte-identical traces.
//   * TraceArrival is an ArrivalProcess over one producer's recorded
//     stream. next_gap() reconstructs the *absolute* recorded generation
//     tick (gap = record.tick - now, clamped at 0), so a replayed
//     producer that is not backlogged stamps every message at exactly
//     the tick the recorded run did; class, payload width, and routing
//     come from the record rather than the spec's RNG draws.
//
// Replay semantics: the trace is the post-shed stream — records exist
// only for copies that actually entered a channel sub-batch — so a
// replaying producer skips drop_depth shedding, fault-plane loss/dup,
// and produce_compute (all already reflected in the recorded ticks).
// Replayed per-tenant delivered counts therefore match the recorded run
// exactly, and latency percentiles track it closely (the headline 5%
// tolerance is CI-gated by tools/replay_gate.py).
//
// File formats: CSV (`#`-prefixed metadata lines, then one row per
// record) for eyeballing and external tooling, and a packed
// little-endian binary ("VLTR") for bulk traces. Both round-trip
// byte-identically; save()/load() pick by extension/magic.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "traffic/arrival.hpp"

namespace vl::replay {

/// One message copy crossing the engine send boundary.
struct TraceRecord {
  Tick tick = 0;             ///< Generation (stamp) tick.
  std::uint16_t tenant = 0;  ///< Tenant index within the spec.
  std::uint16_t pid = 0;     ///< Producer id (global pid when sharded).
  QosClass cls = QosClass::kStandard;
  std::uint8_t words = 1;    ///< Payload words (1..7).
  std::uint64_t dst = 0;     ///< Channel index (single node) or logical
                             ///< destination tenant id (shard mesh).

  bool operator==(const TraceRecord&) const = default;
};

struct Trace {
  // Metadata, validated against the spec at replay time.
  std::string scenario;
  std::string backend;
  std::uint64_t seed = 0;
  std::uint32_t producers = 0;  ///< Producer streams (spec.producers after
                                ///< scaling).
  std::uint32_t tenants = 0;
  bool sharded = false;
  std::vector<TraceRecord> records;  ///< (tick, pid, seq) order.

  bool empty() const { return records.empty(); }

  /// Render/parse the CSV form (header comments + data rows).
  std::string csv() const;
  static Trace parse_csv(const std::string& text);

  /// Render/parse the packed binary form ("VLTR" magic).
  std::string binary() const;
  static Trace parse_binary(const std::string& bytes);

  /// Write to `path` — CSV when it ends in ".csv", binary otherwise.
  /// Returns false on I/O failure.
  bool save(const std::string& path) const;
  /// Read either format back (sniffs the magic). Throws
  /// std::invalid_argument on unreadable/malformed input.
  static Trace load(const std::string& path);
};

/// Engine-side tap. Attach via obs::RunHooks::recorder; the engine calls
/// begin() once with the run's shape, then on_send() for every message
/// copy that enters a channel. Per-pid streams are preallocated by
/// begin(), so concurrent shards appending to different pids never race.
class TraceRecorder {
 public:
  void begin(const std::string& scenario, const std::string& backend,
             std::uint64_t seed, std::uint32_t producers,
             std::uint32_t tenants, bool sharded);

  void on_send(std::uint16_t pid, std::uint16_t tenant, QosClass cls,
               std::uint8_t words, std::uint64_t dst, Tick tick) {
    streams_[pid].push_back(TraceRecord{tick, tenant, pid, cls, words, dst});
  }

  /// Merge the per-producer streams into one trace ordered by
  /// (tick, pid, per-pid sequence) — a deterministic total order
  /// independent of host-thread interleaving.
  Trace finish() const;

 private:
  Trace meta_;
  std::vector<std::vector<TraceRecord>> streams_;
};

/// Replay cursor over one producer's recorded stream, shaped as an
/// ArrivalProcess so the engine's pacing loop drives it like any other
/// arrival. next_gap() does NOT advance the cursor — the engine reads
/// class/width/destination from record() at the reconstructed tick, then
/// calls advance().
class TraceArrival final : public traffic::ArrivalProcess {
 public:
  TraceArrival(const Trace& trace, std::uint16_t pid);

  Tick next_gap(Tick now) override {
    if (done()) return 0;
    const Tick at = record().tick;
    return at > now ? at - now : 0;
  }

  bool done() const { return cur_ >= idx_.size(); }
  std::size_t size() const { return idx_.size(); }
  const TraceRecord& record() const { return trace_->records[idx_[cur_]]; }
  void advance() { ++cur_; }

 private:
  const Trace* trace_;
  std::vector<std::uint32_t> idx_;  ///< Indices of this pid's records.
  std::size_t cur_ = 0;
};

}  // namespace vl::replay
