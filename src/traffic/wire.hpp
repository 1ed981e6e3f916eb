#pragma once
// Internal to the two traffic engines (engine.cpp, sharded_engine.cpp):
// the message wire format they share, the one message source their
// producers draw from, and the run setup they do alike. Not part of the
// public traffic API.
//
// Word 0 of every payload message:
//   [63:56] tenant index (classic) or class index (sharded)
//   [55:48] producer id, low 8 bits
//   [47:0]  generation tick
// Termination pills carry kPillTenant in the tenant byte and the
// channel's exact payload count in bits [47:0]; remaining payload words
// are deterministic filler.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/hooks.hpp"
#include "obs/timeline.hpp"
#include "replay/trace.hpp"
#include "runtime/machine.hpp"
#include "runtime/qos_supervisor.hpp"
#include "squeue/channel.hpp"
#include "squeue/factory.hpp"
#include "traffic/arrival.hpp"
#include "traffic/engine.hpp"
#include "traffic/scenario.hpp"

namespace vl::traffic::wire {

constexpr std::uint64_t kTickMask = (std::uint64_t{1} << 48) - 1;
constexpr std::uint64_t kPillTenant = 0xff;

inline std::uint64_t stamp(int tenant, int pid, Tick now) {
  return (static_cast<std::uint64_t>(tenant) << 56) |
         (static_cast<std::uint64_t>(pid & 0xff) << 48) | (now & kTickMask);
}

/// Termination pill. The stamp bits carry the channel's exact payload
/// count, so a sole worker drains to the count instead of trusting arrival
/// order: VL's § III-B injection-retry recovery can land a straggler after
/// a younger line, so "pill seen" does not imply "channel empty".
inline squeue::Msg make_pill(std::uint64_t count) {
  squeue::Msg p;
  p.n = 1;
  p.w[0] = (kPillTenant << 56) | (count & kTickMask);
  return p;
}

/// Derive an independent RNG stream for one actor of the run. Xoshiro
/// seeding splitmixes the value, so consecutive salts give uncorrelated
/// streams.
inline std::uint64_t split_seed(std::uint64_t seed, std::uint64_t salt) {
  return seed ^ (0x9e3779b97f4a7c15ull * (salt + 1));
}

/// CAF channels carry fixed single-word frames (multi-word register
/// sequences interleave under M:N sharing), so CAF runs stamp-only.
inline std::uint8_t payload_words(squeue::Backend b, std::uint8_t words) {
  return b == squeue::Backend::kCaf ? std::uint8_t{1} : words;
}

/// Where one producer's messages come from.
///   * Live: the tenant's arrival process paces, the tenant fixes class
///     and width, and each destination is drawn in [0, n) — by rotation
///     (classic fan-out) or from a private RNG stream.
///   * Replay: one producer's TraceArrival cursor paces to the recorded
///     ticks, and each record supplies class, width and destination.
/// A replayed stream is post-shed, so the engines switch shedding, fault
/// loss/dup, produce_compute and lifecycle waits off once, from live().
class MessageSource {
 public:
  struct Draw {
    QosClass cls;
    std::uint8_t words;
    std::uint64_t dst;
  };

  MessageSource(const TenantSpec& ts, squeue::Backend b, std::uint64_t budget,
                std::uint64_t arrival_seed, std::uint64_t route_seed,
                bool rotate)
      : arrival_(make_arrival(ts.arrival, arrival_seed)),
        rng_(route_seed),
        rotate_(rotate),
        budget_(budget),
        cls_(ts.qos),
        words_(payload_words(b, ts.msg_words)),
        backend_(b) {}

  MessageSource(const replay::Trace& trace, int pid, squeue::Backend b)
      : backend_(b) {
    auto rep = std::make_unique<replay::TraceArrival>(
        trace, static_cast<std::uint16_t>(pid));
    rep_ = rep.get();
    budget_ = rep->size();
    arrival_ = std::move(rep);
  }

  bool live() const { return rep_ == nullptr; }
  std::uint64_t budget() const { return budget_; }
  Tick next_gap(Tick now) { return arrival_->next_gap(now); }

  /// Class, width and destination (in [0, n)) of the message just paced.
  /// Live runs draw the destination here, so where an engine calls take()
  /// fixes which shed messages still advance the route stream.
  Draw take(std::uint64_t n) {
    if (rep_) {
      const replay::TraceRecord& r = rep_->record();
      rep_->advance();
      return {r.cls, payload_words(backend_, r.words), r.dst % n};
    }
    return {cls_, words_, rotate_ ? seq_++ % n : rng_.below(n)};
  }

 private:
  std::unique_ptr<ArrivalProcess> arrival_;
  replay::TraceArrival* rep_ = nullptr;  ///< = arrival_ when replaying.
  Xoshiro256 rng_;
  bool rotate_ = false;
  std::uint64_t seq_ = 0;
  std::uint64_t budget_ = 0;
  QosClass cls_ = QosClass::kStandard;
  std::uint8_t words_ = 1;
  squeue::Backend backend_;
};

/// The payload message for draw `d`: stamped word 0, then filler words
/// (tenant, producer-local message index).
inline squeue::Msg make_msg(const MessageSource::Draw& d, int tenant, int pid,
                            Tick now, std::uint64_t index) {
  squeue::Msg msg;
  msg.n = d.words;
  msg.qos = d.cls;
  msg.w[0] = stamp(tenant, pid, now);
  for (std::uint8_t w = 1; w < d.words; ++w)
    msg.w[w] = (static_cast<std::uint64_t>(tenant) << 32) | index;
  return msg;
}

// --- run setup both engines share ------------------------------------------

/// Check spec.replay against the engine kind and the spec's shape, then
/// start the caller's recorder, if any, on this run and return it. Throws
/// std::invalid_argument for a trace this engine cannot replay.
inline replay::TraceRecorder* begin_trace_io(const ScenarioSpec& spec,
                                             squeue::Backend b,
                                             std::uint64_t seed,
                                             const obs::RunHooks* obs,
                                             bool sharded) {
  if (const replay::Trace* t = spec.replay) {
    if (t->sharded != sharded)
      throw std::invalid_argument(
          "replay: trace '" + t->scenario + "' was recorded by the " +
          (t->sharded ? "sharded engine; replay it via run_sharded"
                      : "classic engine; replay it via traffic::run"));
    if (t->producers != static_cast<std::uint32_t>(spec.producers) ||
        t->tenants != spec.tenants.size())
      throw std::invalid_argument(
          "replay: trace shape (producers=" + std::to_string(t->producers) +
          ", tenants=" + std::to_string(t->tenants) +
          ") does not match scenario '" + spec.name + "' (producers=" +
          std::to_string(spec.producers) +
          ", tenants=" + std::to_string(spec.tenants.size()) + ")");
  }
  replay::TraceRecorder* rec = obs ? obs->recorder : nullptr;
  if (rec)
    rec->begin(spec.name, squeue::to_string(b), seed,
               static_cast<std::uint32_t>(spec.producers),
               static_cast<std::uint32_t>(spec.tenants.size()), sharded);
  return rec;
}

/// The run's QoS supervisor, or null when `spec` runs none on `b` (it needs
/// spec.qos on a hardware backend).
inline std::unique_ptr<runtime::QosSupervisor> make_supervisor(
    const ScenarioSpec& spec, squeue::Backend b) {
  if (!spec.supervisor || !spec.qos ||
      (b != squeue::Backend::kVl && b != squeue::Backend::kCaf))
    return nullptr;
  bool present[kQosClasses] = {};
  for (const auto& t : spec.tenants)
    present[static_cast<std::size_t>(t.qos)] = true;
  return std::make_unique<runtime::QosSupervisor>(
      runtime::QosSupervisor::Config{}, present);
}

/// Hand the supervisor one machine's knobs, sized for `node` (the spec as
/// that machine hosts it).
inline void attach_machine(runtime::QosSupervisor& sup,
                           const ScenarioSpec& node, squeue::Backend b,
                           runtime::Machine& m, squeue::ChannelFactory& f) {
  sup.attach(m.cfg(), channel_demand_for(node, b, m.cfg()),
             b == squeue::Backend::kVl ? &m.cluster() : nullptr,
             b == squeue::Backend::kCaf ? &f.caf_device() : nullptr);
}

/// Calls its argument once per node of a run (the classic machine, or
/// each shard) with the node's total channel queue depth.
using NodeVisitor = std::function<void(
    const std::function<void(runtime::Machine&, squeue::ChannelFactory&,
                             std::uint64_t depth)>&)>;

/// Register the kernel and device series, summed over every node:
/// eq.executed, chan.depth (the run's one queue-depth signal),
/// vlrd.push_quota_nacks, vlrd.fetch_nacks and, on CAF,
/// caf.occupancy.<class>.
inline void register_device_series(obs::Timeline& tl, squeue::Backend b,
                                   const NodeVisitor& each) {
  using View = std::function<std::uint64_t(
      runtime::Machine&, squeue::ChannelFactory&, std::uint64_t depth)>;
  // One series: `view` summed over every node.
  auto add = [&tl, &each](std::string name, View view) {
    tl.add_series(std::move(name), [each, view] {
      std::uint64_t n = 0;
      each([&](runtime::Machine& m, squeue::ChannelFactory& f,
               std::uint64_t depth) { n += view(m, f, depth); });
      return static_cast<double>(n);
    });
  };
  add("eq.executed",
      [](auto& m, auto&, auto) -> std::uint64_t { return m.eq().executed(); });
  add("chan.depth", [](auto&, auto&, std::uint64_t depth) { return depth; });
  add("vlrd.push_quota_nacks", [](auto& m, auto&, auto) -> std::uint64_t {
    return m.vlrd_stats().push_quota_nacks;
  });
  add("vlrd.fetch_nacks", [](auto& m, auto&, auto) -> std::uint64_t {
    return m.vlrd_stats().fetch_nacks;
  });
  if (b != squeue::Backend::kCaf) return;
  for (std::size_t c = 0; c < kQosClasses; ++c) {
    const auto cls = static_cast<QosClass>(c);
    add(std::string("caf.occupancy.") + to_string(cls),
        [cls](auto&, auto& f, auto) -> std::uint64_t {
          return f.caf_device().class_occupancy(cls);
        });
  }
}

}  // namespace vl::traffic::wire
