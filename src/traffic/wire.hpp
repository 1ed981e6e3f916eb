#pragma once
// Internal to the traffic engine (engine.cpp): the message wire format and
// the one message source every producer draws from. Not part of the public
// traffic API.
//
// Word 0 of every payload message:
//   [63:56] spec tenant index
//   [55:48] producer id, low 8 bits
//   [47:0]  generation tick
// Termination pills carry kPillTenant in the tenant byte and the
// channel's exact payload count in bits [47:0]; remaining payload words
// are deterministic filler.

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "replay/trace.hpp"
#include "squeue/channel.hpp"
#include "squeue/factory.hpp"
#include "traffic/arrival.hpp"
#include "traffic/scenario.hpp"

namespace vl::traffic::wire {

constexpr std::uint64_t kTickMask = (std::uint64_t{1} << 48) - 1;
constexpr std::uint64_t kPillTenant = 0xff;

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
///     (single-node fan-out) or from a private RNG stream.
///   * Replay: one producer's TraceArrival cursor paces to the recorded
///     ticks, and each record supplies class, width and destination.
/// A replayed stream is post-shed, so the producer switches shedding,
/// produce_compute and the closed-loop window off once, from live(). The
/// engine rejects flash@ and join/leave on a replay; loss/dup apply to both.
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
  /// Live runs draw the destination here, so where the producer calls
  /// take() fixes which shed messages still advance the route stream.
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
  msg.w[0] = (static_cast<std::uint64_t>(tenant) << 56) |
             (static_cast<std::uint64_t>(pid & 0xff) << 48) | (now & kTickMask);
  for (std::uint8_t w = 1; w < d.words; ++w)
    msg.w[w] = (static_cast<std::uint64_t>(tenant) << 32) | index;
  return msg;
}

}  // namespace vl::traffic::wire
