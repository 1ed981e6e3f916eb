#pragma once
// Channel API v2: the uniform M:N message-channel abstraction over every
// queue implementation the paper compares (BLFQ / ZMQ / VL / VL-ideal /
// CAF), so each benchmark workload runs unmodified over all of them.
//
// A message is 1..7 doublewords — the largest payload a single VL line
// carries alongside its 2 B control region (Fig. 10). How a backend moves
// those words is its own business: BLFQ/ZMQ copy them into shared ring
// cells, VL packs them into one pushed line, CAF transfers them one 64-bit
// register value at a time through its queue-management device.
//
// Each backend implements exactly two *non-blocking, typed* attempts over
// std::span<Msg>:
//
//   try_send_many   accepts a prefix of the span and, when short, says why
//                   it stopped (SendStatus: ring/buffer full vs per-SQI /
//                   per-class quota NACK), so callers can shed, retry, or
//                   park on the right futex.
//   try_recv_many   fills a prefix of the span, stopping at the first
//                   empty probe.
//
// Backends amortize their per-message device cost over the run: VL packs
// a run of lines under one prodBuf quota acquisition and one port
// transaction, CAF opens a multi-frame credit grant once, ZMQ/BLFQ reserve
// a contiguous ring run under one lock / one CAS claim. A batch of one is
// each backend's single-message protocol, so try_send / try_recv are
// one-element wrappers — except VL's try_recv, whose single probe keeps a
// sharer's demand armed where try_recv_many's lease releases it.
//
// Blocking send/recv/send_many/recv_many are thin wrappers over that core:
// a retry loop around the attempt plus one blocking policy. A receive parks
// on recv_wq() where the backend has one (ZMQ rings) and otherwise polls at
// the backend's poll interval. That interval is constructor data: BLFQ's
// ring poll, the VL consumer's § III-B control-word discovery and CAF's
// empty-dequeue register poll differ only in that number. A send polls the
// same way unless the backend parks it on its own futex (send_blocked: ZMQ
// rings, CAF credits). send is a one-element send_many. VL replaces
// send_many outright: its lines are staged once and only the push retries,
// parked on the quota futex or the space credit gate.
//
// Wait-any/select over N channels lives in squeue/selector.hpp, built on
// recv_wq() (the consumer-readiness futex, where the backend has one) and
// the sim layer's ParkAny.

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "obs/tracer.hpp"
#include "sim/core.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace vl::squeue {

struct Msg {
  std::array<std::uint64_t, 7> w{};
  std::uint8_t n = 0;
  /// Service class, honoured by the backends that model hardware QoS (CAF
  /// per-class credit caps, VL per-class prodBuf quotas) and carried
  /// through the software rings so per-class accounting stays truthful on
  /// BLFQ/ZMQ too. Not part of equality — it routes, it is not payload.
  QosClass qos = QosClass::kStandard;

  static Msg one(std::uint64_t v) {
    Msg m;
    m.w[0] = v;
    m.n = 1;
    return m;
  }
  static Msg words(std::initializer_list<std::uint64_t> ws) {
    Msg m;
    assert(ws.size() >= 1 && ws.size() <= 7);
    for (auto v : ws) m.w[m.n++] = v;
    return m;
  }
  bool operator==(const Msg& o) const {
    if (n != o.n) return false;
    for (std::uint8_t i = 0; i < n; ++i)
      if (w[i] != o.w[i]) return false;
    return true;
  }
};

/// Why a send attempt refused. kFull is capacity back-pressure (ring at its
/// high-water mark, prodBuf out of slots, CAF queue budget exhausted):
/// any drain may clear it. kQuota is a per-SQI or per-class quota NACK
/// (isa::kVlNackQuota, CAF class caps): only *this* queue's (or class's)
/// drain clears it, so parking on the global space futex would be wrong.
enum class SendStatus : std::uint8_t { kOk = 0, kFull, kQuota };

struct SendResult {
  SendStatus status = SendStatus::kOk;
  bool ok() const { return status == SendStatus::kOk; }
};

enum class RecvStatus : std::uint8_t { kOk = 0, kEmpty };

struct RecvResult {
  RecvStatus status = RecvStatus::kEmpty;
  Msg msg{};
  bool ok() const { return status == RecvStatus::kOk; }
};

/// Outcome of a batched send attempt: how much of the span was accepted,
/// and — when short — why the batch stopped.
struct SendManyResult {
  std::size_t sent = 0;
  SendStatus status = SendStatus::kOk;  ///< kOk iff the whole span went.
};

class Channel {
 public:
  virtual ~Channel() = default;

  // --- v2 non-blocking core -------------------------------------------------

  /// Batched non-blocking send: accepts a prefix of `msgs` (possibly
  /// empty) and, when short of the whole span, reports the refusal.
  virtual sim::Co<SendManyResult> try_send_many(sim::SimThread t,
                                                std::span<const Msg> msgs) = 0;

  /// Batched non-blocking receive: fills a prefix of `out`, returns the
  /// count. Stops at the first empty probe.
  virtual sim::Co<std::size_t> try_recv_many(sim::SimThread t,
                                             std::span<Msg> out) = 0;

  /// One-message send attempt: a one-element try_send_many.
  sim::Co<SendResult> try_send(sim::SimThread t, const Msg& msg) {
    const SendManyResult r =
        co_await try_send_many(t, std::span<const Msg>(&msg, 1));
    co_return SendResult{r.status};
  }

  /// One-message receive attempt: a one-element try_recv_many. Only VL
  /// overrides it (a sharer's single probe keeps its demand armed).
  virtual sim::Co<RecvResult> try_recv(sim::SimThread t) {
    RecvResult r;
    const std::size_t got =
        co_await try_recv_many(t, std::span<Msg>(&r.msg, 1));
    if (got == 1) r.status = RecvStatus::kOk;
    co_return r;
  }

  /// Current queued-message estimate (device-resident backlog for VL —
  /// the quantity back-pressure acts on; exact ring/buffer occupancy for
  /// the software and CAF backends).
  virtual std::uint64_t depth() const = 0;

  /// Consumer-readiness futex: woken when a message may have become
  /// receivable. nullptr for backends whose consumers discover data by
  /// polling (BLFQ, the VL § III-B control word, CAF register reads) —
  /// the blocking wrappers then poll at the backend's poll interval, and
  /// Selector at kPollBackoff.
  virtual sim::WaitQueue* recv_wq() { return nullptr; }

  /// The § III-B control-word poll interval: the default backend poll
  /// interval and the Selector's poll cadence over futex-less channels.
  static constexpr Tick kPollBackoff = 16;

  /// Consumer-side endpoint re-registration (the lifecycle plane's
  /// reconfig@ event): drop and re-arm whatever receive-side device state
  /// the calling thread's endpoint holds, without losing messages. VL
  /// channels implement it as Consumer::migrate() onto the same thread —
  /// the paper's § III-B recovery path. A no-op where the backend has no
  /// such state (software rings, CAF): nothing to re-register.
  virtual void reconfigure(sim::SimThread) {}

  // --- blocking wrappers over the core -------------------------------------
  // Only send_many is virtual, for VL's stage-once/push-retry loop.
  // Elsewhere the backend-specific part is the poll interval and, for a
  // backend that parks its senders, send_blocked below.

  /// Blocking send of one message: a one-element send_many.
  sim::Co<void> send(sim::SimThread t, Msg msg) {
    co_await send_many(t, std::span<const Msg>(&msg, 1));
  }

  /// Blocking receive of one message.
  sim::Co<Msg> recv(sim::SimThread t) {
    sim::EventQueue& eq = t.core->eq();
    obs::TraceBuffer* const tb = eq.trace();
    const std::uint32_t lane = obs::thread_tid(t.core->id(), t.tid);
    if (tb) tb->begin(eq.now(), lane, "chan", "recv");
    for (;;) {
      const std::uint64_t gate = sample_recv_gate();
      RecvResult r = co_await try_recv(t);
      if (r.ok()) {
        if (tb) tb->end(eq.now(), lane, "chan", "recv");
        co_return r.msg;
      }
      co_await recv_blocked(t, gate);
    }
  }

  /// Blocking batched send: delivers the whole span, batching as far as
  /// the backend's fast path allows per lap and applying the blocking
  /// policy between laps.
  virtual sim::Co<void> send_many(sim::SimThread t, std::span<const Msg> msgs) {
    const SendTrace trace(t, msgs.size());
    BlockGates g;
    std::size_t done = 0;
    while (done < msgs.size()) {
      sample_send_gates(g, msgs[done]);
      const SendManyResult r = co_await try_send_many(t, msgs.subspan(done));
      done += r.sent;
      // Park only on an actual refusal; a short lap with status kOk (a
      // backend batching boundary, e.g. a CAF class-run end) retries
      // immediately.
      if (done < msgs.size() && r.status != SendStatus::kOk) {
        trace.nack(r.status, msgs[done].qos);
        co_await send_blocked(t, r.status, g, msgs[done]);
      }
    }
    trace.end();
  }

  /// Blocking batched receive: waits until at least `min_n` messages were
  /// received (min_n >= 1, capped at out.size()), then keeps draining
  /// opportunistically — without further blocking — up to out.size().
  sim::Co<std::size_t> recv_many(sim::SimThread t, std::span<Msg> out,
                                 std::size_t min_n = 1) {
    if (out.empty()) co_return 0;
    if (min_n < 1) min_n = 1;
    if (min_n > out.size()) min_n = out.size();
    sim::EventQueue& eq = t.core->eq();
    obs::TraceBuffer* const tb = eq.trace();
    const std::uint32_t lane = obs::thread_tid(t.core->id(), t.tid);
    if (tb) tb->begin(eq.now(), lane, "chan", "recv_many", "cap", out.size());
    std::size_t got = 0;
    for (;;) {
      const std::uint64_t gate = sample_recv_gate();
      got += co_await try_recv_many(t, out.subspan(got));
      if (got >= min_n) {
        if (tb) tb->end(eq.now(), lane, "chan", "recv_many");
        co_return got;
      }
      co_await recv_blocked(t, gate);
    }
  }

  // Single-word convenience wrappers.
  sim::Co<void> send1(sim::SimThread t, std::uint64_t v) {
    co_await send(t, Msg::one(v));
  }
  sim::Co<std::uint64_t> recv1(sim::SimThread t) {
    const Msg m = co_await recv(t);
    co_return m.w[0];
  }

 protected:
  /// `poll_interval`: ticks between attempts of a blocked wrapper that
  /// polls (every receive without a recv_wq(), every send without a
  /// send_blocked override).
  explicit Channel(Tick poll_interval = kPollBackoff)
      : poll_interval_(poll_interval) {}

  /// Wake epochs a blocking sender samples *before* its attempt, so a
  /// drain landing mid-attempt is never lost as a wakeup (the standard
  /// futex gate protocol).
  struct BlockGates {
    std::uint64_t full = 0;
    std::uint64_t quota = 0;
  };

  /// A blocking send's `chan/send_many` trace span (with its length `n`)
  /// and one `nack_quota` / `nack_full` instant per refusal — shared by the
  /// base send_many and VL's, so every backend's sends trace alike.
  class SendTrace {
   public:
    SendTrace(sim::SimThread t, std::size_t n)
        : eq_(t.core->eq()),
          tb_(eq_.trace()),
          lane_(obs::thread_tid(t.core->id(), t.tid)) {
      if (tb_) tb_->begin(eq_.now(), lane_, "chan", "send_many", "n", n);
    }
    void nack(SendStatus why, QosClass qos) const {
      if (tb_)
        tb_->instant(eq_.now(), lane_, "chan",
                     why == SendStatus::kQuota ? "nack_quota" : "nack_full",
                     "qos", static_cast<std::uint64_t>(qos));
    }
    void end() const {
      if (tb_) tb_->end(eq_.now(), lane_, "chan", "send_many");
    }

   private:
    sim::EventQueue& eq_;
    obs::TraceBuffer* const tb_;
    const std::uint32_t lane_;
  };

  /// The message is passed so a class-aware backend (CAF class caps) can
  /// sample / park on its per-class credit futex.
  virtual void sample_send_gates(BlockGates&, const Msg&) {}

  /// Applied when a blocking send's attempt refused: park on the right
  /// backend futex, or poll. Default: poll.
  virtual sim::Co<void> send_blocked(sim::SimThread t, SendStatus,
                                     BlockGates&, const Msg&) {
    co_await t.compute(poll_interval_);
  }

 private:
  std::uint64_t sample_recv_gate() {
    sim::WaitQueue* wq = recv_wq();
    return wq ? wq->epoch() : 0;
  }

  /// Applied when a blocking receive's attempt found nothing: park on
  /// recv_wq() when the backend has one, else poll.
  sim::Co<void> recv_blocked(sim::SimThread t, std::uint64_t gate) {
    if (sim::WaitQueue* wq = recv_wq())
      co_await t.park(*wq, gate);
    else
      co_await t.compute(poll_interval_);
  }

  Tick poll_interval_;
};

}  // namespace vl::squeue
