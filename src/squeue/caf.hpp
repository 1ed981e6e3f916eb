#pragma once
// SimCaf: model of CAF, the "Core to Core Communication Acceleration
// Framework" (Wang et al., PACT'16) the paper compares against in Fig. 15.
//
// The two architectural differences the paper calls out (§ IV-B):
//   i.  CAF partitions buffer space between queues and applies credit
//       management for QoS — modelled as a fixed per-queue credit budget;
//       an enqueue with no credit is NACKed and the producer retries.
//   ii. Enqueue/dequeue transfer 64-bit register values between the core
//       and the central Queue Management Device — so a 64 B message costs
//       ~8 device round trips where VL pushes one whole cache line.
//
// The device stores queued words in internal SRAM (no cache/DRAM traffic
// for queued payloads, like VL), but its register-granularity interface is
// the bottleneck Fig. 15's ping-pong exposes.
//
// Channel v2: the credit manager grants a whole frame's credits (or a
// batch of frames' — the multi-frame grant) atomically with the first
// register write of the frame, so a producer never parks mid-frame and the
// frame-grant mutex is held only for the bounded transfer itself. The
// per-word register round trips — the architectural bottleneck — are
// unchanged.

#include <algorithm>
#include <cassert>
#include <deque>
#include <memory>
#include <vector>

#include "sim/async_mutex.hpp"
#include "sim/sync.hpp"
#include "squeue/channel.hpp"
#include "runtime/machine.hpp"

namespace vl::squeue {

/// The central Queue Management Device: one per machine, shared by all
/// CAF channels. Each device queue carries a simulated-futex WaitQueue for
/// its credit grant: a producer whose frame-open is NACKed for lack of
/// credits parks and is woken by the consumer-side register read that
/// frees one, instead of hammering the device with retries. (Consumers
/// polling an *empty* queue keep polling — that register-read discovery
/// latency is part of the Fig. 15 model.)
class CafDevice {
 public:
  /// Credit-grant outcome of a frame-open register write.
  enum class Grant : std::uint8_t { kOk, kFull, kQuota };

  /// The config is the single source of both budgets: credits_per_queue
  /// caps each queue as a whole, class_credits caps how much of that
  /// budget each service class may occupy (0 = uncapped). All-zero class
  /// caps — the default — reproduce the plain fixed-budget device
  /// byte-for-byte.
  CafDevice(runtime::Machine& m, const sim::CafConfig& cfg)
      : m_(m), credits_(cfg.credits_per_queue) {
    for (std::size_t c = 0; c < kQosClasses; ++c)
      class_credits_[c] = cfg.class_credits[c];
  }
  /// Plain fixed-budget device (no class caps).
  explicit CafDevice(runtime::Machine& m, std::uint32_t credits_per_queue = 64)
      : CafDevice(m, sim::CafConfig{credits_per_queue, {0, 0, 0}}) {}

  /// Allocate a device queue id.
  std::uint32_t open_queue() {
    queues_.push_back(std::make_unique<DevQueue>(m_.eq()));
    return static_cast<std::uint32_t>(queues_.size() - 1);
  }

  /// One 64-bit enqueue register write: a one-word, one-frame enq_open().
  /// False = out of credits — either the queue's whole budget or the
  /// word's class cap.
  bool enq(std::uint32_t q, std::uint64_t v,
           QosClass cls = QosClass::kStandard) {
    std::uint32_t granted = 0;
    return enq_open(q, v, cls, 1, 1, &granted) == Grant::kOk;
  }

  /// Frame-open register write: atomically grants the credits for up to
  /// `max_frames` frames of `frame_words` words each (all of class `cls`)
  /// and enqueues the frame's first word `v`. The grant rides the same
  /// register round trip as the word, so a single-frame open costs exactly
  /// what a plain enq() does. `*granted` receives the number of frames
  /// whose credits were reserved (0 on refusal); the return status names
  /// the constraint that bounded the grant (kOk when every requested
  /// frame fit).
  Grant enq_open(std::uint32_t q, std::uint64_t v, QosClass cls,
                 std::uint32_t frame_words, std::uint32_t max_frames,
                 std::uint32_t* granted) {
    DevQueue& dq = *queues_.at(q);
    const auto c = static_cast<std::size_t>(cls);
    const std::uint64_t used_total = dq.data.size() + dq.reserved_total;
    const std::uint64_t budget_free =
        used_total < credits_ ? credits_ - used_total : 0;
    std::uint64_t class_free = budget_free;
    bool class_bound = false;
    if (class_credits_[c] != 0) {
      const std::uint64_t cu = dq.used[c] + dq.reserved[c];
      class_free = cu < class_credits_[c] ? class_credits_[c] - cu : 0;
      class_bound = class_free < budget_free;
    }
    const std::uint64_t free_words = class_bound ? class_free : budget_free;
    const auto fit = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(max_frames, free_words / frame_words));
    *granted = fit;
    if (fit == 0) return class_bound ? Grant::kQuota : Grant::kFull;
    // Reserve everything granted, then immediately consume one reserved
    // credit for the word carried by this register write.
    const std::uint32_t words = fit * frame_words;
    dq.reserved_total += words - 1;
    dq.reserved[c] += words - 1;
    dq.data.push_back({v, cls});
    ++dq.used[c];
    return fit == max_frames ? Grant::kOk
                             : (class_bound ? Grant::kQuota : Grant::kFull);
  }

  /// Enqueue register write consuming a credit reserved by enq_open();
  /// never NACKs.
  void enq_reserved(std::uint32_t q, std::uint64_t v, QosClass cls) {
    DevQueue& dq = *queues_.at(q);
    const auto c = static_cast<std::size_t>(cls);
    assert(dq.reserved_total > 0 && dq.reserved[c] > 0);
    --dq.reserved_total;
    --dq.reserved[c];
    dq.data.push_back({v, cls});
    ++dq.used[c];
  }

  /// One 64-bit dequeue register read. False = queue empty. `cls`, when
  /// given, receives the dequeued word's service class (the device tracks
  /// it for its per-class occupancy counters anyway).
  bool deq(std::uint32_t q, std::uint64_t& out, QosClass* cls = nullptr) {
    DevQueue& dq = *queues_.at(q);
    if (dq.data.empty()) return false;
    out = dq.data.front().v;
    if (cls) *cls = dq.data.front().cls;
    const auto freed = static_cast<std::size_t>(dq.data.front().cls);
    --dq.used[freed];
    dq.data.pop_front();
    // A credit freed: wake parked producers, split by NACK reason (the
    // same discipline that killed VL's wake_all thundering herd). The
    // freed word loosens both the queue's whole budget and its class's
    // cap, so wake one budget-parked waiter and — when caps are active —
    // one waiter parked on *this* class's cap; each re-checks and at most
    // one loses the race and re-parks, instead of the whole herd probing
    // the device per freed credit.
    dq.space.wake_one();
    if (class_credits_[freed] != 0) dq.class_space[freed].wake_one();
    return true;
  }

  std::uint64_t depth(std::uint32_t q) const {
    return queues_.at(q)->data.size();
  }
  /// Words of class `cls` currently queued (diagnostics/tests).
  std::uint64_t class_depth(std::uint32_t q, QosClass cls) const {
    return queues_.at(q)->used[static_cast<std::size_t>(cls)];
  }
  std::uint32_t class_credit(QosClass cls) const {
    return class_credits_[static_cast<std::size_t>(cls)];
  }
  /// Re-weight one class's credit cap online (0 = uncapped). Safe only at
  /// epoch boundaries — between event-queue steps — which is where the QoS
  /// supervisor runs. Loosening the cap wakes every producer parked on the
  /// class's cap futexes so they re-probe under the new budget; tightening
  /// wakes nobody (queued words drain under the old occupancy and new
  /// enqueues see the smaller cap on their next probe).
  void set_class_credit(QosClass cls, std::uint32_t cap) {
    const auto c = static_cast<std::size_t>(cls);
    const std::uint32_t old = class_credits_[c];
    class_credits_[c] = cap;
    const bool loosened = (cap == 0 && old != 0) || (old != 0 && cap > old);
    if (loosened)
      for (auto& q : queues_) q->class_space[c].wake_all();
  }
  /// Device-wide credit occupancy of class `cls` (queued words across all
  /// queues) — the timeline's caf.occupancy.<class> series.
  std::uint64_t class_occupancy(QosClass cls) const {
    const auto c = static_cast<std::size_t>(cls);
    std::uint64_t n = 0;
    for (const auto& q : queues_) n += q->used[c];
    return n;
  }
  /// Queues opened so far (warm-restart snapshot walks them by id —
  /// open_queue() hands out ids in creation order, so a rebuilt device
  /// whose channels open in the same order reproduces the id map).
  std::uint32_t num_queues() const {
    return static_cast<std::uint32_t>(queues_.size());
  }
  /// Warm-restart support: dump one queue's resident words in FIFO order.
  /// Call only on a quiesced device with no open frame grants (asserts
  /// reserved_total == 0 — a snapshot taken mid-frame would tear it).
  std::vector<std::pair<std::uint64_t, QosClass>> snapshot_queue(
      std::uint32_t q) const {
    const DevQueue& dq = *queues_.at(q);
    assert(dq.reserved_total == 0);
    std::vector<std::pair<std::uint64_t, QosClass>> out;
    out.reserve(dq.data.size());
    for (const Word& w : dq.data) out.emplace_back(w.v, w.cls);
    return out;
  }
  /// Budget waiters: producers NACKed because the queue's whole credit
  /// budget was exhausted (SendStatus::kFull).
  sim::WaitQueue& space_wq(std::uint32_t q) { return queues_.at(q)->space; }
  /// Class-cap waiters: producers NACKed on `cls`'s credit cap
  /// (SendStatus::kQuota) — woken only by that class draining.
  sim::WaitQueue& class_wq(std::uint32_t q, QosClass cls) {
    return queues_.at(q)->class_space[static_cast<std::size_t>(cls)];
  }
  runtime::Machine& machine() { return m_; }

 private:
  struct Word {
    std::uint64_t v;
    QosClass cls;
  };
  struct DevQueue {
    explicit DevQueue(sim::EventQueue& eq)
        : space(eq), class_space{sim::WaitQueue(eq), sim::WaitQueue(eq),
                                 sim::WaitQueue(eq)} {}
    std::deque<Word> data;
    std::uint32_t used[kQosClasses] = {0, 0, 0};  ///< occupancy by class
    std::uint32_t reserved[kQosClasses] = {0, 0, 0};  ///< open-frame grants
    std::uint32_t reserved_total = 0;
    sim::WaitQueue space;  ///< budget waiters, woken per freed credit
    sim::WaitQueue class_space[kQosClasses];  ///< class-cap waiters
  };

  runtime::Machine& m_;
  std::uint32_t credits_;
  std::uint32_t class_credits_[kQosClasses] = {0, 0, 0};
  std::vector<std::unique_ptr<DevQueue>> queues_;
};

/// CAF channel with a fixed frame length (`msg_words` register transfers
/// per message). CAF's native transfer unit is one 64-bit value; wider
/// messages are a sequence of transfers. The device's credit manager hands
/// a whole frame's worth of transfers to one endpoint at a time, modelled
/// here as per-direction frame mutexes — without them, concurrent M:N
/// producers would interleave words inside each other's frames, which the
/// real hardware's per-queue credit grant forbids. 1:1 channels (the
/// paper's Fig. 15 ping-pong) never contend on them. Because frame credits
/// are granted atomically at frame-open, the mutexes are held only for the
/// bounded register-transfer sequence — never across a credit park.
class SimCaf : public Channel {
 public:
  SimCaf(CafDevice& dev, std::uint8_t msg_words = 1, Tick device_lat = 14)
      : Channel(kRetryBackoff),
        dev_(dev),
        q_(dev.open_queue()),
        words_(msg_words),
        lat_(device_lat),
        send_mu_(dev.machine().eq()),
        recv_mu_(dev.machine().eq()) {}

  sim::Co<SendManyResult> try_send_many(sim::SimThread t,
                                        std::span<const Msg> msgs) override;
  sim::Co<std::size_t> try_recv_many(sim::SimThread t,
                                     std::span<Msg> out) override;
  std::uint64_t depth() const override { return dev_.depth(q_) / words_; }

 protected:
  void sample_send_gates(BlockGates& g, const Msg& msg) override {
    g.full = dev_.space_wq(q_).epoch();
    g.quota = dev_.class_wq(q_, msg.qos).epoch();
  }
  sim::Co<void> send_blocked(sim::SimThread t, SendStatus why,
                             BlockGates& g, const Msg& msg) override {
    // Out of credits: park until the consumer-side register read frees
    // one — on the class-cap futex when the NACK named our class's cap,
    // on the whole-budget futex otherwise (the VL-style reason split).
    sim::EventQueue& eq = t.core->eq();
    obs::TraceBuffer* const tb = eq.trace();
    const std::uint32_t lane = obs::thread_tid(t.core->id(), t.tid);
    if (tb)
      tb->begin(eq.now(), lane, "caf", "credit_wait", "qos",
                static_cast<std::uint64_t>(msg.qos));
    if (why == SendStatus::kQuota)
      co_await t.park(dev_.class_wq(q_, msg.qos), g.quota);
    else
      co_await t.park(dev_.space_wq(q_), g.full);
    if (tb) tb->end(eq.now(), lane, "caf", "credit_wait");
  }

 private:
  /// Empty-dequeue register-poll pause. CAF's dequeue *is* a polling
  /// register read — the discovery latency Fig. 15 measures — so a blocked
  /// consumer polls at this interval rather than parking.
  static constexpr Tick kRetryBackoff = 48;

  /// One frame-open device round trip (grant + first word).
  sim::Co<CafDevice::Grant> dev_open(sim::SimThread t, std::uint64_t v,
                                     QosClass cls, std::uint32_t max_frames,
                                     std::uint32_t* granted);
  /// One reserved-credit enqueue round trip (never NACKs).
  sim::Co<void> dev_enq_reserved(sim::SimThread t, std::uint64_t v,
                                 QosClass cls);
  sim::Co<bool> dev_deq(sim::SimThread t, std::uint64_t& out, QosClass* cls);
  /// Transfer the tail of a frame batch whose credits are already granted.
  sim::Co<void> transfer_reserved(sim::SimThread t, std::span<const Msg> msgs,
                                  std::size_t frames, QosClass cls);
  /// Receive one whole frame; the leading word is already dequeued.
  sim::Co<void> finish_frame(sim::SimThread t, Msg& msg);

  CafDevice& dev_;
  std::uint32_t q_;
  std::uint8_t words_;
  Tick lat_;
  sim::AsyncMutex send_mu_;  ///< Frame-grant serialization, producer side.
  sim::AsyncMutex recv_mu_;  ///< Frame-grant serialization, consumer side.
};

}  // namespace vl::squeue
