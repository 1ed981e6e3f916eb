#pragma once
// Selector: wait-any / select over N channel endpoints for one consumer.
//
// Replaces hand-rolled multi-queue poll loops: the consumer probes its
// endpoints in a deterministic rotating order and, when all are empty,
// blocks *once* for all of them —
//
//   * If every endpoint publishes a consumer-readiness futex (recv_wq():
//     the ZMQ rings), the consumer parks on all N WaitQueues at once via
//     the sim layer's ParkAny and is resumed by the first wake any of them
//     delivers; readiness epochs are sampled before the probes, so a
//     publish landing mid-probe falls through the park (no lost wakeup).
//     A parked selector costs zero events while blocked.
//   * Otherwise (VL's § III-B control-word discovery, CAF/BLFQ register or
//     ring polling) it polls the whole set every Channel::kPollBackoff
//     ticks, the § III-B discovery interval — one bounded pass per
//     interval instead of N independent spinning consumers.
//
// Wake handling is deterministic: probes always scan from the slot after
// the last served endpoint (rotating fairness), so two identical runs
// serve identical sequences — the property the selector determinism test
// pins down.

#include <cstddef>
#include <vector>

#include "squeue/channel.hpp"

namespace vl::squeue {

class Selector {
 public:
  Selector() = default;

  /// Add an endpoint; returns its index (stable, in add order).
  std::size_t add(Channel& ch) {
    chans_.push_back(&ch);
    return chans_.size() - 1;
  }

  std::size_t size() const { return chans_.size(); }
  Channel& channel(std::size_t i) { return *chans_.at(i); }

  struct Item {
    std::size_t index = 0;  ///< Which endpoint delivered.
    Msg msg{};
  };

  /// Block until any endpoint has a message and receive it. Fair and
  /// deterministic: the probe order rotates one past the last served
  /// endpoint.
  sim::Co<Item> recv_any(sim::SimThread t) {
    assert(!chans_.empty());
    const std::size_t n = chans_.size();
    for (;;) {
      // Futex protocol, per endpoint: sample every readiness epoch before
      // probing so a publish during the probe pass is never lost.
      bool all_parkable = true;
      wqs_.clear();
      gates_.clear();
      for (Channel* ch : chans_) {
        sim::WaitQueue* wq = ch->recv_wq();
        if (!wq) {
          all_parkable = false;
          break;
        }
        wqs_.push_back(wq);
        gates_.push_back(wq->epoch());
      }
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (next_ + k) % n;
        RecvResult r = co_await chans_[i]->try_recv(t);
        if (r.ok()) {
          next_ = (i + 1) % n;
          co_return Item{i, r.msg};
        }
      }
      if (all_parkable)
        co_await t.park_any(wqs_, gates_);
      else
        co_await t.compute(Channel::kPollBackoff);
    }
  }

 private:
  std::vector<Channel*> chans_;
  std::size_t next_ = 0;  ///< Rotating probe start (fairness).
  // Scratch for the park pass (avoids per-block reallocation).
  std::vector<sim::WaitQueue*> wqs_;
  std::vector<std::uint64_t> gates_;
};

}  // namespace vl::squeue
