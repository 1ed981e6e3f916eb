#pragma once
// VlChannel: the Channel adapter over the VL runtime library. Each calling
// thread lazily opens its own endpoint (unique 64 B device-address offset +
// private user-space line buffer) the first time it sends or receives —
// exactly the paper's model where every producer/consumer owns endpoint
// state and *no* queue state is shared between threads.
//
// Channel v2 fast paths: try_send_many stages a run of message lines in
// the endpoint ring and pushes them with one fused port transaction under
// one prodBuf/quota acquisition (Producer::try_enqueue_burst); on a
// single-consumer channel try_recv_many registers demand for a run of
// lines at once (Consumer::arm_ahead) so a queued burst injects into
// consecutive lines and drains by pure local control-word polls.
//
// Blocking sends — single ones included, as one-element runs — go through
// send_many, which is runtime::Producer::enqueue_burst (the library's one
// blocking enqueue) inside a chan/send_many trace span: a lap's lines are
// staged once and keep their data through a NACK, as the paper's line does
// until the device copies it, so only the fused push retries. A quota NACK
// parks on the per-(device,SQI) quota futex; a full buffer waits on the
// machine's space credit gate for the whole unpushed run (see
// sim/README.md).

#include <map>
#include <memory>

#include "isa/vl_port.hpp"
#include "runtime/vl_queue.hpp"
#include "squeue/channel.hpp"

namespace vl::squeue {

class VlChannel : public Channel {
 public:
  VlChannel(runtime::VlQueueLib& lib, const std::string& name,
            std::size_t buf_lines = 8)
      : lib_(lib), q_(lib.open(name)), buf_lines_(buf_lines) {}

  /// A sharer's single probe keeps its demand registration armed across
  /// calls (try_recv_many's lease would release it), so a blocking recv
  /// polls one standing registration.
  sim::Co<RecvResult> try_recv(sim::SimThread t) override;
  sim::Co<SendManyResult> try_send_many(sim::SimThread t,
                                        std::span<const Msg> msgs) override;
  sim::Co<std::size_t> try_recv_many(sim::SimThread t,
                                     std::span<Msg> out) override;

  /// Blocking batched send: Producer::enqueue_burst, which writes each lap
  /// of lines into the endpoint ring ONCE and retries only the fused push
  /// after a back-pressure park — a woken producer re-pays one port
  /// transaction, not the payload stores. Traces like Channel::send_many
  /// (span plus one instant per NACK, from the producer's NACK observer).
  sim::Co<void> send_many(sim::SimThread t, std::span<const Msg> msgs) override;

  /// Message lines queued in the routing device for this channel's SQI
  /// (one line == one message). Lines already injected into a consumer's
  /// endpoint buffer but not yet drained are not counted — depth() is the
  /// device-resident backlog, the quantity back-pressure acts on.
  std::uint64_t depth() const override;

  std::uint64_t producer_retries() const;

  /// SQI re-registration (lifecycle reconfig@): Consumer::migrate() onto
  /// the same thread — every pushable tag this endpoint armed drops, an
  /// in-flight injection rejects and its line recovers through the
  /// device's § III-B path, and the next receive re-registers demand.
  /// Frames already landed in the endpoint ring stay readable (the
  /// landed-frame sweep covers out-of-order landings), so no message is
  /// lost or duplicated.
  void reconfigure(sim::SimThread t) override;

 private:
  // A blocked receive polls at the base Channel's default interval,
  // kPollBackoff — the § III-B control-word discovery interval; the VLRD
  // does not wake consumers.
  using Key = std::pair<CoreId, int>;  // (core, tid)
  runtime::Producer& producer_for(sim::SimThread t);
  runtime::Consumer& consumer_for(sim::SimThread t);
  static SendStatus status_from(int rc) {
    return rc == isa::kVlNackQuota ? SendStatus::kQuota : SendStatus::kFull;
  }

  runtime::VlQueueLib& lib_;
  runtime::QueueHandle q_;
  std::size_t buf_lines_;
  std::map<Key, std::unique_ptr<runtime::Producer>> producers_;
  std::map<Key, std::unique_ptr<runtime::Consumer>> consumers_;
};

}  // namespace vl::squeue
