#pragma once
// SimZmq: ZeroMQ-style comparison queue (§ IV-A, "ZMQ 4.2.1").
//
// Behavioural model, matching the two properties Fig. 11 exercises:
//   1. More per-message software overhead than BLFQ (ZeroMQ's socket layer,
//      message envelopes, batching logic) — modelled as fixed extra compute
//      cycles around each operation. This is why ZMQ loses on the
//      latency-bound halo/bitonic kernels.
//   2. A high-water-mark back-pressure mechanism: producers block when the
//      channel holds `hwm` messages, so incast/FIR occupancy never spills
//      to DRAM. This is why ZMQ beats BLFQ on those two.
// Synchronization is a spin lock over the channel state (lock word, ring
// indices and cells in shared, coherent memory), which yields the elevated
// snoop/upgrade traffic Fig. 13 measures for ZMQ.
//
// Blocked endpoints do not poll: like real ZeroMQ parking a blocked socket
// on a futex, an empty-queue consumer (or full-queue producer) parks on a
// simulated WaitQueue and is woken by the state-changing side, so a blocked
// thread generates zero events and donates its core residency while it
// waits. The short-lived channel lock still spins (that coherence traffic
// is the Fig. 13 effect being modelled).
//
// Channel v2 batching mirrors real ZeroMQ's message batching: one socket
// software pass and one channel-lock acquisition move a contiguous run of
// ring cells, so the per-message lock/unlock and envelope cost is paid once
// per batch.

#include "sim/sync.hpp"
#include "squeue/channel.hpp"
#include "runtime/machine.hpp"

namespace vl::squeue {

class SimZmq : public Channel {
 public:
  /// `hwm` (power of two) is the high-water mark / ring capacity.
  SimZmq(runtime::Machine& m, std::size_t hwm, Tick sw_overhead = 250);

  sim::Co<SendManyResult> try_send_many(sim::SimThread t,
                                        std::span<const Msg> msgs) override;
  sim::Co<std::size_t> try_recv_many(sim::SimThread t,
                                     std::span<Msg> out) override;
  std::uint64_t depth() const override;
  sim::WaitQueue* recv_wq() override { return &not_empty_; }

 protected:
  void sample_send_gates(BlockGates& g, const Msg&) override {
    g.full = not_full_.epoch();
  }
  sim::Co<void> send_blocked(sim::SimThread t, SendStatus,
                             BlockGates& g, const Msg&) override {
    // High-water mark: park until a consumer frees a slot (the
    // back-pressure path) instead of burning events polling.
    co_await t.park(not_full_, g.full);
  }

 private:
  sim::Co<void> lock(sim::SimThread t);
  sim::Co<void> unlock(sim::SimThread t);
  sim::Co<void> store_cell(sim::SimThread t, std::uint64_t pos,
                           const Msg& msg);
  sim::Co<Msg> load_cell(sim::SimThread t, std::uint64_t pos);
  Addr cell(std::uint64_t pos) const {
    return cells_ + (pos & mask_) * kCellStride;
  }

  static constexpr Addr kCellStride = 2 * kLineSize;
  /// Longest run moved under one lock hold / software pass.
  static constexpr std::size_t kMaxRun = 8;

  runtime::Machine& m_;
  std::size_t hwm_;
  std::uint64_t mask_;
  Tick overhead_;
  Addr lock_ = 0;   ///< spin-lock word (own line)
  Addr meta_ = 0;   ///< head (+0) and tail (+8), lock-protected, one line
  Addr cells_ = 0;
  sim::WaitQueue not_empty_;  ///< consumers park here when head == tail
  sim::WaitQueue not_full_;   ///< producers park here at the high-water mark
  sim::WaitQueue lock_wq_;    ///< adaptive channel-lock wait (spin, then park)
};

}  // namespace vl::squeue
