#pragma once
// SimBlfq: the Boost-Lock-Free-Queue baseline executed through the
// simulated coherence hierarchy.
//
// Structure: a bounded MPMC ring with per-cell sequence numbers
// (Dmitry Vyukov's algorithm — the same shared-state pattern as BLFQ:
// producers CAS a shared tail index, consumers CAS a shared head index).
// Those two hot words are what Fig. 1/3/4 are about: every CAS needs
// exclusive ownership, so N contenders drive ~N invalidations and S->M
// upgrades per operation through the cache model — organically, because
// every access below is a real simulated load/store/CAS.
//
// Each cell spans two cache lines: a metadata line (sequence word) and a
// payload line, mirroring a 64 B-payload node in a real queue. BLFQ has no
// back-pressure (it is node-based/unbounded in the paper); we size the ring
// large enough that incast/FIR occupancy spills past the LLC exactly the
// way the paper's Fig. 11c shows. If the ring does fill, producers poll —
// by then the experiment's point has long been made. Neither side has a
// wake source, so both blocked producers and blocked consumers poll the
// ring at the base Channel policy, every kEmptyBackoff (32) ticks.
//
// Channel v2 batching: a producer claims a contiguous run of cells with a
// single CAS on the shared tail (consumers likewise on the head). The
// per-cell payload traffic is unchanged — the batch amortizes only the
// contended index CAS, which is exactly the shared state the figures
// measure. A run of one is the classic single-slot protocol, so the
// batched attempts are the only ones this backend implements.

#include "squeue/channel.hpp"
#include "runtime/machine.hpp"

namespace vl::squeue {

class SimBlfq : public Channel {
 public:
  /// `capacity` must be a power of two.
  SimBlfq(runtime::Machine& m, std::size_t capacity);

  sim::Co<SendManyResult> try_send_many(sim::SimThread t,
                                        std::span<const Msg> msgs) override;
  sim::Co<std::size_t> try_recv_many(sim::SimThread t,
                                     std::span<Msg> out) override;
  std::uint64_t depth() const override;

 private:
  Addr cell_meta(std::uint64_t pos) const {
    return cells_ + (pos & mask_) * kCellStride;
  }
  Addr cell_data(std::uint64_t pos) const {
    return cell_meta(pos) + kLineSize;
  }
  sim::Co<void> store_cell(sim::SimThread t, std::uint64_t pos,
                           const Msg& msg);
  sim::Co<Msg> load_cell(sim::SimThread t, std::uint64_t pos);

  /// A run of cells claimed by one index CAS: positions [pos, pos + n).
  struct Claim {
    std::uint64_t pos = 0;
    std::size_t n = 0;
  };
  /// Claim up to `max` ready cells at the shared `index` (tail for
  /// producers, head for consumers). A cell at position p is ready when its
  /// sequence reads p + lag: recycled (lag 0) for a producer, published
  /// (lag 1) for a consumer. n == 0: not even one cell is ready (full /
  /// empty). A run of one is exactly the single-slot Vyukov protocol.
  sim::Co<Claim> claim(sim::SimThread t, Addr index, std::size_t max,
                       std::uint64_t lag);
  /// Wait until inner cell `pos` of a claimed run reads sequence `seq`.
  sim::Co<void> await_inner(sim::SimThread t, std::uint64_t pos,
                            std::uint64_t seq);

  static constexpr Addr kCellStride = 2 * kLineSize;
  /// Longest contiguous run one index CAS may claim.
  static constexpr std::size_t kMaxRun = 8;

  runtime::Machine& m_;
  std::size_t cap_;
  std::uint64_t mask_;
  Addr tail_ = 0;   ///< shared enqueue index (its own line)
  Addr head_ = 0;   ///< shared dequeue index (its own line)
  Addr cells_ = 0;
};

}  // namespace vl::squeue
