#pragma once
// Core-side model of the three VL ISA extensions (paper § III-B):
//
//   vl_select Rt     — translate + latch the PA of the cache line at VA Rt,
//                      bringing it into L1D in Exclusive state (like a store
//                      miss would). The latch is a system register, not
//                      context state: it clears on context switch.
//   vl_push Rs, Rt   — conditionally write the selected line to the VLRD
//                      device address in Rt. Rs=0 on success; nonzero when
//                      no selection was made or the VLRD NACKs (full).
//                      On success the producer line is zeroed and left
//                      Exclusive, ready for the next enqueue.
//   vl_fetch Rs, Rt  — register consumer demand: sets the "pushable" tag
//                      bit on the selected line and sends (target PA,
//                      core-id) to the VLRD. Rs=0 when the request was
//                      registered (or data is already on the way).
//
// Both vl_push and vl_fetch hold the core's issue port until the device
// response arrives, modelling the paper's guarantee that no context swap or
// interrupt can occur before Rs receives the result. Context switches clear
// the per-thread selection latch and all pushable bits in the core's L1.

#include <span>
#include <unordered_map>

#include "mem/hierarchy.hpp"
#include "sim/core.hpp"
#include "vlrd/addressing.hpp"
#include "vlrd/cluster.hpp"
#include "vlrd/vlrd.hpp"

namespace vl::isa {

/// vl_push / vl_fetch result codes (values written to Rs).
enum VlStatus : int {
  kVlOk = 0,
  kVlNoSelection = 1,  ///< No preceding vl_select (or cleared by ctx swap).
  kVlNack = 2,         ///< VLRD out of buffer capacity (back-pressure).
  kVlEvicted = 3,      ///< Selected line left the L1 before vl_fetch.
  kVlFault = 4,        ///< Device address missed the routing table
                       ///< (kAddrTable scheme only).
  kVlNackQuota = 5,    ///< VLRD NACK for a per-SQI / per-class quota rather
                       ///< than a full buffer: retrying is pointless until
                       ///< *this* SQI drains, so callers park on the SQI's
                       ///< wait queue instead of the global space futex.
};

class VlPort {
 public:
  VlPort(sim::Core& core, mem::Hierarchy& hier, vlrd::Cluster& devs,
         const sim::VlrdConfig& cfg);

  sim::Co<void> vl_select(int tid, Addr va);
  sim::Co<int> vl_push(int tid, Addr dev_va);
  sim::Co<int> vl_fetch(int tid, Addr dev_va);

  // Fused select+op pairs: the two instructions issue back-to-back in one
  // scheduling quantum (one port hold), the way a real thread executes
  // them. Issuing them as separate port transactions is also legal — but
  // when two endpoint threads time-share a core, the FIFO issue port then
  // interleaves their ops, and every context switch clears the selection
  // latch before the second instruction reads it: neither thread can ever
  // complete a pair (a livelock the paper's FIR discussion does not
  // intend — real timeslices span many instructions).
  //
  // vl_select_fetch arms the line's pushable tag before the bus transit
  // (as vl_fetch does); the fetch burst arms each tag on arrival at the
  // device, so the single form is kept for the consumer's one-line probe.
  sim::Co<int> vl_select_fetch(int tid, Addr va, Addr dev_va);

  // Burst forms (Channel API v2 batching): the select+op pair sequence for
  // a run of lines issues as one macro-op — one port hold, one bus transit,
  // one device arrival, one response. The device admits the run under a
  // single prodBuf/quota acquisition, NACKing at the first line that does
  // not fit; `*accepted` / `*registered` receive the length of the admitted
  // prefix. The per-line work that carries the paper's cost model — cache
  // fills of each selected line, per-line device buffer occupancy — is
  // unchanged; only the per-message instruction/transit overhead amortizes.
  // Every runtime::Producer push is a select+push burst (a single line is
  // a run of one: the same port hold, transit and response).
  sim::Co<int> vl_select_push_burst(int tid, std::span<const Addr> vas,
                                    Addr dev_va, std::size_t* accepted);
  sim::Co<int> vl_select_fetch_burst(int tid, std::span<const Addr> vas,
                                     Addr dev_va, std::size_t* registered);

  /// True if `tid` currently holds a selection (test helper).
  bool has_selection(int tid) const { return latched_.count(tid) != 0; }

 private:
  /// vl_push tail: the port is already held and `line` latched.
  sim::Co<int> push_selected(Addr line, Addr dev_va);
  /// vl_fetch tail: the port is already held and `line` latched.
  sim::Co<int> fetch_selected(Addr line, Addr dev_va);

  sim::Core& core_;
  mem::Hierarchy& hier_;
  vlrd::Cluster& devs_;  ///< Routed per-access by the VA's VLRD-id bits.
  sim::VlrdConfig cfg_;
  std::unordered_map<int, Addr> latched_;  ///< tid -> selected line PA.
};

}  // namespace vl::isa
