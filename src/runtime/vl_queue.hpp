#pragma once
// User-space VL queue library (paper § III-C3/III-D, Figs. 8b & 10).
//
// Message line format (Fig. 10): a 2 B control region at the most
// significant bytes (offsets 62..63) of each transported 64 B line; the
// remaining 62 B carry payload. Within the control region, 2 bits encode
// the element size, 6 bits a line-relative offset/head pointer, and one
// byte is reserved. Valid data fills the data region from higher addresses
// toward the LSB. Up to 7 doublewords fit per line.
//
// Each endpoint owns a small circular buffer of cacheable user-space lines
// (posix_memalign-style allocation), kept cache-local: producers reuse
// lines the hardware zeroed after copy-over; consumers re-arm lines after
// draining them.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/supervisor.hpp"

namespace vl::runtime {

// --- Fig. 10 control-region codec -----------------------------------------

inline constexpr std::size_t kCtrlOffset = kLineCtrlOffset;  ///< @ line MSBs

/// Size codes (2 bits): byte / half / word / doubleword.
enum class ElemSize : std::uint8_t { kByte = 0, kHalf = 1, kWord = 2, kDword = 3 };

/// Bytes per element for a size code.
inline constexpr std::size_t elem_bytes(ElemSize sz) {
  return std::size_t{1} << static_cast<std::uint8_t>(sz);
}

/// Elements of `sz` that fit in the 62 B data region.
inline constexpr std::uint8_t max_elems(ElemSize sz) {
  return static_cast<std::uint8_t>(kCtrlOffset / elem_bytes(sz));
}

/// Pack control: [15:14] size code, [13:8] offset/head (here: element
/// count), [7:0] reserved — repurposed to carry the message's QosClass so
/// the routing device can enforce per-class quotas with no out-of-band
/// tenant state (untagged traffic reads 0 == kStandard). A zero control
/// word means "line empty/clean".
inline constexpr std::uint16_t pack_ctrl(ElemSize sz, std::uint8_t count,
                                         QosClass qos = QosClass::kStandard) {
  return static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(sz) << 14) |
      (static_cast<std::uint16_t>(count & 0x3f) << 8) |
      static_cast<std::uint16_t>(qos));
}
inline constexpr QosClass ctrl_qos(std::uint16_t ctrl) {
  return qos_class_from_byte(static_cast<std::uint8_t>(ctrl & 0xff));
}
inline constexpr std::uint8_t ctrl_count(std::uint16_t ctrl) {
  return static_cast<std::uint8_t>((ctrl >> 8) & 0x3f);
}
inline constexpr ElemSize ctrl_size(std::uint16_t ctrl) {
  return static_cast<ElemSize>((ctrl >> 14) & 0x3);
}
/// Payload offset of element i of n (size `sz`): valid data fills the data
/// region from the higher addresses toward the LSB, so the n used slots
/// occupy the top of the region (a 1-element frame sits just under the
/// control word) and lower slots stay clean.
inline constexpr std::size_t elem_offset(ElemSize sz, std::uint8_t i,
                                         std::uint8_t n) {
  return (max_elems(sz) - n + i) * elem_bytes(sz);
}

/// Dword special case (the common framing).
inline constexpr std::size_t dword_offset(std::uint8_t i, std::uint8_t n) {
  return elem_offset(ElemSize::kDword, i, n);
}

// --- endpoints --------------------------------------------------------------

/// Handle for an open VL queue: queue descriptor (routing device + SQI)
/// plus producer/consumer page mappings. Obtained from VlQueueLib::open().
struct QueueHandle {
  std::string name;            ///< shm_open name (for diagnostics).
  int desc = 0;                ///< Supervisor descriptor (device*kMaxSqi+sqi).
  std::uint32_t vlrd_id = 0;   ///< Routing device serving this queue.
  Sqi sqi = 0;                 ///< SQI within that device's linkTab.
  Addr prod_page = 0;
  Addr cons_page = 0;
};

/// One message line's worth of payload: a borrowed view of up to
/// max_elems(size) elements of one Fig. 10 size code (values truncated to
/// the element width) plus the service class stamped into the line's
/// control byte.
struct LineView {
  const std::uint64_t* w = nullptr;
  std::uint8_t n = 0;
  QosClass qos = QosClass::kStandard;
  ElemSize size = ElemSize::kDword;
};

/// Outcome of a burst enqueue: how many leading lines the device accepted
/// and, when short, the vl_push status that stopped the run.
struct BurstResult {
  std::size_t accepted = 0;
  int rc = 0;  ///< isa::kVlOk when every line went.
};

/// Producer endpoint: local circular buffer + mapped device address.
///
/// Every enqueue is a staged burst (single-line calls are bursts of one):
/// up to buf_lines message lines are written into the endpoint ring ONCE
/// and pushed to the routing device in ONE fused port transaction — one
/// selection sequence, one bus transit, one device arrival at which the
/// VLRD admits the run under a single prodBuf/quota acquisition, one
/// response. The device accepts a prefix; unaccepted lines keep their data
/// (as the paper's line does until the device copies it), so a retry after
/// a NACK re-pays only the push, not the payload stores.
class Producer {
 public:
  /// Throws std::length_error when the queue's producer page has no free
  /// endpoint slot.
  Producer(Machine& m, const QueueHandle& q, Supervisor& sup,
           sim::SimThread thread, std::size_t buf_lines = 8);

  /// Called once per NACK of a blocking enqueue with the vl_push status
  /// (isa::kVlNackQuota or a full-buffer NACK) and the line that stopped
  /// the run, before the producer parks.
  using NackObserver = std::function<void(int rc, const LineView& stopper)>;

  /// Non-blocking attempt for one message line of up to 7 doublewords;
  /// false when the VLRD NACKs (back-pressure).
  sim::Co<bool> try_enqueue(std::span<const std::uint64_t> words);

  /// Non-blocking burst attempt: stages up to buf_lines lines and pushes
  /// them once; reports the accepted prefix and the stopper's NACK status
  /// for the caller's parking decision.
  sim::Co<BurstResult> try_enqueue_burst(std::span<const LineView> lines);

  /// Blocking enqueue of every line, a ring's worth per lap. A quota NACK
  /// parks on the per-(device, SQI) quota futex, handing back any space
  /// credits it cannot use; a full buffer waits on the machine's space
  /// credit gate for the whole unpushed run (at most one prodBuf), so one
  /// wake carries an n-slot grant and the re-push re-injects the run in
  /// one transaction.
  sim::Co<void> enqueue_burst(std::span<const LineView> lines,
                              NackObserver on_nack = {});

  /// Blocking one-line enqueues (standard class).
  sim::Co<void> enqueue(std::span<const std::uint64_t> elems,
                        ElemSize size = ElemSize::kDword);
  sim::Co<void> enqueue1(std::uint64_t w);

  /// OS thread migration: subsequent enqueues issue from `to`'s core. A
  /// producer holds no cross-call device state (the selection latch is
  /// per-op), so migration is just a rebind.
  void migrate(sim::SimThread to) { t_ = to; }

  std::uint64_t retries() const { return retries_; }
  Addr endpoint_va() const { return dev_va_; }
  sim::SimThread thread() const { return t_; }

 private:
  /// Write up to buf_lines lines into the ring (data region high-to-low,
  /// then the control word); returns the count staged.
  sim::Co<std::size_t> stage_burst(std::span<const LineView> lines);
  /// Push the staged run's lines [offset, offset+count) in one fused port
  /// transaction; accepted lines recycle through the ring.
  sim::Co<BurstResult> push_staged(std::size_t offset, std::size_t count);

  Machine& m_;
  sim::SimThread t_;
  Addr dev_va_ = 0;
  std::uint32_t vlrd_id_ = 0;  ///< Routing device (quota futex key)…
  Sqi sqi_ = 0;                ///< …and SQI within it.
  std::vector<Addr> buf_;  // user-space lines (circular)
  std::size_t cur_ = 0;
  std::vector<Addr> staged_;  ///< Ring lines of the current staged burst.
  std::uint64_t retries_ = 0;
};

/// One decoded message line: the Fig. 10 size code and its elements
/// (values zero-extended to 64 bits), plus the service class carried in
/// the control region's reserved byte.
struct Frame {
  ElemSize size = ElemSize::kDword;
  QosClass qos = QosClass::kStandard;
  std::vector<std::uint64_t> elems;
};

/// Consumer endpoint.
class Consumer {
 public:
  /// Throws std::length_error when the queue's consumer page has no free
  /// endpoint slot.
  Consumer(Machine& m, const QueueHandle& q, Supervisor& sup,
           sim::SimThread thread, std::size_t buf_lines = 8);

  /// Blocking dequeue of one message line, decoding any Fig. 10 element
  /// size: try_dequeue_once() at the § III-B control-word poll interval.
  /// After a context switch (or long silence) the demand registration is
  /// re-issued, which is safe because VLRD registration is idempotent per
  /// consumer target.
  sim::Co<Frame> dequeue();
  /// Blocking dequeue of a one-element line.
  sim::Co<std::uint64_t> dequeue1();

  /// Cheapest non-blocking probe (Channel API v2 core): one control-word
  /// poll of the current ring line, arming demand lazily — the fetch
  /// registration is issued only when the line is not armed yet, and
  /// re-issued after kRefetchThreshold misses (the § III-B recovery path),
  /// so repeated probes cost one load each instead of a device round trip.
  sim::Co<std::optional<Frame>> try_dequeue_once();

  /// Register demand for up to `k` ring lines ahead (k capped at the ring
  /// size) in ONE fused port transaction, so a burst of queued messages is
  /// injected into consecutive lines and then drained by pure local polls.
  /// Demand registered ahead pins messages to this endpoint, so a sharer
  /// must treat it as a LEASE: drain, then release_ahead() + sweep_landed()
  /// so unclaimed messages recover to the other consumers (§ III-B).
  sim::Co<void> arm_ahead(std::size_t k);

  /// Release the demand lease: drop every pushable tag this endpoint
  /// armed (migrate()'s mechanism without the thread rebind). In-flight
  /// injections aimed at our lines are rejected and their data recovers
  /// through the device's § III-B path to whoever holds live demand.
  void release_ahead();

  /// Scan the ring — current line first — for a frame that already landed,
  /// regardless of arrival order. A rejected injection makes the device
  /// recycle the *next* waiting registration for the returned data, so a
  /// message can land one line ahead of the poll cursor; at a traffic tail
  /// no later message refills the skipped line and an in-order-only poll
  /// would wait forever. On a hit the cursor resynchronizes past the line.
  sim::Co<std::optional<Frame>> sweep_landed();

  /// OS thread migration (§ III-B): clears every "pushable" tag this
  /// endpoint armed on the old core, so in-flight injections are rejected
  /// and their data stays with the VLRD; the next dequeue from `to`'s core
  /// re-registers demand and recovers the message. Lines already injected
  /// into the endpoint buffer remain readable — the new core pulls them
  /// through ordinary coherence.
  void migrate(sim::SimThread to);

  Addr endpoint_va() const { return dev_va_; }
  sim::SimThread thread() const { return t_; }

 private:
  sim::Co<std::optional<Frame>> poll_once(Addr line);

  Machine& m_;
  sim::SimThread t_;
  Addr dev_va_ = 0;
  std::vector<Addr> buf_;
  std::vector<bool> armed_;  ///< Lines with a live fetch registration.
  std::size_t cur_ = 0;
  int polls_since_fetch_ = 0;  ///< try_dequeue_once() refetch counter.
};

/// Library facade tying Supervisor + endpoints together (Fig. 8b flow).
class VlQueueLib {
 public:
  explicit VlQueueLib(Machine& m)
      : m_(m), sup_(m.cfg().vlrd.num_devices) {
    if (m.cfg().vlrd.addressing == sim::Addressing::kAddrTable)
      sup_.attach_addr_table(&m.cluster().addr_table());
  }

  /// Steps (1)-(5) of Fig. 8b: shm_open the name, mmap producer and
  /// consumer pages. Throws std::length_error when every routing device's
  /// SQIs or the queue's page budget are exhausted.
  QueueHandle open(const std::string& name);

  Producer make_producer(const QueueHandle& q, sim::SimThread t,
                         std::size_t buf_lines = 8) {
    return Producer(m_, q, sup_, t, buf_lines);
  }
  Consumer make_consumer(const QueueHandle& q, sim::SimThread t,
                         std::size_t buf_lines = 8) {
    return Consumer(m_, q, sup_, t, buf_lines);
  }

  Supervisor& supervisor() { return sup_; }
  Machine& machine() { return m_; }

 private:
  Machine& m_;
  Supervisor sup_;
};

}  // namespace vl::runtime
