#pragma once
// Snooping MESI cache hierarchy: per-core private L1D, shared mostly-
// inclusive LLC, DRAM with a simple bandwidth model, all hanging off one
// atomic coherence bus. Implements sim::MemoryPort for the cores and
// exposes the device/injection hooks the VLRD needs:
//
//   * device writes are non-snooping bus transactions (vl_push/vl_fetch),
//   * inject() stashes a whole line into a target L1, gated by the
//     "pushable" tag bit exactly as § III-B specifies.
//
// Timing model: the bus serializes transactions (bus_busy_until_); each
// transaction's latency is composed from the CacheConfig costs. Because the
// protocol runs on an atomic bus there are no transient states — tag-state
// changes apply at transaction grant, functional data commits at the
// completion event (see README.md, "Timing model", for why this preserves
// correctness).

#include <cstdint>
#include <functional>

#include "mem/main_memory.hpp"
#include "mem/stats.hpp"
#include "mem/tag_store.hpp"
#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/mem_port.hpp"

namespace vl::mem {

class Hierarchy : public sim::MemoryPort {
 public:
  Hierarchy(sim::EventQueue& eq, std::uint32_t num_cores,
            const sim::CacheConfig& cfg);

  // --- sim::MemoryPort -------------------------------------------------
  void issue(const sim::MemRequest& req, sim::MemDone& done) override;

  // --- functional access (setup / checkpointing, no timing) ------------
  MainMemory& backing() { return mem_; }
  const MainMemory& backing() const { return mem_; }

  // --- device-side interface (used by isa::VlPort and the VLRD) --------

  /// A non-snooping device-memory write/read slot on the coherence network.
  /// Returns the tick at which the device observes the request.
  Tick device_hop(Tick extra_cost = 0);

  /// Stash `data` into core `target`'s L1 at `line_addr`. Succeeds only if
  /// the line is resident with its pushable bit set; on success the line
  /// becomes Exclusive, pushable clears, and the payload commits to the
  /// backing store. Returns false (and counts a reject) otherwise.
  bool inject(CoreId target, Addr line_addr, const void* data);

  /// vl_select side effect: obtain the line in Exclusive state in `core`'s
  /// L1 (RFO if needed). Returns the latency of the fill.
  Tick select_line(CoreId core, Addr line_addr);

  /// vl_fetch side effect: set the pushable bit (line must be resident —
  /// select_line() is always called first per the ISA contract).
  /// Returns false if the line has been evicted since selection.
  bool set_pushable(CoreId core, Addr line_addr, bool on);

  /// Clear every pushable bit in `core`'s L1 (context switch / migration).
  void clear_pushable(CoreId core);

  /// Zero a producer line after a successful vl_push copy-over; the line
  /// stays resident in Exclusive state (§ III, "zeroed and exclusive").
  void zero_and_exclusive(CoreId core, Addr line_addr);

  /// Read a line's committed content (VLRD pulls the pushed payload).
  void peek_line(Addr line_addr, void* out) const { mem_.read_line(line_addr, out); }

  // --- introspection ----------------------------------------------------
  const MemStats& stats() const { return stats_; }
  MemStats& stats() { return stats_; }
  Mesi l1_state(CoreId core, Addr line_addr) const;
  bool l1_pushable(CoreId core, Addr line_addr) const;
  sim::EventQueue& eq() { return eq_; }
  const sim::CacheConfig& cfg() const { return cfg_; }

  /// Optional trace hook fired on every coherence transaction
  /// (used by the Fig. 3-style lock-line trace test).
  using TraceHook =
      std::function<void(Tick, CoreId, Addr, const char* what)>;
  void set_trace(TraceHook h) { trace_ = std::move(h); }

 private:
  /// Obtain `line` in `core`'s L1 with at least the required right
  /// (exclusive: writable M, else readable S/E); returns the latency.
  Tick access_line(CoreId core, Addr line, bool exclusive);

  /// LLC lookup/fill; adds latency and DRAM traffic to `lat`.
  void llc_fetch(Addr line, Tick& lat);
  /// LLC fill or dirty merge (a dirty victim's writeback is an off-path burst).
  void llc_insert(Addr line, bool dirty);

  Tick bus_slot(Tick cost);
  Tick dram_access(bool write);

  void trace(CoreId c, Addr a, const char* what) {
    if (trace_) trace_(eq_.now(), c, a, what);
  }

  sim::EventQueue& eq_;
  sim::CacheConfig cfg_;
  MainMemory mem_;
  TagStore l1_;   // one bank per core
  TagStore llc_;  // one bank
  MemStats stats_;
  Tick bus_busy_until_ = 0;
  Tick dram_busy_until_ = 0;
  TraceHook trace_;
};

}  // namespace vl::mem
