#pragma once
// The Virtual-Link Routing Device (paper § III-A, Fig. 7).
//
// Structures, faithfully reproduced:
//   linkTab  — per-SQI metadata: head/tail of the producer-data and
//              consumer-request linked lists threaded through the buffers.
//   prodBuf  — shared producer buffer with three partitions:
//                IN   (valid, SQI, 64 B data, nextIn input-order list)
//                LINK (nextL per-SQI list of data waiting for consumers)
//                OUT  (mapped entries: consumer target + consBuf index)
//   consBuf  — shared consumer-request buffer (valid, SQI, consTgt, nextL
//              per-SQI wait list, nextIn input-order list).
//   Registers: PIFR/CIFR rotating free-slot pointers; PIHR/PITR and
//              CIHR/CITR input-order list head/tail; POHR/POTR output list.
//
// A 3-stage address-mapping pipeline (Table I) pairs producer pushes with
// consumer pulls: Stage 1 reads linkTab, Stage 2 makes the hit/miss mapping
// decision, Stage 3 commits writes. Stages execute oldest-first within a
// cycle, which yields the same-cycle RAW forwarding the paper's Table I
// annotates. An injection engine drains the OUT list, stashing lines into
// consumer L1s via mem::Hierarchy::inject(); rejected stashes (pushable bit
// unset) return the data to the head of the SQI's producer list so the
// consumer's re-issued vl_fetch can claim it (§ III-B).
//
// Back-pressure: a push (fetch) is NACKed when prodBuf (consBuf) has no
// free slot — this is the paper's low-overhead back-pressure mechanism.
//
// VL(ideal) mode (cfg.ideal): unbounded buffers and zero-latency transfers,
// used by Figs. 11/12 to bound how much the hardware limits cost.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mem/hierarchy.hpp"
#include "sim/config.hpp"
#include "sim/event_queue.hpp"

namespace vl::vlrd {

struct VlrdStats {
  std::uint64_t pushes = 0;
  std::uint64_t push_nacks = 0;
  std::uint64_t push_quota_nacks = 0;  ///< Subset of push_nacks: per-SQI or
                                       ///< per-class quota, not a full buffer.
  std::uint64_t fetches = 0;
  std::uint64_t fetch_nacks = 0;
  std::uint64_t matches = 0;
  std::uint64_t inject_ok = 0;
  std::uint64_t inject_retry = 0;
  std::uint64_t pipeline_cycles = 0;
};

/// One row of pipeline activity, for the Table I trace test. Structured
/// fields mirror what each stage latched/decided; the strings render the
/// same information in Table I's notation.
struct PipeTraceRow {
  std::uint64_t cycle = 0;
  // Stage 1 (linkTab read)
  bool s1_valid = false;
  bool s1_consumer = false;
  std::uint16_t s1_idx = kNil;
  Sqi s1_sqi = 0;
  std::uint16_t s1_head = kNil;  ///< Opposing-list head (prodHead/consHead).
  std::uint16_t s1_tail = kNil;  ///< Own-list tail (consTail/prodTail).
  // Stage 2 (mapping decision)
  bool s2_valid = false;
  bool s2_hit = false;
  // Stage 3 (table/buffer writes)
  bool s3_valid = false;
  bool s3_hit = false;
  bool s3_consumer = false;
  std::uint16_t s3_idx = kNil;
  std::string stage1, stage2, stage3;
};

class Vlrd {
 public:
  Vlrd(sim::EventQueue& eq, mem::Hierarchy& hier, const sim::VlrdConfig& cfg);

  /// Why the most recent push() NACKed. kQuota means a per-SQI or
  /// per-class quota was exhausted — only this SQI draining frees it, so a
  /// back-pressured producer should park on the SQI's wait queue rather
  /// than the global buffer-space one.
  enum class PushNack { kNone, kQuota, kFull };

  // --- device-port entry points (called at packet-arrival tick) ---------

  /// Producer cache-line arrival. `src_core`/`src_line` identify the
  /// producer's user-space line so the copy-over can zero it on success.
  /// Returns false (NACK) when prodBuf is full — the vl_push failure case.
  /// The service class is read from the reserved byte of the line's Fig. 10
  /// control region (cfg.class_quota enforcement).
  bool push(Sqi sqi, const mem::Line& data);

  /// Reason for the last push() returning false. Only valid until the
  /// next push() to this device — callers must read it synchronously
  /// after their push, before suspending (another core's push lands in
  /// any suspension window and overwrites it).
  PushNack last_push_nack() const { return last_push_nack_; }

  /// Consumer request arrival: register demand for `sqi`, targeting the
  /// consumer line `cons_tgt` in `cons_core`'s private cache.
  /// Returns false (NACK) when consBuf is full.
  bool fetch(Sqi sqi, Addr cons_tgt, CoreId cons_core);

  // --- introspection ------------------------------------------------------
  const VlrdStats& stats() const { return stats_; }
  std::uint32_t prod_free_slots() const;
  std::uint32_t cons_free_slots() const;
  /// Entries waiting in a SQI's producer (data) linked list.
  std::uint32_t queued_data(Sqi sqi) const;
  /// Entries waiting in a SQI's consumer (request) linked list.
  std::uint32_t queued_requests(Sqi sqi) const;

  /// Enable pipeline tracing (Table I reproduction).
  void set_pipe_trace(std::function<void(const PipeTraceRow&)> fn) {
    trace_ = std::move(fn);
  }

  /// Warm-restart support (src/replay/warm_restart.hpp): every message
  /// line resident in the device, per SQI, in delivery order — OUT-list
  /// entries first (oldest injection candidates), then the SQI's producer
  /// wait list, then undispatched IN entries in input order. Ideal mode
  /// reads the per-SQI deques directly. Read-only; call only on a
  /// quiesced device (drained event queue, injector idle), never
  /// mid-pipeline.
  std::vector<std::vector<mem::Line>> snapshot_resident() const;

  // --- epoch-boundary knobs (QoS supervisor / fault plane) ---------------
  // All three are safe only between event-queue steps — the supervisor's
  // sampling boundary and the fault plane's scheduled (tick, seq) events —
  // never from inside a pipeline/injector callback.

  /// Re-weight a class's per-SQI prodBuf quota online (0 = unlimited).
  /// Loosening fires the push-retry callback with nullopt ("any SQI may
  /// retry") so every quota-parked producer re-probes under the new quota.
  void set_class_quota(QosClass cls, std::uint32_t quota) {
    const auto c = static_cast<std::size_t>(cls);
    const std::uint32_t old = cfg_.class_quota[c];
    cfg_.class_quota[c] = quota;
    const bool loosened = (quota == 0 && old != 0) || (old != 0 && quota > old);
    if (loosened && on_push_retry_) on_push_retry_(std::nullopt);
  }
  /// Re-size the per-SQI whole-buffer quota online (0 = shared).
  void set_per_sqi_quota(std::uint32_t quota) {
    const std::uint32_t old = cfg_.per_sqi_quota;
    cfg_.per_sqi_quota = quota;
    const bool loosened = (quota == 0 && old != 0) || (old != 0 && quota > old);
    if (loosened && on_push_retry_) on_push_retry_(std::nullopt);
  }
  std::uint32_t class_quota(QosClass cls) const {
    return cfg_.class_quota[static_cast<std::size_t>(cls)];
  }
  std::uint32_t per_sqi_quota() const { return cfg_.per_sqi_quota; }

  /// Fault plane: stall/resume the injection engine. While stalled the
  /// device keeps accepting pushes and mapping them until buffers fill —
  /// then ordinary kFull/kQuota NACK back-pressure parks producers — but
  /// no line leaves the OUT list, so consumers starve. An injection already
  /// in flight completes (the engine pauses, it does not drop). Resume
  /// re-kicks the engine with all table state intact: zero message loss by
  /// construction.
  void set_injector_stalled(bool stalled) {
    injector_stalled_ = stalled;
    if (!stalled) {
      kick_injector();
      // Buffers may have been full for the whole stall window with every
      // producer parked; injections will now free slots and fire per-SQI
      // retries, but kick any coupled-io waiters immediately too.
      if (on_push_retry_) on_push_retry_(std::nullopt);
    }
  }

  /// Harness-side notification, fired whenever a condition that NACKed an
  /// earlier push may have cleared. The argument names the SQI whose
  /// injection freed a prodBuf slot (and one unit of that SQI's quota), so
  /// the runtime can wake that SQI's quota-parked producers plus *one*
  /// buffer-space waiter instead of the whole herd; std::nullopt means "any
  /// SQI may retry" (coupled_io pipeline going idle). The runtime parks
  /// back-pressured producers on simulated futexes and uses this to wake
  /// them — zero simulated cost, pure wakeup plumbing.
  void set_push_retry_callback(std::function<void(std::optional<Sqi>)> cb) {
    on_push_retry_ = std::move(cb);
  }

 private:
  // --- hardware tables ----------------------------------------------------
  struct LinkTabEntry {
    std::uint16_t prod_head = kNil, prod_tail = kNil;
    std::uint16_t cons_head = kNil, cons_tail = kNil;
    std::uint16_t prod_count = 0;  ///< prodBuf entries held by this SQI
                                   ///< (quota accounting, cfg.per_sqi_quota).
    std::uint16_t class_count[kQosClasses] = {0, 0, 0};  ///< ...by class
                                   ///< (cfg.class_quota accounting).
  };
  struct ConsBufEntry {
    bool valid = false;
    Sqi sqi = 0;
    Addr cons_tgt = 0;
    CoreId core = 0;
    std::uint16_t next_l = kNil;   // per-SQI wait list
    std::uint16_t next_in = kNil;  // input-order list
  };
  struct ProdBufEntry {
    // IN partition
    bool valid = false;
    Sqi sqi = 0;
    QosClass cls = QosClass::kStandard;  ///< From the line's ctrl byte.
    mem::Line data{};
    std::uint16_t next_in = kNil;
    // LINK partition
    std::uint16_t next_l = kNil;
    // OUT partition
    bool out_valid = false;
    Addr cons_tgt = 0;
    CoreId cons_core = 0;
    std::uint16_t mapped = kNil;   // consBuf index it was paired with
    std::uint16_t next_out = kNil;
  };

  // --- pipeline latches ----------------------------------------------------
  struct Latch {
    bool valid = false;
    bool is_consumer = false;
    std::uint16_t idx = kNil;      // buffer index of the entry in flight
    Sqi sqi = 0;
    std::uint16_t head = kNil;     // opposing list head read in stage 1
    std::uint16_t tail = kNil;     // own list tail read in stage 1
    bool hit = false;              // stage-2 decision
  };

  // pipeline stages (oldest first within a cycle => RAW forwarding)
  void pipeline_cycle();
  void stage3(Latch& l, std::string* tr);
  void stage2(Latch& l, std::string* tr);
  std::optional<Latch> stage1(std::string* tr);
  bool pipeline_pending() const;
  void kick_pipeline();

  // injection engine
  void kick_injector();
  void injector_done(std::uint16_t prod_idx);

  // free-slot search with rotating start (PIFR/CIFR behaviour)
  std::uint16_t alloc_prod_slot();
  std::uint16_t alloc_cons_slot();

  // linked-list helpers
  void append_input(bool consumer, std::uint16_t idx);
  std::uint16_t pop_input(bool consumer);
  void append_wait(LinkTabEntry& lt, bool consumer, std::uint16_t idx);
  std::uint16_t pop_wait(LinkTabEntry& lt, bool consumer);
  std::uint16_t pop_wait_lowest(LinkTabEntry& lt, bool consumer);
  Tick pipeline_step_cost() const;
  void push_front_data(Sqi sqi, std::uint16_t idx);
  bool line_drained(Addr tgt) const;
  void append_out(std::uint16_t idx);
  std::uint16_t pop_out();

  // VL(ideal) fast path
  bool ideal_push(Sqi sqi, const mem::Line& data);
  bool ideal_fetch(Sqi sqi, Addr tgt, CoreId core);
  void ideal_deliver(Sqi sqi);

  sim::EventQueue& eq_;
  mem::Hierarchy& hier_;
  sim::VlrdConfig cfg_;
  VlrdStats stats_;

  std::vector<LinkTabEntry> link_tab_;
  std::vector<ProdBufEntry> prod_buf_;
  std::vector<ConsBufEntry> cons_buf_;

  // registers
  std::uint16_t pifr_ = 0, cifr_ = 0;               // free-slot search
  std::uint16_t pihr_ = kNil, pitr_ = kNil;          // producer input list
  std::uint16_t cihr_ = kNil, citr_ = kNil;          // consumer input list
  std::uint16_t pohr_ = kNil, potr_ = kNil;          // mapped-output list

  Latch s1_out_{}, s2_out_{};  // latches between stages
  bool pipeline_scheduled_ = false;
  bool injector_busy_ = false;
  bool injector_stalled_ = false;  ///< Fault plane: engine paused, state kept.
  std::uint64_t cycle_ = 0;

  std::function<void(const PipeTraceRow&)> trace_;
  std::function<void(std::optional<Sqi>)> on_push_retry_;
  PushNack last_push_nack_ = PushNack::kNone;

  // VL(ideal) storage
  struct IdealWaiter {
    Addr tgt;
    CoreId core;
  };
  std::vector<std::deque<mem::Line>> ideal_data_;
  std::vector<std::deque<IdealWaiter>> ideal_waiters_;
};

}  // namespace vl::vlrd
