#pragma once
// System configuration mirroring the paper's Table III gem5 setup:
//
//   Cores   16x AArch64 OoO @ 2 GHz
//   Caches  32 KiB private 2-way L1D, 1 MiB shared 16-way L2 (LLC here)
//   Memory  8 GiB DDR4-2400
//   VLRD    64 entries per prodBuf / consBuf / linkTab (~5 KiB)
//
// One tick == one 2 GHz core cycle (0.5 ns). Latencies are typical values
// for this class of SoC; absolute numbers differ from the authors' testbed
// but the relative costs (L1 << LLC << DRAM, lock round-trips ~ O(100)
// cycles under contention) are what the experiments exercise.

#include <cstdint>

#include "common/types.hpp"

namespace vl::sim {

struct CoreConfig {
  Tick issue_cost = 1;         ///< Port occupancy per issued memory op.
  Tick ctx_switch_cost = 1000; ///< Cycles to swap software threads on a core.
  Tick atomic_extra = 4;       ///< Extra ALU cycles for an RMW op.
  /// Scheduling timeslice: a non-resident thread's op waits until the
  /// resident thread has been on the core this long before forcing the
  /// context switch. Without it, two threads polling on one core would
  /// alternate (and pay ctx_switch_cost) on *every* op — real timeslices
  /// span many instructions, which is what lets a VL select+fetch and the
  /// subsequent injection land inside one residency (§ III-B).
  Tick sched_quantum = 5000;
};

/// Coherence protocol variant (ablation): MESI (the default, matching the
/// paper's gem5 setup) or MOESI, whose Owned state lets a dirty line be
/// shared without the LLC writeback MESI pays on every read-snoop of a
/// Modified line — cheaper producer-written/consumer-read traffic.
enum class Protocol { kMesi, kMoesi };

struct CacheConfig {
  Protocol protocol = Protocol::kMesi;
  std::uint32_t l1_size = 32 * 1024;
  std::uint32_t l1_assoc = 2;
  std::uint32_t llc_size = 1024 * 1024;
  std::uint32_t llc_assoc = 16;

  Tick l1_hit = 2;        ///< L1D hit latency (cycles).
  Tick llc_hit = 20;      ///< Shared L2/LLC access latency.
  Tick c2c_transfer = 36; ///< Dirty-line transfer between private caches.
  Tick snoop_cost = 8;    ///< Added bus cycles when a snoop must be resolved.
  Tick bus_hop = 7;       ///< One direction across the coherence network.
  Tick dram_lat = 160;    ///< DRAM access latency (row-hit average).
  Tick dram_gap = 8;      ///< Minimum spacing between DRAM bursts
                          ///< (bandwidth model: 64 B / gap).
};

/// How endpoint device addresses resolve to (device, SQI) — § III-C2.
enum class Addressing {
  kBitField,   ///< Fig. 9: SQI carved from the PA bit fields (default).
  kAddrTable,  ///< CAM routing table populated on mmap; +1 pipeline cycle,
               ///< but compact PA-window usage and arbitrary addresses.
};

/// How the VLRD tracks which buffer entries belong to which SQI — the
/// § III-A design trade-off ("LL is more scalable for large VLRDs").
enum class BufferMgmt {
  kLinkedList,  ///< Paper design: per-SQI hardware linked lists; O(1) per
                ///< pipeline op and FIFO arrival order preserved.
  kBitvector,   ///< Alternative: per-op scan of the whole buffer through a
                ///< 64-wide priority encoder; cost grows with buffer size
                ///< and arrival order degrades to lowest-index-first.
};

struct VlrdConfig {
  std::uint32_t prod_entries = 64;  ///< prodBuf rows (Table III).
  std::uint32_t cons_entries = 64;  ///< consBuf rows.
  std::uint32_t link_entries = 64;  ///< linkTab rows (max live SQIs).
  std::uint32_t num_devices = 1;    ///< Routing devices (Fig. 9 bits J:N+1).
  Tick device_lat = 14;   ///< Core -> VLRD round trip (paper: ~14 cycles).
  Tick inject_lat = 24;   ///< VLRD -> consumer L1 stash latency.
  bool ideal = false;     ///< VL(ideal): infinite buffers, zero latency.

  Addressing addressing = Addressing::kBitField;
  std::uint32_t addr_table_capacity = 256;  ///< CAM rows (kAddrTable).
  Tick addr_table_extra = 1;  ///< Extra pipeline cycle per op (kAddrTable).

  BufferMgmt buffer_mgmt = BufferMgmt::kLinkedList;

  /// § III-A trade-off 1: the IN partitions decouple bus I/O from the
  /// mapping pipeline so packet bursts can be buffered. With coupling
  /// (true), the device "accepts one packet per clock cycle": an arrival
  /// is NACKed whenever the pipeline already has work in flight.
  bool coupled_io = false;

  /// § V (CAF contrast): the paper's VLRD shares prodBuf across all SQIs,
  /// which lets one hog queue starve the rest; CAF instead partitions
  /// buffers with credit management for QoS. A nonzero quota bounds how
  /// many prodBuf entries any single SQI may occupy (0 = shared, the
  /// paper's design). The QoS ablation quantifies the isolation trade.
  std::uint32_t per_sqi_quota = 0;

  /// Per-class prodBuf quota, indexed by QosClass: bounds how many prodBuf
  /// entries messages of one service class may occupy *within each SQI*
  /// (0 = unlimited, the default). The class of an arriving line is carried
  /// in the reserved byte of its Fig. 10 control region, so the device
  /// needs no out-of-band tenant state. With weighted quotas, a bulk flood
  /// is NACKed early and the buffer keeps headroom for latency-class
  /// traffic sharing the same SQI.
  std::uint32_t class_quota[kQosClasses] = {0, 0, 0};
};

/// CAF queue-management-device knobs (squeue/caf.hpp). The per-class caps
/// mirror the CAF paper's credit management for QoS: class c may occupy at
/// most class_credits[c] of a queue's credit budget (0 = uncapped). All
/// zeros (the default) reproduces the plain fixed-budget device.
struct CafConfig {
  std::uint32_t credits_per_queue = 64;
  std::uint32_t class_credits[kQosClasses] = {0, 0, 0};
};

struct SystemConfig {
  std::uint32_t num_cores = 16;
  double ns_per_tick = 0.5;  ///< 2 GHz.
  CoreConfig core;
  CacheConfig cache;
  VlrdConfig vlrd;
  CafConfig caf;

  static SystemConfig table3() { return SystemConfig{}; }

  /// Table III machine with `n` routing devices (multi-VLRD ablation).
  static SystemConfig table3_multi(std::uint32_t n) {
    SystemConfig c;
    c.vlrd.num_devices = n;
    return c;
  }

  /// VL(ideal) variant used in Fig. 11/12: infinite capacity, free transfers.
  static SystemConfig table3_ideal() {
    SystemConfig c;
    c.vlrd.ideal = true;
    c.vlrd.prod_entries = 1u << 20;
    c.vlrd.cons_entries = 1u << 20;
    c.vlrd.device_lat = 0;
    c.vlrd.inject_lat = 0;
    return c;
  }
};

}  // namespace vl::sim
