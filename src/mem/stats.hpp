#pragma once
// Coherence/memory event counters. These are exactly the quantities the
// paper's figures plot:
//   Fig. 4  -> invalidations, upgrades (S->E/M transitions) per queue push
//   Fig. 11b/13 -> snoops (+ upgrades)
//   Fig. 11c/14 -> mem_txns (DRAM read + write bursts)

#include <cstdint>

namespace vl::mem {

struct MemStats {
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t llc_hits = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t snoops = 0;         ///< Bus transactions that snooped peers.
  std::uint64_t invalidations = 0;  ///< Peer lines invalidated.
  std::uint64_t upgrades = 0;       ///< S -> E/M ownership upgrades.
  std::uint64_t c2c_transfers = 0;  ///< Dirty lines sourced cache-to-cache.
  std::uint64_t writebacks = 0;     ///< L1 -> LLC dirty evictions.
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t injections = 0;        ///< VLRD stashes accepted by an L1.
  std::uint64_t inject_rejects = 0;    ///< Stash attempts refused (flag unset).
  std::uint64_t device_writes = 0;     ///< Non-snooping device-memory ops.

  std::uint64_t mem_txns() const { return dram_reads + dram_writes; }

  MemStats diff(const MemStats& base) const {
    MemStats d;
    d.l1_hits = l1_hits - base.l1_hits;
    d.l1_misses = l1_misses - base.l1_misses;
    d.llc_hits = llc_hits - base.llc_hits;
    d.llc_misses = llc_misses - base.llc_misses;
    d.snoops = snoops - base.snoops;
    d.invalidations = invalidations - base.invalidations;
    d.upgrades = upgrades - base.upgrades;
    d.c2c_transfers = c2c_transfers - base.c2c_transfers;
    d.writebacks = writebacks - base.writebacks;
    d.dram_reads = dram_reads - base.dram_reads;
    d.dram_writes = dram_writes - base.dram_writes;
    d.injections = injections - base.injections;
    d.inject_rejects = inject_rejects - base.inject_rejects;
    d.device_writes = device_writes - base.device_writes;
    return d;
  }
};

}  // namespace vl::mem
