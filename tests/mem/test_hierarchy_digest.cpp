// Behaviour pin for the cache hierarchy: a 16-core Hierarchy driven by a
// seeded stream of every operation it exposes, over a line pool that
// collides in a few sets, so the stream exercises L1 and LLC victims (clean
// and dirty), cache-to-cache transfers, S->M upgrades, Owned sharing under
// MOESI and injection rejects. The test folds every trace-hook call, every
// returned value and every MemStats field into the assertions; the expected
// values were recorded from the per-core tag-store implementation, so any
// tag-store layout must reproduce them bit for bit.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/hierarchy.hpp"

namespace vl::mem {
namespace {

constexpr std::uint32_t kCores = 16;

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void str(const char* s) {
    while (*s) byte(static_cast<std::uint8_t>(*s++));
    byte(0);
  }
};

struct Done : sim::MemDone {
  Fnv* fnv = nullptr;
  void mem_done(sim::MemResult r) override {
    fnv->u64(r.value);
    fnv->u64(r.ok);
  }
};

/// Lines that collide: 24 lines in each of three LLC sets (more than the
/// LLC's 16 ways, and all in one L1 set per group), plus 16 lines that share
/// an L1 set but spread over four LLC sets.
std::vector<Addr> line_pool() {
  std::vector<Addr> pool;
  const Addr base = 0x100000;
  for (Addr set : {0u, 5u, 17u})
    for (Addr k = 0; k < 24; ++k) pool.push_back(base + set * 64 + k * 65536);
  for (Addr k = 0; k < 16; ++k) pool.push_back(base + 9 * 64 + k * 16384);
  return pool;
}

struct Digest {
  std::uint64_t fnv;
  std::array<std::uint64_t, 14> stats;
};

Digest run_stream(sim::Protocol protocol, std::uint64_t seed, int ops) {
  sim::EventQueue eq;
  sim::CacheConfig cfg;
  cfg.protocol = protocol;
  Hierarchy hier(eq, kCores, cfg);
  Fnv fnv;
  hier.set_trace([&](Tick t, CoreId c, Addr a, const char* what) {
    fnv.u64(t);
    fnv.u64(c);
    fnv.u64(a);
    fnv.str(what);
  });
  const std::vector<Addr> pool = line_pool();
  std::vector<Done> done(8);
  for (auto& d : done) d.fnv = &fnv;
  std::array<std::uint8_t, kLineSize> buf{};
  std::uint64_t s = seed;
  // The last selected (core, line): VL's select/fetch/inject sequence
  // targets one line, so half the pushable and inject calls reuse it.
  CoreId sel_core = 0;
  Addr sel_line = pool[0];

  for (int i = 0; i < ops;) {
    // A burst of up to eight requests issued at one tick contends for the
    // bus; the functional commits then run in completion order.
    const int burst = 1 + static_cast<int>(splitmix(s) % done.size());
    for (int j = 0; j < burst && i < ops; ++j, ++i) {
      const std::uint64_t r = splitmix(s);
      const std::uint64_t v = splitmix(s);
      const bool reuse = (v >> 62) != 0 && ((r >> 32) % 14 == 9 ||
                                            (r >> 32) % 14 == 10);
      const CoreId core = reuse ? sel_core : static_cast<CoreId>(r % kCores);
      const Addr line = reuse ? sel_line : pool[(r >> 8) % pool.size()];
      const Addr addr = line + ((r >> 20) % 8) * 8;
      sim::MemRequest req;
      req.core = core;
      req.addr = addr;
      switch ((r >> 32) % 14) {
        case 0:
        case 1:
        case 2: req.op = sim::MemOp::kLoad; break;
        case 3:
        case 4: req.op = sim::MemOp::kStore; req.arg0 = v; break;
        case 5:
          req.op = sim::MemOp::kCas64;
          req.arg0 = v & 3;
          req.arg1 = v >> 2;
          break;
        case 6: req.op = sim::MemOp::kFetchAdd64; req.arg0 = v & 0xff; break;
        case 7:
          req.addr = line;
          req.buf = buf.data();
          req.op = (v & 1) ? sim::MemOp::kLoadLine : sim::MemOp::kStoreLine;
          break;
        case 8:
          sel_core = core;
          sel_line = line;
          fnv.u64(hier.select_line(core, addr));
          continue;
        case 9: fnv.u64(hier.set_pushable(core, addr, v & 3)); continue;
        case 10:
          buf.fill(static_cast<std::uint8_t>(v));
          fnv.u64(hier.inject(core, line, buf.data()));
          continue;
        case 11:
          if (v & 1)
            hier.clear_pushable(core);
          else
            fnv.u64(hier.device_hop(v & 7));
          continue;
        case 12: hier.zero_and_exclusive(core, line); continue;
        default: req.op = sim::MemOp::kSwap64; req.arg0 = v; break;
      }
      hier.issue(req, done[static_cast<std::size_t>(j)]);
    }
    eq.run();
    for (CoreId c = 0; c < kCores; c += 5) {
      const Addr probe = pool[static_cast<std::size_t>(i) % pool.size()];
      fnv.u64(static_cast<std::uint64_t>(hier.l1_state(c, probe)));
      fnv.u64(hier.l1_pushable(c, probe));
    }
  }
  const MemStats& m = hier.stats();
  return {fnv.h,
          {m.l1_hits, m.l1_misses, m.llc_hits, m.llc_misses, m.snoops,
           m.invalidations, m.upgrades, m.c2c_transfers, m.writebacks,
           m.dram_reads, m.dram_writes, m.injections, m.inject_rejects,
           m.device_writes}};
}

void expect_digest(const Digest& got, const Digest& want) {
  std::string all;
  for (std::uint64_t x : got.stats) all += " " + std::to_string(x);
  EXPECT_EQ(got.fnv, want.fnv) << std::hex << "0x" << got.fnv << " stats"
                               << all;
  static const char* names[] = {
      "l1_hits",       "l1_misses",  "llc_hits",    "llc_misses",
      "snoops",        "invalidations", "upgrades", "c2c_transfers",
      "writebacks",    "dram_reads", "dram_writes", "injections",
      "inject_rejects", "device_writes"};
  for (std::size_t k = 0; k < got.stats.size(); ++k)
    EXPECT_EQ(got.stats[k], want.stats[k]) << names[k];
}

TEST(HierarchyDigest, MesiStreamIsPinned) {
  expect_digest(run_stream(sim::Protocol::kMesi, 42, 40000),
                {0xfe90fdb99bd7f61eull,
                 {1654, 26833, 9610, 5120, 27285, 15580, 452, 12103, 17351,
                  5120, 7069, 437, 2528, 1491}});
}

TEST(HierarchyDigest, MoesiStreamIsPinned) {
  expect_digest(run_stream(sim::Protocol::kMoesi, 7, 40000),
                {0x44d8f4d011ba55dfull,
                 {1579, 26944, 9149, 2327, 27332, 15533, 388, 15468, 7273,
                  2327, 4042, 425, 2502, 1429}});
}

}  // namespace
}  // namespace vl::mem
