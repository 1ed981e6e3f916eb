#include "mem/hierarchy.hpp"

#include <algorithm>
#include <cassert>

namespace vl::mem {

Hierarchy::Hierarchy(sim::EventQueue& eq, std::uint32_t num_cores,
                     const sim::CacheConfig& cfg)
    : eq_(eq), cfg_(cfg), l1_(cfg.l1_size, cfg.l1_assoc, num_cores),
      llc_(cfg.llc_size, cfg.llc_assoc) {}

Tick Hierarchy::bus_slot(Tick cost) {
  const Tick start = std::max(eq_.now(), bus_busy_until_);
  bus_busy_until_ = start + cost;
  return start + cost;  // transaction completes at slot end
}

Tick Hierarchy::dram_access(bool write) {
  if (write)
    ++stats_.dram_writes;
  else
    ++stats_.dram_reads;
  const Tick start = std::max(eq_.now(), dram_busy_until_);
  dram_busy_until_ = start + cfg_.dram_gap;  // burst spacing = bandwidth cap
  return (start - eq_.now()) + cfg_.dram_lat;
}

void Hierarchy::llc_fetch(Addr line, Tick& lat) {
  lat += cfg_.llc_hit;
  if (const Frame f = llc_.find(line); f != kNoFrame) {
    ++stats_.llc_hits;
    llc_.touch(f);
    return;
  }
  ++stats_.llc_misses;
  lat += dram_access(/*write=*/false);
  llc_insert(line, /*dirty=*/false);
}

void Hierarchy::llc_insert(Addr line, bool dirty) {
  if (const Frame f = llc_.find(line); f != kNoFrame) {
    if (dirty) llc_.meta(f).dirty = true;
    llc_.touch(f);
    return;
  }
  const Frame v = llc_.victim(line);
  if (llc_.valid(v) && llc_.meta(v).dirty) dram_access(/*write=*/true);
  llc_.fill(v, line, Mesi::kShared, dirty);  // LLC state is presence-only
}

Tick Hierarchy::access_line(CoreId core, Addr line, bool exclusive) {
  const Tick lat = cfg_.l1_hit;

  if (const Frame e = l1_.find(line, core); e != kNoFrame) {
    l1_.touch(e);
    ++stats_.l1_hits;  // on an S->M upgrade only ownership was missing
    const Mesi s = l1_.meta(e).state;
    if (!exclusive || s == Mesi::kModified) return lat;  // any state reads
    if (s == Mesi::kExclusive) {  // silent E->M upgrade
      l1_.meta(e).state = Mesi::kModified;
      trace(core, line, "E->M");
      return lat;
    }
    // S -> M: ownership upgrade transaction (this is the Fig. 4 event).
    ++stats_.upgrades;
    ++stats_.snoops;
    l1_.for_each_peer(line, core, [&](CoreId c, Frame p) {
      ++stats_.invalidations;
      l1_.invalidate(p);
      trace(c, line, "inval");
    });
    l1_.meta(e).state = Mesi::kModified;
    trace(core, line, "S->M");
    const Tick done = bus_slot(cfg_.bus_hop + cfg_.snoop_cost);
    return lat + (done - eq_.now());
  }

  // L1 miss: full bus transaction.
  ++stats_.l1_misses;
  ++stats_.snoops;
  Tick xact = cfg_.bus_hop;

  bool peer_has = false;
  bool from_peer = false;
  l1_.for_each_peer(line, core, [&](CoreId c, Frame p) {
    peer_has = true;
    if (holds_dirty(l1_.meta(p).state)) {
      // The dirty holder sources the line cache-to-cache.
      ++stats_.c2c_transfers;
      xact += cfg_.c2c_transfer;
      from_peer = true;
      if (!exclusive && cfg_.protocol == sim::Protocol::kMoesi) {
        // MOESI: keep the dirty data as Owned — no LLC writeback; this
        // cache stays responsible for sourcing and eventual writeback.
        l1_.meta(p).state = Mesi::kOwned;
        trace(c, line, "->O");
      } else if (cfg_.protocol == sim::Protocol::kMesi) {
        // MESI has no Owned state: sharing a dirty line forces the
        // writeback (and an RFO transfers ownership through the LLC too).
        ++stats_.writebacks;
        llc_insert(line, /*dirty=*/true);
      }
      // MOESI exclusive: direct dirty transfer, requester becomes M below.
    } else {
      xact += cfg_.snoop_cost;
    }
    if (exclusive) {
      ++stats_.invalidations;
      l1_.invalidate(p);
      trace(c, line, "inval");
    } else if (const Mesi now = l1_.meta(p).state;  // MOESI may have made it O
               now == Mesi::kExclusive || now == Mesi::kModified) {
      l1_.meta(p).state = Mesi::kShared;
      trace(c, line, "->S");
    }
  });

  if (!from_peer) llc_fetch(line, xact);

  const Frame v = l1_.victim(line, core);
  if (l1_.valid(v) && holds_dirty(l1_.meta(v).state)) {
    ++stats_.writebacks;
    llc_insert(l1_.line(v), /*dirty=*/true);
  }
  l1_.fill(v, line, exclusive ? Mesi::kModified
                    : peer_has ? Mesi::kShared
                               : Mesi::kExclusive);
  trace(core, line, exclusive ? "fill M" : peer_has ? "fill S" : "fill E");
  const Tick done = bus_slot(xact);
  return lat + (done - eq_.now());
}

void Hierarchy::issue(const sim::MemRequest& req, sim::MemDone& done) {
  assert(req.core < l1_.banks());
  const Addr line = line_of(req.addr);
  const bool exclusive = req.op != sim::MemOp::kLoad &&
                         req.op != sim::MemOp::kLoadLine;
  const Tick lat = access_line(req.core, line, exclusive);

  // Functional commit at the completion tick keeps racing RMWs atomic and
  // sequentially consistent (single-threaded event loop).
  const sim::MemRequest r = req;
  eq_.schedule_in(lat, [this, r, done = &done] {
    sim::MemResult res;
    switch (r.op) {
      case sim::MemOp::kLoad:
        res.value = mem_.read(r.addr, r.size);
        break;
      case sim::MemOp::kStore:
        mem_.write(r.addr, r.arg0, r.size);
        break;
      case sim::MemOp::kCas64: {
        const std::uint64_t cur = mem_.read(r.addr, 8);
        res.value = cur;
        res.ok = cur == r.arg0;
        if (res.ok) mem_.write(r.addr, r.arg1, 8);
        break;
      }
      case sim::MemOp::kFetchAdd64: {
        const std::uint64_t cur = mem_.read(r.addr, 8);
        res.value = cur;
        mem_.write(r.addr, cur + r.arg0, 8);
        break;
      }
      case sim::MemOp::kSwap64: {
        res.value = mem_.read(r.addr, 8);
        mem_.write(r.addr, r.arg0, 8);
        break;
      }
      case sim::MemOp::kLoadLine:
        mem_.read_line(r.addr, r.buf);
        break;
      case sim::MemOp::kStoreLine:
        mem_.write_line(r.addr, r.buf);
        break;
    }
    done->mem_done(res);
  });
}

Tick Hierarchy::device_hop(Tick extra_cost) {
  ++stats_.device_writes;
  return bus_slot(cfg_.bus_hop + extra_cost);
}

bool Hierarchy::inject(CoreId target, Addr line_addr, const void* data) {
  assert(target < l1_.banks());
  const Frame e = l1_.find(line_of(line_addr), target);
  if (e == kNoFrame || !l1_.meta(e).pushable) {
    ++stats_.inject_rejects;
    return false;
  }
  ++stats_.injections;
  l1_.meta(e) = Meta{Mesi::kExclusive};
  l1_.touch(e);
  mem_.write_line(line_addr, data);
  trace(target, line_of(line_addr), "inject");
  return true;
}

Tick Hierarchy::select_line(CoreId core, Addr line_addr) {
  // vl_select behaves "just as any store would": line fetched exclusive.
  return access_line(core, line_of(line_addr), /*exclusive=*/true);
}

bool Hierarchy::set_pushable(CoreId core, Addr line_addr, bool on) {
  const Frame e = l1_.find(line_of(line_addr), core);
  if (e != kNoFrame) l1_.meta(e).pushable = on;
  return e != kNoFrame;
}

void Hierarchy::clear_pushable(CoreId core) {
  l1_.for_each_valid(core, [&](Frame f) { l1_.meta(f).pushable = false; });
}

void Hierarchy::zero_and_exclusive(CoreId core, Addr line_addr) {
  mem_.zero_line(line_addr);
  if (const Frame e = l1_.find(line_of(line_addr), core); e != kNoFrame)
    l1_.meta(e) = Meta{Mesi::kExclusive};
}

Mesi Hierarchy::l1_state(CoreId core, Addr line_addr) const {
  const Frame e = l1_.find(line_of(line_addr), core);
  return e == kNoFrame ? Mesi::kInvalid : l1_.meta(e).state;
}

bool Hierarchy::l1_pushable(CoreId core, Addr line_addr) const {
  const Frame e = l1_.find(line_of(line_addr), core);
  return e != kNoFrame && l1_.meta(e).pushable;
}

}  // namespace vl::mem
