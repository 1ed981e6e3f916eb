#include "mem/hierarchy.hpp"

#include <algorithm>
#include <cassert>

namespace vl::mem {

Hierarchy::Hierarchy(sim::EventQueue& eq, std::uint32_t num_cores,
                     const sim::CacheConfig& cfg)
    : eq_(eq), cfg_(cfg), llc_(cfg.llc_size, cfg.llc_assoc) {
  l1_.reserve(num_cores);
  for (std::uint32_t i = 0; i < num_cores; ++i)
    l1_.emplace_back(cfg.l1_size, cfg.l1_assoc);
}

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
  if (TagEntry* e = llc_.find(line)) {
    ++stats_.llc_hits;
    llc_.touch(*e);
    return;
  }
  ++stats_.llc_misses;
  lat += dram_access(/*write=*/false);
  llc_insert(line, /*dirty=*/false, lat);
}

void Hierarchy::llc_insert(Addr line, bool dirty, Tick& lat) {
  if (TagEntry* e = llc_.find(line)) {
    e->dirty = e->dirty || dirty;
    llc_.touch(*e);
    return;
  }
  TagEntry* v = llc_.victim(line);
  if (v->valid() && v->dirty) {
    lat += 0;  // writeback is off the critical path; only count the burst
    dram_access(/*write=*/true);
  }
  *v = TagEntry{};
  v->line = line;
  v->state = Mesi::kShared;  // LLC state is presence-only in this model
  v->dirty = dirty;
  llc_.touch(*v);
}

TagEntry& Hierarchy::fill_l1(CoreId core, Addr line, Mesi state, Tick& lat) {
  TagStore& l1 = l1_[core];
  TagEntry* v = l1.victim(line);
  if (v->valid() && holds_dirty(v->state)) {
    ++stats_.writebacks;
    llc_insert(v->line, /*dirty=*/true, lat);
  }
  *v = TagEntry{};
  v->line = line;
  v->state = state;
  l1.touch(*v);
  return *v;
}

Hierarchy::Outcome Hierarchy::access_line(CoreId core, Addr line,
                                          bool exclusive) {
  TagStore& l1 = l1_[core];
  Tick lat = cfg_.l1_hit;

  if (TagEntry* e = l1.find(line)) {
    l1.touch(*e);
    if (!exclusive) {  // read: any valid state serves
      ++stats_.l1_hits;
      return {lat};
    }
    if (e->state == Mesi::kModified) {
      ++stats_.l1_hits;
      return {lat};
    }
    if (e->state == Mesi::kExclusive) {  // silent E->M upgrade
      ++stats_.l1_hits;
      e->state = Mesi::kModified;
      trace(core, line, "E->M");
      return {lat};
    }
    // S -> M: ownership upgrade transaction (this is the Fig. 4 event).
    ++stats_.l1_hits;  // data was present; only ownership was missing
    ++stats_.upgrades;
    ++stats_.snoops;
    for (std::uint32_t c = 0; c < l1_.size(); ++c) {
      if (c == core) continue;
      if (TagEntry* p = l1_[c].find(line); p && p->valid()) {
        ++stats_.invalidations;
        p->state = Mesi::kInvalid;
        p->pushable = false;
        trace(c, line, "inval");
      }
    }
    e->state = Mesi::kModified;
    trace(core, line, "S->M");
    const Tick done = bus_slot(cfg_.bus_hop + cfg_.snoop_cost);
    return {lat + (done - eq_.now())};
  }

  // L1 miss: full bus transaction.
  ++stats_.l1_misses;
  ++stats_.snoops;
  Tick xact = cfg_.bus_hop;

  bool peer_has = false;
  bool from_peer = false;
  for (std::uint32_t c = 0; c < l1_.size(); ++c) {
    if (c == core) continue;
    TagEntry* p = l1_[c].find(line);
    if (!p || !p->valid()) continue;
    peer_has = true;
    if (holds_dirty(p->state)) {
      // The dirty holder sources the line cache-to-cache.
      ++stats_.c2c_transfers;
      xact += cfg_.c2c_transfer;
      from_peer = true;
      if (!exclusive && cfg_.protocol == sim::Protocol::kMoesi) {
        // MOESI: keep the dirty data as Owned — no LLC writeback; this
        // cache stays responsible for sourcing and eventual writeback.
        p->state = Mesi::kOwned;
        trace(c, line, "->O");
      } else if (cfg_.protocol == sim::Protocol::kMesi) {
        // MESI has no Owned state: sharing a dirty line forces the
        // writeback (and an RFO transfers ownership through the LLC too).
        ++stats_.writebacks;
        Tick dummy = 0;
        llc_insert(line, /*dirty=*/true, dummy);
      }
      // MOESI exclusive: direct dirty transfer, requester becomes M below.
    } else {
      xact += cfg_.snoop_cost;
    }
    if (exclusive) {
      ++stats_.invalidations;
      p->state = Mesi::kInvalid;
      p->pushable = false;
      trace(c, line, "inval");
    } else if (p->state == Mesi::kExclusive || p->state == Mesi::kModified) {
      p->state = Mesi::kShared;
      trace(c, line, "->S");
    }
  }

  if (!from_peer) {
    llc_fetch(line, xact);
  }

  const Mesi new_state = exclusive ? Mesi::kModified
                         : peer_has && !exclusive ? Mesi::kShared
                                                  : Mesi::kExclusive;
  Tick lat2 = 0;
  fill_l1(core, line, new_state, lat2);
  trace(core, line,
        new_state == Mesi::kModified  ? "fill M"
        : new_state == Mesi::kShared ? "fill S"
                                     : "fill E");
  const Tick done = bus_slot(xact + lat2);
  return {lat + (done - eq_.now())};
}

void Hierarchy::issue(const sim::MemRequest& req, sim::MemDone& done) {
  assert(req.core < l1_.size());
  const Addr line = line_of(req.addr);
  const bool exclusive = req.op != sim::MemOp::kLoad &&
                         req.op != sim::MemOp::kLoadLine;
  const Outcome out = access_line(req.core, line, exclusive);

  // Functional commit at the completion tick keeps racing RMWs atomic and
  // sequentially consistent (single-threaded event loop).
  const sim::MemRequest r = req;
  eq_.schedule_in(out.latency, [this, r, done = &done] {
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
  const Tick done = bus_slot(cfg_.bus_hop + extra_cost);
  return done;
}

bool Hierarchy::inject(CoreId target, Addr line_addr, const void* data) {
  assert(target < l1_.size());
  TagEntry* e = l1_[target].find(line_of(line_addr));
  if (!e || !e->valid() || !e->pushable) {
    ++stats_.inject_rejects;
    return false;
  }
  ++stats_.injections;
  e->state = Mesi::kExclusive;
  e->pushable = false;
  l1_[target].touch(*e);
  mem_.write_line(line_addr, data);
  trace(target, line_of(line_addr), "inject");
  return true;
}

Tick Hierarchy::select_line(CoreId core, Addr line_addr) {
  // vl_select behaves "just as any store would": line fetched exclusive.
  const Outcome out = access_line(core, line_of(line_addr), /*exclusive=*/true);
  return out.latency;
}

bool Hierarchy::set_pushable(CoreId core, Addr line_addr, bool on) {
  TagEntry* e = l1_[core].find(line_of(line_addr));
  if (!e || !e->valid()) return false;
  e->pushable = on;
  return true;
}

void Hierarchy::clear_pushable(CoreId core) {
  l1_[core].for_each_valid([](TagEntry& e) { e.pushable = false; });
}

void Hierarchy::zero_and_exclusive(CoreId core, Addr line_addr) {
  mem_.zero_line(line_addr);
  if (TagEntry* e = l1_[core].find(line_of(line_addr)); e && e->valid()) {
    e->state = Mesi::kExclusive;
    e->pushable = false;
  }
}

Mesi Hierarchy::l1_state(CoreId core, Addr line_addr) const {
  const TagEntry* e = l1_[core].find(line_of(line_addr));
  return e && e->valid() ? e->state : Mesi::kInvalid;
}

bool Hierarchy::l1_pushable(CoreId core, Addr line_addr) const {
  const TagEntry* e = l1_[core].find(line_of(line_addr));
  return e && e->valid() && e->pushable;
}

}  // namespace vl::mem
