#include "vlrd/vlrd.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "obs/tracer.hpp"
#include "vlrd/addressing.hpp"

namespace vl::vlrd {

namespace {
std::string idx_str(std::uint16_t i) {
  return i == kNil ? "NULL" : std::to_string(i);
}

/// Service class of an arriving line: the reserved byte ([7:0]) of its
/// Fig. 10 control region.
QosClass line_class(const mem::Line& data) {
  return qos_class_from_byte(data[kLineCtrlOffset]);
}
}  // namespace

Vlrd::Vlrd(sim::EventQueue& eq, mem::Hierarchy& hier,
           const sim::VlrdConfig& cfg)
    : eq_(eq), hier_(hier), cfg_(cfg) {
  if (cfg_.ideal) {
    ideal_data_.resize(std::size_t{1} << kSqiBits);
    ideal_waiters_.resize(std::size_t{1} << kSqiBits);
  } else {
    link_tab_.resize(cfg_.link_entries);
    prod_buf_.resize(cfg_.prod_entries);
    cons_buf_.resize(cfg_.cons_entries);
  }
}

// --------------------------------------------------------------------------
// Device-port entry points
// --------------------------------------------------------------------------

bool Vlrd::push(Sqi sqi, const mem::Line& data) {
  ++stats_.pushes;
  last_push_nack_ = PushNack::kNone;
  if (cfg_.ideal) return ideal_push(sqi, data);
  assert(sqi < link_tab_.size());

  if (cfg_.coupled_io && pipeline_pending()) {
    // One-packet-per-cycle device (the un-decoupled § III-A design): no
    // input buffering ahead of a busy mapping pipeline, so bursts bounce.
    ++stats_.push_nacks;
    last_push_nack_ = PushNack::kFull;
    return false;
  }
  if (cfg_.per_sqi_quota != 0 &&
      link_tab_[sqi].prod_count >= cfg_.per_sqi_quota) {
    // CAF-style partitioning: this SQI used up its credit; NACK it without
    // letting it squeeze other queues out of the shared buffer.
    ++stats_.push_nacks;
    ++stats_.push_quota_nacks;
    last_push_nack_ = PushNack::kQuota;
    return false;
  }
  const QosClass cls = line_class(data);
  const std::uint32_t cls_quota =
      cfg_.class_quota[static_cast<std::size_t>(cls)];
  if (cls_quota != 0 &&
      link_tab_[sqi].class_count[static_cast<std::size_t>(cls)] >= cls_quota) {
    // QoS partitioning: this service class used up its share of the SQI's
    // buffer space. Back-pressure lands on the over-quota class (bulk
    // floods) while lighter classes keep enqueueing.
    ++stats_.push_nacks;
    ++stats_.push_quota_nacks;
    last_push_nack_ = PushNack::kQuota;
    return false;
  }
  const std::uint16_t idx = alloc_prod_slot();
  if (idx == kNil) {  // back-pressure: buffer full
    ++stats_.push_nacks;
    last_push_nack_ = PushNack::kFull;
    return false;
  }
  ++link_tab_[sqi].prod_count;
  ++link_tab_[sqi].class_count[static_cast<std::size_t>(cls)];
  ProdBufEntry& e = prod_buf_[idx];
  e.valid = true;
  e.sqi = sqi;
  e.cls = cls;
  e.data = data;
  e.next_in = kNil;
  e.next_l = kNil;
  e.out_valid = false;
  append_input(/*consumer=*/false, idx);
  kick_pipeline();
  return true;
}

bool Vlrd::fetch(Sqi sqi, Addr cons_tgt, CoreId cons_core) {
  ++stats_.fetches;
  if (cfg_.ideal) return ideal_fetch(sqi, cons_tgt, cons_core);
  assert(sqi < link_tab_.size());

  // Re-issued requests (the § III-B recovery path after a rejected
  // injection or context switch) are idempotent: if this SQI already has a
  // registered request for the same consumer target, never enqueue a
  // duplicate that could double-deliver into one line. But the re-issue
  // must still be able to claim data: when a rejected injection returned a
  // line to this SQI's data list *after* the request was parked, neither
  // side generates another pipeline event and the pair would sit forever.
  // Recycle the parked request through the pipeline in that case — the
  // § III-B re-issued packet re-entering the mapping stages.
  {
    LinkTabEntry& lt = link_tab_[sqi];
    std::uint16_t prev = kNil;
    for (std::uint16_t i = lt.cons_head; i != kNil;
         prev = i, i = cons_buf_[i].next_l) {
      if (cons_buf_[i].cons_tgt != cons_tgt) continue;
      if (lt.prod_head == kNil) return true;  // nothing to claim: dedupe
      if (cfg_.coupled_io && pipeline_pending()) {
        // Coupled ablation: the re-issued packet is a bus arrival like any
        // other and the un-decoupled pipeline cannot buffer it.
        ++stats_.fetch_nacks;
        if (obs::TraceBuffer* const tb = eq_.trace())
          tb->instant(eq_.now(), obs::kDeviceTid, "vlrd", "fetch_nack", "sqi",
                      sqi);
        return false;
      }
      if (prev == kNil)
        lt.cons_head = cons_buf_[i].next_l;
      else
        cons_buf_[prev].next_l = cons_buf_[i].next_l;
      if (lt.cons_tail == i) lt.cons_tail = prev;
      cons_buf_[i].next_l = kNil;
      cons_buf_[i].next_in = kNil;  // may be stale from its first pass
      append_input(/*consumer=*/true, i);
      kick_pipeline();
      return true;
    }
  }
  // Also idempotent against a registration that was already *matched*: if
  // a mapped line targeting this consumer address sits in the OUT list or
  // in flight at the injector, the re-issue raced the injection. A fresh
  // registration would be stale the moment that injection lands, and the
  // next message mapped to it would stash into a line the consumer has
  // already moved past. The in-flight injection satisfies this re-issue.
  for (const auto& pe : prod_buf_) {
    if (pe.out_valid && pe.cons_tgt == cons_tgt) return true;
  }

  if (cfg_.coupled_io && pipeline_pending()) {
    ++stats_.fetch_nacks;
    if (obs::TraceBuffer* const tb = eq_.trace())
      tb->instant(eq_.now(), obs::kDeviceTid, "vlrd", "fetch_nack", "sqi",
                  sqi);
    return false;
  }
  const std::uint16_t idx = alloc_cons_slot();
  if (idx == kNil) {
    ++stats_.fetch_nacks;
    if (obs::TraceBuffer* const tb = eq_.trace())
      tb->instant(eq_.now(), obs::kDeviceTid, "vlrd", "fetch_nack", "sqi",
                  sqi);
    return false;
  }
  ConsBufEntry& e = cons_buf_[idx];
  e.valid = true;
  e.sqi = sqi;
  e.cons_tgt = cons_tgt;
  e.core = cons_core;
  e.next_l = kNil;
  e.next_in = kNil;
  append_input(/*consumer=*/true, idx);
  kick_pipeline();
  return true;
}

// --------------------------------------------------------------------------
// Free-slot search (PIFR / CIFR rotating registers)
// --------------------------------------------------------------------------

std::uint16_t Vlrd::alloc_prod_slot() {
  const auto n = static_cast<std::uint16_t>(prod_buf_.size());
  for (std::uint16_t k = 0; k < n; ++k) {
    const std::uint16_t i = static_cast<std::uint16_t>((pifr_ + k) % n);
    if (!prod_buf_[i].valid && !prod_buf_[i].out_valid) {
      pifr_ = static_cast<std::uint16_t>((i + 1) % n);
      return i;
    }
  }
  return kNil;
}

std::uint16_t Vlrd::alloc_cons_slot() {
  const auto n = static_cast<std::uint16_t>(cons_buf_.size());
  for (std::uint16_t k = 0; k < n; ++k) {
    const std::uint16_t i = static_cast<std::uint16_t>((cifr_ + k) % n);
    if (!cons_buf_[i].valid) {
      cifr_ = static_cast<std::uint16_t>((i + 1) % n);
      return i;
    }
  }
  return kNil;
}

// --------------------------------------------------------------------------
// Linked-list helpers
// --------------------------------------------------------------------------

void Vlrd::append_input(bool consumer, std::uint16_t idx) {
  auto& head = consumer ? cihr_ : pihr_;
  auto& tail = consumer ? citr_ : pitr_;
  if (head == kNil) {
    head = tail = idx;
  } else {
    if (consumer)
      cons_buf_[tail].next_in = idx;
    else
      prod_buf_[tail].next_in = idx;
    tail = idx;
  }
}

std::uint16_t Vlrd::pop_input(bool consumer) {
  auto& head = consumer ? cihr_ : pihr_;
  auto& tail = consumer ? citr_ : pitr_;
  if (head == kNil) return kNil;
  const std::uint16_t idx = head;
  head = consumer ? cons_buf_[idx].next_in : prod_buf_[idx].next_in;
  if (head == kNil) tail = kNil;
  return idx;
}

void Vlrd::append_wait(LinkTabEntry& lt, bool consumer, std::uint16_t idx) {
  auto& head = consumer ? lt.cons_head : lt.prod_head;
  auto& tail = consumer ? lt.cons_tail : lt.prod_tail;
  if (head == kNil) {
    head = tail = idx;
  } else {
    if (consumer)
      cons_buf_[tail].next_l = idx;
    else
      prod_buf_[tail].next_l = idx;
    tail = idx;
  }
  if (consumer)
    cons_buf_[idx].next_l = kNil;
  else
    prod_buf_[idx].next_l = kNil;
}

std::uint16_t Vlrd::pop_wait(LinkTabEntry& lt, bool consumer) {
  if (cfg_.buffer_mgmt == sim::BufferMgmt::kBitvector)
    return pop_wait_lowest(lt, consumer);
  auto& head = consumer ? lt.cons_head : lt.prod_head;
  auto& tail = consumer ? lt.cons_tail : lt.prod_tail;
  if (head == kNil) return kNil;
  const std::uint16_t idx = head;
  head = consumer ? cons_buf_[idx].next_l : prod_buf_[idx].next_l;
  if (head == kNil) tail = kNil;
  return idx;
}

std::uint16_t Vlrd::pop_wait_lowest(LinkTabEntry& lt, bool consumer) {
  // Bitvector semantics: a priority encoder yields the lowest-index waiting
  // entry, not the oldest. The wait set is still threaded through the list
  // fields (they are just the functional representation of the set); the
  // timing cost of the scan is charged in pipeline_step_cost().
  auto& head = consumer ? lt.cons_head : lt.prod_head;
  auto& tail = consumer ? lt.cons_tail : lt.prod_tail;
  if (head == kNil) return kNil;
  std::uint16_t lowest = head;
  for (std::uint16_t i = head; i != kNil;
       i = consumer ? cons_buf_[i].next_l : prod_buf_[i].next_l)
    lowest = std::min(lowest, i);
  // Unlink `lowest` from the list.
  if (lowest == head) {
    head = consumer ? cons_buf_[lowest].next_l : prod_buf_[lowest].next_l;
    if (head == kNil) tail = kNil;
    return lowest;
  }
  std::uint16_t prev = head;
  while (true) {
    const std::uint16_t next =
        consumer ? cons_buf_[prev].next_l : prod_buf_[prev].next_l;
    if (next == lowest) break;
    prev = next;
  }
  const std::uint16_t after =
      consumer ? cons_buf_[lowest].next_l : prod_buf_[lowest].next_l;
  if (consumer)
    cons_buf_[prev].next_l = after;
  else
    prod_buf_[prev].next_l = after;
  if (after == kNil) tail = prev;
  return lowest;
}

void Vlrd::push_front_data(Sqi sqi, std::uint16_t idx) {
  LinkTabEntry& lt = link_tab_[sqi];
  prod_buf_[idx].next_l = lt.prod_head;
  lt.prod_head = idx;
  if (lt.prod_tail == kNil) lt.prod_tail = idx;
}

void Vlrd::append_out(std::uint16_t idx) {
  prod_buf_[idx].next_out = kNil;
  if (pohr_ == kNil) {
    pohr_ = potr_ = idx;
  } else {
    prod_buf_[potr_].next_out = idx;
    potr_ = idx;
  }
}

std::uint16_t Vlrd::pop_out() {
  if (pohr_ == kNil) return kNil;
  const std::uint16_t idx = pohr_;
  pohr_ = prod_buf_[idx].next_out;
  if (pohr_ == kNil) potr_ = kNil;
  return idx;
}

// --------------------------------------------------------------------------
// Address-mapping pipeline (Table I)
// --------------------------------------------------------------------------

bool Vlrd::pipeline_pending() const {
  return cihr_ != kNil || pihr_ != kNil || s1_out_.valid || s2_out_.valid;
}

Tick Vlrd::pipeline_step_cost() const {
  if (cfg_.buffer_mgmt == sim::BufferMgmt::kLinkedList) return 1;
  // Bitvector scan: a 64-wide priority encoder sweeps the larger buffer
  // once per pipeline step, so the step cost grows with the buffer size —
  // the scalability penalty that led the paper to choose linked lists.
  const std::size_t entries = std::max(prod_buf_.size(), cons_buf_.size());
  return 1 + static_cast<Tick>((entries + 63) / 64);
}

void Vlrd::kick_pipeline() {
  if (pipeline_scheduled_) return;
  if (!pipeline_pending()) {
    // Coupled-I/O devices NACK arrivals while the pipeline has work in
    // flight; it just went idle, so parked producers of any SQI may retry.
    if (cfg_.coupled_io && on_push_retry_) on_push_retry_(std::nullopt);
    return;
  }
  pipeline_scheduled_ = true;
  eq_.schedule_in(pipeline_step_cost(), [this] {
    pipeline_scheduled_ = false;
    pipeline_cycle();
    kick_pipeline();
  });
}

void Vlrd::pipeline_cycle() {
  ++cycle_;
  ++stats_.pipeline_cycles;
  PipeTraceRow row;
  row.cycle = cycle_;

  // Oldest instruction first: Stage 3 commits before Stage 1 reads, which
  // realizes the same-cycle RAW forwarding Table I annotates.
  Latch retiring = s2_out_;
  s2_out_ = Latch{};
  if (retiring.valid) stage3(retiring, trace_ ? &row.stage3 : nullptr);
  row.s3_valid = retiring.valid;
  row.s3_hit = retiring.hit;
  row.s3_consumer = retiring.is_consumer;
  row.s3_idx = retiring.idx;

  Latch deciding = s1_out_;
  s1_out_ = Latch{};
  if (deciding.valid) stage2(deciding, trace_ ? &row.stage2 : nullptr);
  row.s2_valid = deciding.valid;
  row.s2_hit = deciding.hit;
  s2_out_ = deciding;

  if (auto fresh = stage1(trace_ ? &row.stage1 : nullptr)) {
    s1_out_ = *fresh;
    row.s1_valid = true;
    row.s1_consumer = fresh->is_consumer;
    row.s1_idx = fresh->idx;
    row.s1_sqi = fresh->sqi;
    row.s1_head = fresh->head;
    row.s1_tail = fresh->tail;
  }

  if (trace_) trace_(row);
}

std::optional<Vlrd::Latch> Vlrd::stage1(std::string* tr) {
  // Consumer requests drain ahead of producer data (Table I's ordering).
  const bool consumer = cihr_ != kNil;
  const std::uint16_t idx = pop_input(consumer);
  if (idx == kNil) return std::nullopt;

  Latch l;
  l.valid = true;
  l.is_consumer = consumer;
  l.idx = idx;
  l.sqi = consumer ? cons_buf_[idx].sqi : prod_buf_[idx].sqi;
  const LinkTabEntry& lt = link_tab_[l.sqi];
  if (consumer) {
    l.head = lt.prod_head;  // is producer data waiting?
    l.tail = lt.cons_tail;
  } else {
    l.head = lt.cons_head;  // is a consumer request waiting?
    l.tail = lt.prod_tail;
  }
  if (tr) {
    std::ostringstream os;
    os << (consumer ? "prodHead,consTail <- " : "consHead,prodTail <- ")
       << idx_str(l.head) << "," << idx_str(l.tail) << " (linkTab["
       << l.sqi << "] for " << (consumer ? "consBuf[" : "prodBuf[") << idx
       << "])";
    *tr = os.str();
  }
  return l;
}

void Vlrd::stage2(Latch& l, std::string* tr) {
  l.hit = l.head != kNil;
  if (tr) {
    std::ostringstream os;
    if (l.hit) {
      os << "hit: read " << (l.is_consumer ? "prodBuf[" : "consBuf[")
         << l.head << "] for mapping";
    } else {
      os << "miss: append to the linked list in "
         << (l.is_consumer ? "consBuf" : "prodBuf");
    }
    *tr = os.str();
  }
}

void Vlrd::stage3(Latch& l, std::string* tr) {
  LinkTabEntry& lt = link_tab_[l.sqi];

  // Revalidate against the current table state: an older in-flight entry on
  // the same SQI may have consumed the head this latch saw in Stage 1.
  if (l.is_consumer) {
    const std::uint16_t data_idx = pop_wait(lt, /*consumer=*/false);
    if (data_idx != kNil) {
      l.hit = true;
      ++stats_.matches;
      ProdBufEntry& p = prod_buf_[data_idx];
      ConsBufEntry& c = cons_buf_[l.idx];
      p.out_valid = true;
      p.valid = false;  // leaves the IN partition
      p.cons_tgt = c.cons_tgt;
      p.cons_core = c.core;
      p.mapped = l.idx;
      c.valid = false;  // request satisfied
      append_out(data_idx);
      if (tr) {
        std::ostringstream os;
        os << "map prodBuf[" << data_idx << "] -> consTgt of consBuf["
           << l.idx << "]; linkTab[" << l.sqi
           << "].prodHead <- " << idx_str(lt.prod_head);
        *tr = os.str();
      }
      kick_injector();
    } else {
      l.hit = false;
      append_wait(lt, /*consumer=*/true, l.idx);
      if (tr) {
        std::ostringstream os;
        os << "linkTab[" << l.sqi << "].cons{Head,Tail} <- "
           << idx_str(lt.cons_head) << "," << idx_str(lt.cons_tail);
        *tr = os.str();
      }
    }
  } else {
    const std::uint16_t req_idx = pop_wait(lt, /*consumer=*/true);
    if (req_idx != kNil) {
      l.hit = true;
      ++stats_.matches;
      ProdBufEntry& p = prod_buf_[l.idx];
      ConsBufEntry& c = cons_buf_[req_idx];
      p.out_valid = true;
      p.valid = false;
      p.cons_tgt = c.cons_tgt;
      p.cons_core = c.core;
      p.mapped = req_idx;
      c.valid = false;
      append_out(l.idx);
      if (tr) {
        std::ostringstream os;
        os << "linkTab[" << l.sqi << "].consHead <- "
           << idx_str(lt.cons_head) << "; set prodBuf[" << l.idx
           << "].OUT POHR,POTR <- " << pohr_ << "," << potr_;
        *tr = os.str();
      }
      kick_injector();
    } else {
      l.hit = false;
      append_wait(lt, /*consumer=*/false, l.idx);
      if (tr) {
        std::ostringstream os;
        os << "linkTab[" << l.sqi << "].prod{Head,Tail} <- "
           << idx_str(lt.prod_head) << "," << idx_str(lt.prod_tail);
        *tr = os.str();
      }
    }
  }
}

// --------------------------------------------------------------------------
// Injection engine: drains the OUT list, stashing into consumer L1s
// --------------------------------------------------------------------------

void Vlrd::kick_injector() {
  // Fault plane: a stalled engine starts no new injection; the one already
  // in flight (injector_busy_) completes and its injector_done() re-calls
  // us, landing here again until set_injector_stalled(false) re-kicks.
  if (injector_stalled_) return;
  if (injector_busy_ || pohr_ == kNil) return;
  injector_busy_ = true;
  const std::uint16_t idx = pop_out();
  eq_.schedule_in(cfg_.inject_lat, [this, idx] { injector_done(idx); });
}

bool Vlrd::line_drained(Addr tgt) const {
  // A consumer line is re-armed for injection only once its Fig. 10
  // control word (the line's top 2 bytes) reads zero — i.e. the previous
  // frame was drained. Stashing over an undrained frame would destroy it:
  // the consumer's re-issued vl_select can re-arm the pushable tag in the
  // window between an injection landing and the consumer polling it, and
  // a second mapped message would otherwise overwrite the first.
  return hier_.backing().read(tgt + kLineCtrlOffset, 2) == 0;
}

void Vlrd::injector_done(std::uint16_t idx) {
  ProdBufEntry& p = prod_buf_[idx];
  assert(p.out_valid);
  obs::TraceBuffer* const tb = eq_.trace();
  if (line_drained(p.cons_tgt) &&
      hier_.inject(p.cons_core, p.cons_tgt, p.data.data())) {
    ++stats_.inject_ok;
    if (tb)
      tb->instant(eq_.now(), obs::kDeviceTid, "vlrd", "inject", "sqi", p.sqi);
    p.out_valid = false;  // slot free again
    p.mapped = kNil;
    LinkTabEntry& freed = link_tab_[p.sqi];
    if (freed.prod_count > 0) --freed.prod_count;
    auto& cc = freed.class_count[static_cast<std::size_t>(p.cls)];
    if (cc > 0) --cc;
    // Buffer space / quota freed: parked back-pressured producers of this
    // SQI (and one buffer-space waiter) retry.
    if (on_push_retry_) on_push_retry_(p.sqi);
  } else {
    // Consumer was context-switched / line evicted: the data stays with the
    // VLRD at the head of its SQI list; the consumer's re-issued vl_fetch
    // will map it again (§ III-B).
    ++stats_.inject_retry;
    if (tb)
      tb->instant(eq_.now(), obs::kDeviceTid, "vlrd", "inject_retry", "sqi",
                  p.sqi);
    p.out_valid = false;
    p.valid = true;
    p.mapped = kNil;
    push_front_data(p.sqi, idx);
    // If the consumer already parked a registration for its next line (the
    // common shape of the stale-line reject), recycle that registration
    // through the mapping pipeline so it claims the returned data at the
    // normal stage cost, instead of stranding both sides until the
    // consumer's poll-timeout re-issue. (This is device-internal recovery,
    // not a new bus arrival, so it is not subject to coupled_io NACKing.)
    LinkTabEntry& lt = link_tab_[p.sqi];
    const std::uint16_t req_idx = pop_wait(lt, /*consumer=*/true);
    if (req_idx != kNil) {
      cons_buf_[req_idx].next_l = kNil;
      cons_buf_[req_idx].next_in = kNil;  // may be stale from its first pass
      append_input(/*consumer=*/true, req_idx);
      kick_pipeline();
    }
  }
  injector_busy_ = false;
  kick_injector();
}

// --------------------------------------------------------------------------
// VL(ideal): unbounded, zero-latency reference model
// --------------------------------------------------------------------------

bool Vlrd::ideal_push(Sqi sqi, const mem::Line& data) {
  ideal_data_[sqi].push_back(data);
  ideal_deliver(sqi);
  return true;
}

bool Vlrd::ideal_fetch(Sqi sqi, Addr tgt, CoreId core) {
  for (const auto& w : ideal_waiters_[sqi])
    if (w.tgt == tgt) return true;  // idempotent re-registration
  ideal_waiters_[sqi].push_back(IdealWaiter{tgt, core});
  ideal_deliver(sqi);
  return true;
}

void Vlrd::ideal_deliver(Sqi sqi) {
  auto& data = ideal_data_[sqi];
  auto& waiters = ideal_waiters_[sqi];
  while (!data.empty() && !waiters.empty()) {
    const IdealWaiter w = waiters.front();
    waiters.pop_front();
    ++stats_.matches;
    if (line_drained(w.tgt) && hier_.inject(w.core, w.tgt, data.front().data())) {
      ++stats_.inject_ok;
      data.pop_front();
    } else {
      ++stats_.inject_retry;
      // Data stays queued; the consumer must re-issue its fetch.
    }
  }
}

// --------------------------------------------------------------------------
// Introspection
// --------------------------------------------------------------------------

std::uint32_t Vlrd::prod_free_slots() const {
  if (cfg_.ideal) return UINT32_MAX;
  std::uint32_t n = 0;
  for (const auto& e : prod_buf_)
    if (!e.valid && !e.out_valid) ++n;
  return n;
}

std::uint32_t Vlrd::cons_free_slots() const {
  if (cfg_.ideal) return UINT32_MAX;
  std::uint32_t n = 0;
  for (const auto& e : cons_buf_)
    if (!e.valid) ++n;
  return n;
}

std::uint32_t Vlrd::queued_data(Sqi sqi) const {
  if (cfg_.ideal) return static_cast<std::uint32_t>(ideal_data_[sqi].size());
  std::uint32_t n = 0;
  for (std::uint16_t i = link_tab_[sqi].prod_head; i != kNil;
       i = prod_buf_[i].next_l)
    ++n;
  return n;
}

std::vector<std::vector<mem::Line>> Vlrd::snapshot_resident() const {
  if (cfg_.ideal) {
    std::vector<std::vector<mem::Line>> out(ideal_data_.size());
    for (std::size_t s = 0; s < ideal_data_.size(); ++s)
      out[s].assign(ideal_data_[s].begin(), ideal_data_[s].end());
    return out;
  }
  std::vector<std::vector<mem::Line>> out(link_tab_.size());
  // An entry sits on exactly one of the three lists at a time (push_front
  // returns OUT entries to the wait list), but walk with a seen-map anyway
  // so a snapshot never duplicates a line.
  std::vector<bool> seen(prod_buf_.size(), false);
  auto grab = [&](std::uint16_t i) {
    if (i == kNil || seen[i]) return;
    const ProdBufEntry& e = prod_buf_[i];
    if (!e.valid && !e.out_valid) return;
    seen[i] = true;
    out[e.sqi].push_back(e.data);
  };
  for (std::uint16_t i = pohr_; i != kNil; i = prod_buf_[i].next_out)
    grab(i);
  for (const auto& lt : link_tab_)
    for (std::uint16_t i = lt.prod_head; i != kNil; i = prod_buf_[i].next_l)
      grab(i);
  for (std::uint16_t i = pihr_; i != kNil; i = prod_buf_[i].next_in) grab(i);
  return out;
}

std::uint32_t Vlrd::queued_requests(Sqi sqi) const {
  if (cfg_.ideal)
    return static_cast<std::uint32_t>(ideal_waiters_[sqi].size());
  std::uint32_t n = 0;
  for (std::uint16_t i = link_tab_[sqi].cons_head; i != kNil;
       i = cons_buf_[i].next_l)
    ++n;
  return n;
}

}  // namespace vl::vlrd
