#include "runtime/vl_queue.hpp"

#include <algorithm>
#include <cassert>

namespace vl::runtime {

namespace {
constexpr Tick kPollInterval = 16;     ///< Cycles between control-word polls.
constexpr int kRefetchThreshold = 64;  ///< Polls before re-issuing vl_fetch.
}  // namespace

// --- Producer ----------------------------------------------------------------

Producer::Producer(Machine& m, const QueueHandle& q, Supervisor& sup,
                   sim::SimThread thread, std::size_t buf_lines)
    : m_(m), t_(thread), vlrd_id_(q.vlrd_id), sqi_(q.sqi) {
  auto ep = sup.alloc_endpoint(q.prod_page);
  assert(ep && "producer page out of endpoint slots");
  dev_va_ = *ep;
  buf_.reserve(buf_lines);
  for (std::size_t i = 0; i < buf_lines; ++i)
    buf_.push_back(m_.alloc(kLineSize));
}

sim::Co<bool> Producer::try_enqueue(std::span<const std::uint64_t> words) {
  co_return co_await try_enqueue_elems(ElemSize::kDword, words);
}

sim::Co<std::size_t> Producer::stage_burst(std::span<const LineView> lines) {
  const std::size_t k = std::min(lines.size(), buf_.size());
  // Stage the run: fill each ring line's data region and arm its control
  // word (Fig. 10), exactly as the single-line path does — the savings are
  // all in the fused port/device transaction of push_staged().
  staged_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    const LineView& lv = lines[i];
    assert(lv.n >= 1 && lv.n <= kMaxWordsPerLine);
    const Addr line = buf_[(cur_ + i) % buf_.size()];
    for (std::uint8_t j = 0; j < lv.n; ++j)
      co_await t_.store(line + dword_offset(j, lv.n), lv.w[j], 8);
    co_await t_.store(line + kCtrlOffset,
                      pack_ctrl(ElemSize::kDword, lv.n, lv.qos), 2);
    staged_.push_back(line);
  }
  co_return k;
}

sim::Co<BurstResult> Producer::push_staged(std::size_t offset,
                                           std::size_t count) {
  BurstResult r;
  r.rc = isa::kVlOk;
  assert(offset + count <= staged_.size());
  if (count == 0) co_return r;
  std::size_t accepted = 0;
  const int rc =
      co_await m_.vl_port(t_.core->id())
          .vl_select_push_burst(
              t_.tid,
              std::span<const Addr>(staged_.data() + offset, count), dev_va_,
              &accepted);
  cur_ = (cur_ + accepted) % buf_.size();  // hardware zeroed accepted lines
  r.accepted = accepted;
  if (accepted < count) {
    ++retries_;  // unaccepted lines keep their data; caller may re-push
    r.rc = rc;
  }
  co_return r;
}

sim::Co<BurstResult> Producer::try_enqueue_burst(
    std::span<const LineView> lines) {
  if (lines.empty()) co_return BurstResult{0, isa::kVlOk};
  const std::size_t k = co_await stage_burst(lines);
  co_return co_await push_staged(0, k);
}

sim::Co<bool> Producer::try_enqueue_elems(
    ElemSize sz, std::span<const std::uint64_t> elems) {
  const int rc = co_await try_enqueue_raw(sz, elems);
  co_return rc == isa::kVlOk;
}

sim::Co<int> Producer::try_enqueue_raw(ElemSize sz,
                                       std::span<const std::uint64_t> elems) {
  assert(!elems.empty() && elems.size() <= max_elems(sz));
  const Addr line = buf_[cur_];
  const auto n = static_cast<std::uint8_t>(elems.size());
  const auto width = static_cast<unsigned>(elem_bytes(sz));

  // Fill the data region high-to-low, then arm the control word (Fig. 10).
  // Element-size frames carry the standard class; classed traffic goes
  // through the staged-burst path, which tags each line itself.
  for (std::uint8_t i = 0; i < n; ++i)
    co_await t_.store(line + elem_offset(sz, i, n), elems[i], width);
  co_await t_.store(line + kCtrlOffset,
                    pack_ctrl(sz, n, QosClass::kStandard), 2);

  // Fused select+push: under core oversubscription, issuing them as two
  // port transactions lets the sibling thread's ops interleave and the
  // resulting context switch clears the selection latch every time.
  const int rc =
      co_await m_.vl_port(t_.core->id()).vl_select_push(t_.tid, line, dev_va_);
  if (rc == isa::kVlOk) {
    cur_ = (cur_ + 1) % buf_.size();  // hardware zeroed the line for reuse
    co_return rc;
  }
  ++retries_;
  co_return rc;  // data still in the line; caller may retry the push
}

sim::Co<void> Producer::enqueue(std::span<const std::uint64_t> words) {
  co_await enqueue_elems(ElemSize::kDword, words);
}

sim::Co<void> Producer::enqueue1(std::uint64_t w) {
  const std::uint64_t one[1] = {w};
  co_await enqueue(std::span<const std::uint64_t>(one, 1));
}

sim::Co<void> Producer::enqueue_elems(ElemSize sz,
                                      std::span<const std::uint64_t> elems) {
  sim::WaitQueue& quota_wq = m_.vl_quota_wq(vlrd_id_, sqi_);
  bool holds_credit = false;  // granted a space credit last lap
  for (;;) {
    // Futex protocol (quota side): sample the wake epoch before the
    // attempt so an injection completing mid-push is never lost as a
    // wakeup. The space side is a credit gate — credits persist, so no
    // epoch gate is needed there.
    // NB: the await must not sit in the loop condition — GCC 12 destroys
    // condition temporaries before the suspended callee resumes, which
    // tears down the in-flight coroutine (silent no-op).
    const std::uint64_t gate_quota = quota_wq.epoch();
    const int rc = co_await try_enqueue_raw(sz, elems);
    if (rc == isa::kVlOk) break;
    if (rc == isa::kVlNackQuota) {
      // Our SQI's (or class's) quota is exhausted: only this SQI draining
      // helps, so park on its futex. A slot credit we were granted but
      // cannot use goes back to the gate — some other SQI's space-parked
      // producer may be able to take the slot we cannot.
      if (holds_credit) {
        holds_credit = false;
        m_.vl_space().release(1);
      }
      co_await t_.park(quota_wq, gate_quota);
    } else {
      // Buffer full: wait for a freed-slot credit from the routing device,
      // donating the core instead of spinning a backoff timer. (A held
      // credit that still NACKed was stale — taken by a fast-path push —
      // and is simply dropped.)
      co_await t_.acquire_credits(m_.vl_space(), 1);
      holds_credit = true;
    }
  }
}

// --- Consumer ----------------------------------------------------------------

Consumer::Consumer(Machine& m, const QueueHandle& q, Supervisor& sup,
                   sim::SimThread thread, std::size_t buf_lines)
    : m_(m), t_(thread) {
  auto ep = sup.alloc_endpoint(q.cons_page);
  assert(ep && "consumer page out of endpoint slots");
  dev_va_ = *ep;
  buf_.reserve(buf_lines);
  for (std::size_t i = 0; i < buf_lines; ++i)
    buf_.push_back(m_.alloc(kLineSize));
  armed_.assign(buf_lines, false);
}

sim::Co<std::optional<Frame>> Consumer::poll_once(Addr line) {
  const auto ctrl =
      static_cast<std::uint16_t>(co_await t_.load(line + kCtrlOffset, 2));
  if (ctrl == 0) co_return std::nullopt;
  Frame f;
  f.size = ctrl_size(ctrl);
  f.qos = ctrl_qos(ctrl);
  const std::uint8_t n = ctrl_count(ctrl);
  const auto width = static_cast<unsigned>(elem_bytes(f.size));
  f.elems.reserve(n);
  for (std::uint8_t i = 0; i < n; ++i)
    f.elems.push_back(
        co_await t_.load(line + elem_offset(f.size, i, n), width));
  // Mark the line clean so the next injection is distinguishable, and
  // disarm its pushable tag. The tag was already consumed by the injection
  // itself, but a re-issued vl_select can have re-armed it in the window
  // between the injection landing and this poll observing it — in which
  // case a stale registration for this line is also parked in the device,
  // and an armed line would let the *next* message be silently injected
  // here after we advance to a new ring line. Disarmed, that stale
  // injection is rejected and the data recovers through the § III-B
  // re-fetch path into the line we are actually watching.
  co_await t_.store(line + kCtrlOffset, 0, 2);
  m_.mem().set_pushable(t_.core->id(), line, false);
  co_return f;
}

sim::Co<std::optional<Frame>> Consumer::try_dequeue_once() {
  const Addr line = buf_[cur_];
  // Data may already have landed from an earlier registration.
  if (auto got = co_await poll_once(line)) {
    armed_[cur_] = false;
    polls_since_fetch_ = 0;
    cur_ = (cur_ + 1) % buf_.size();
    co_return got;
  }
  isa::VlPort& port = m_.vl_port(t_.core->id());
  if (!armed_[cur_]) {
    // Fused select+fetch (see Producer::try_enqueue_elems for why).
    co_await port.vl_select_fetch(t_.tid, line, dev_va_);
    armed_[cur_] = true;
    polls_since_fetch_ = 0;
    // Backlogged data can inject during the fetch's response window — one
    // immediate poll catches it without waiting out a discovery interval.
    if (auto got = co_await poll_once(line)) {
      armed_[cur_] = false;
      cur_ = (cur_ + 1) % buf_.size();
      co_return got;
    }
  } else if (++polls_since_fetch_ >= kRefetchThreshold) {
    polls_since_fetch_ = 0;
    // A rejected injection can have diverted this line's message into a
    // later armed ring line (the device recycles the next waiting
    // registration for returned data, § III-B): look for an out-of-order
    // landing before concluding the registration was lost.
    if (auto got = co_await sweep_landed()) co_return got;
    // A context switch may have cleared the pushable tag: re-issue the
    // request (sets it again); registration is idempotent per consumer
    // target so this is loss-free (§ III-B).
    ++refetches_;
    co_await port.vl_select_fetch(t_.tid, line, dev_va_);
    armed_[cur_] = true;
  }
  co_return std::nullopt;
}

sim::Co<void> Consumer::arm_ahead(std::size_t k) {
  if (k > buf_.size()) k = buf_.size();
  // Demand must stay a contiguous ring-order prefix so injections land in
  // the order the polls visit the lines; registrations always extend the
  // armed run and stop at the device's first refusal.
  std::vector<Addr> want;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t idx = (cur_ + i) % buf_.size();
    if (!armed_[idx]) want.push_back(buf_[idx]);
  }
  if (want.empty()) co_return;
  std::size_t registered = 0;
  co_await m_.vl_port(t_.core->id())
      .vl_select_fetch_burst(t_.tid, want, dev_va_, &registered);
  std::size_t marked = 0;
  for (std::size_t i = 0; i < k && marked < registered; ++i) {
    const std::size_t idx = (cur_ + i) % buf_.size();
    if (!armed_[idx]) {
      armed_[idx] = true;
      ++marked;
    }
  }
}

void Consumer::release_ahead() {
  for (std::size_t i = 0; i < buf_.size(); ++i) {
    if (!armed_[i]) continue;
    m_.mem().set_pushable(t_.core->id(), buf_[i], false);
    armed_[i] = false;
  }
  polls_since_fetch_ = 0;
}

sim::Co<std::optional<Frame>> Consumer::sweep_landed() {
  for (std::size_t k = 0; k < buf_.size(); ++k) {
    const std::size_t idx = (cur_ + k) % buf_.size();
    if (auto got = co_await poll_once(buf_[idx])) {
      armed_[idx] = false;
      polls_since_fetch_ = 0;
      cur_ = (idx + 1) % buf_.size();
      co_return got;
    }
  }
  co_return std::nullopt;
}

sim::Co<Frame> Consumer::dequeue_frame() {
  for (;;) {
    if (auto got = co_await try_dequeue_once()) co_return *got;
    co_await t_.compute(kPollInterval);
  }
}

void Consumer::migrate(sim::SimThread to) {
  const CoreId old_core = t_.core->id();
  if (to.core->id() != old_core) {
    // The OS migration path unsets the pushable flag before the thread can
    // run elsewhere (§ III-B), exactly like a context switch would. Drop
    // the armed bookkeeping with it so the next probe re-registers demand
    // from the new core immediately instead of waiting out the refetch
    // threshold.
    for (const Addr line : buf_)
      m_.mem().set_pushable(old_core, line, false);
    armed_.assign(buf_.size(), false);
    polls_since_fetch_ = 0;
  }
  t_ = to;
}

sim::Co<std::vector<std::uint64_t>> Consumer::dequeue() {
  Frame f = co_await dequeue_frame();
  co_return std::move(f.elems);
}

sim::Co<std::uint64_t> Consumer::dequeue1() {
  std::vector<std::uint64_t> v = co_await dequeue();
  assert(v.size() == 1);
  co_return v[0];
}

sim::Co<std::optional<std::vector<std::uint64_t>>> Consumer::try_dequeue(
    int poll_budget) {
  for (int i = 0;; ++i) {
    if (auto got = co_await try_dequeue_once())
      co_return std::move(got->elems);
    if (i >= poll_budget) co_return std::nullopt;
    co_await t_.compute(kPollInterval);
  }
}

// --- VlQueueLib ---------------------------------------------------------------

QueueHandle VlQueueLib::open(const std::string& name) {
  const int desc = sup_.shm_open(name);
  assert(desc >= 0 && "out of SQIs");
  QueueHandle q;
  q.desc = desc;
  q.sqi = Supervisor::desc_sqi(desc);
  q.vlrd_id = Supervisor::desc_device(desc);
  auto pp = sup_.vl_mmap(desc, Prot::kWrite);
  auto cp = sup_.vl_mmap(desc, Prot::kRead);
  assert(pp && cp);
  q.prod_page = *pp;
  q.cons_page = *cp;
  return q;
}

}  // namespace vl::runtime
