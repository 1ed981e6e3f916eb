#include "runtime/vl_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace vl::runtime {

namespace {
constexpr Tick kPollInterval = 16;     ///< Cycles between control-word polls.
constexpr int kRefetchThreshold = 64;  ///< Polls before re-issuing vl_fetch.

// One 64 B endpoint address in a mapped queue page (Fig. 9).
Addr take_endpoint(Supervisor& sup, Addr page, const QueueHandle& q,
                   const char* role) {
  const auto ep = sup.alloc_endpoint(page);
  if (!ep)
    throw std::length_error("VL queue '" + q.name + "': " + role +
                            " page out of endpoint slots");
  return *ep;
}
}  // namespace

// --- Producer ----------------------------------------------------------------

Producer::Producer(Machine& m, const QueueHandle& q, Supervisor& sup,
                   sim::SimThread thread, std::size_t buf_lines)
    : m_(m),
      t_(thread),
      dev_va_(take_endpoint(sup, q.prod_page, q, "producer")),
      vlrd_id_(q.vlrd_id),
      sqi_(q.sqi) {
  buf_.reserve(buf_lines);
  for (std::size_t i = 0; i < buf_lines; ++i)
    buf_.push_back(m_.alloc(kLineSize));
}

sim::Co<std::size_t> Producer::stage_burst(std::span<const LineView> lines) {
  const std::size_t k = std::min(lines.size(), buf_.size());
  // Fill each ring line's data region high-to-low, then arm its control
  // word (Fig. 10).
  staged_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    const LineView& lv = lines[i];
    assert(lv.n >= 1 && lv.n <= max_elems(lv.size));
    const Addr line = buf_[(cur_ + i) % buf_.size()];
    const auto width = static_cast<unsigned>(elem_bytes(lv.size));
    for (std::uint8_t j = 0; j < lv.n; ++j)
      co_await t_.store(line + elem_offset(lv.size, j, lv.n), lv.w[j], width);
    co_await t_.store(line + kCtrlOffset, pack_ctrl(lv.size, lv.n, lv.qos),
                      2);
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

sim::Co<bool> Producer::try_enqueue(std::span<const std::uint64_t> words) {
  const LineView lv{words.data(), static_cast<std::uint8_t>(words.size())};
  const BurstResult b = co_await try_enqueue_burst({&lv, 1});
  co_return b.rc == isa::kVlOk;
}

sim::Co<void> Producer::enqueue_burst(std::span<const LineView> lines,
                                      NackObserver on_nack) {
  sim::WaitQueue& quota_wq = m_.vl_quota_wq(vlrd_id_, sqi_);
  std::size_t done = 0;
  while (done < lines.size()) {
    const std::size_t staged = co_await stage_burst(lines.subspan(done));
    std::size_t pushed = 0;
    std::size_t held = 0;  // space credits granted for the remaining run
    while (pushed < staged) {
      // Futex protocol (quota side): sample the wake epoch before the
      // attempt so an injection completing mid-push is never lost as a
      // wakeup. The space side is a credit gate — credits persist, so no
      // epoch gate is needed there.
      const std::uint64_t gate_quota = quota_wq.epoch();
      const BurstResult b = co_await push_staged(pushed, staged - pushed);
      pushed += b.accepted;
      held -= std::min(held, b.accepted);  // consumed with the slots
      if (pushed == staged) break;
      if (on_nack) on_nack(b.rc, lines[done + pushed]);
      if (b.rc == isa::kVlNackQuota) {
        // Only this SQI draining helps; slot credits we cannot convert go
        // back to the gate for producers of other SQIs.
        if (held) {
          m_.vl_space().release(held);
          held = 0;
        }
        co_await t_.park(quota_wq, gate_quota);
      } else {
        // Full buffer: any credits we still held were stale (their slots
        // went to a fast-path push) — drop them and wait for a grant
        // covering the rest of the run, up to one prodBuf: credits come
        // only from lines leaving the full buffer, so a larger want would
        // never be granted.
        held = std::min<std::size_t>(staged - pushed,
                                     m_.cfg().vlrd.prod_entries);
        co_await t_.acquire_credits(m_.vl_space(), held);
      }
    }
    done += staged;
  }
}

sim::Co<void> Producer::enqueue(std::span<const std::uint64_t> elems,
                                ElemSize size) {
  const LineView lv{elems.data(), static_cast<std::uint8_t>(elems.size()),
                    QosClass::kStandard, size};
  co_await enqueue_burst({&lv, 1});
}

sim::Co<void> Producer::enqueue1(std::uint64_t w) {
  co_await enqueue({&w, 1});
}

// --- Consumer ----------------------------------------------------------------

Consumer::Consumer(Machine& m, const QueueHandle& q, Supervisor& sup,
                   sim::SimThread thread, std::size_t buf_lines)
    : m_(m),
      t_(thread),
      dev_va_(take_endpoint(sup, q.cons_page, q, "consumer")) {
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
    // Fused select+fetch (see isa::VlPort for why).
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

sim::Co<Frame> Consumer::dequeue() {
  for (;;) {
    if (auto got = co_await try_dequeue_once()) co_return *got;
    co_await t_.compute(kPollInterval);
  }
}

sim::Co<std::uint64_t> Consumer::dequeue1() {
  const Frame f = co_await dequeue();
  assert(f.elems.size() == 1);
  co_return f.elems[0];
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

// --- VlQueueLib ---------------------------------------------------------------

QueueHandle VlQueueLib::open(const std::string& name) {
  const int desc = sup_.shm_open(name);
  if (desc < 0)
    throw std::length_error("VL queue '" + name + "': out of SQIs");
  const auto pp = sup_.vl_mmap(desc, Prot::kWrite);
  const auto cp = sup_.vl_mmap(desc, Prot::kRead);
  if (!pp || !cp)
    throw std::length_error("VL queue '" + name + "': out of device pages");
  QueueHandle q;
  q.name = name;
  q.desc = desc;
  q.sqi = Supervisor::desc_sqi(desc);
  q.vlrd_id = Supervisor::desc_device(desc);
  q.prod_page = *pp;
  q.cons_page = *cp;
  return q;
}

}  // namespace vl::runtime
