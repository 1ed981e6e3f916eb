#include "squeue/zmq.hpp"

#include <algorithm>
#include <cassert>

namespace vl::squeue {

namespace {
// The simulation is fully deterministic, so identical fixed backoffs can
// phase-lock contending spinners into a periodic schedule where one class of
// threads holds the lock at every instant the other class attempts its CAS —
// a livelock no real machine exhibits, because real timing noise breaks the
// phase. Mix a per-thread, per-attempt jitter into the lock-spin backoff to
// restore that asymmetry deterministically. (Empty/full waits no longer
// spin at all — they park on the channel's WaitQueues.)
constexpr Tick kSpinBackoff = 8;          ///< Base lock-spin backoff.
constexpr std::uint32_t kJitterCap = 16;  ///< Jitter window modulus.
constexpr int kLockSpinRounds = 4;        ///< Bounded spin before parking.

Tick jitter(const sim::SimThread& t, std::uint32_t attempt) {
  std::uint32_t h = static_cast<std::uint32_t>(t.core->id()) * 2654435761u ^
                    static_cast<std::uint32_t>(t.tid) * 40503u ^
                    attempt * 2246822519u;
  h ^= h >> 15;
  const auto window =
      static_cast<std::uint32_t>(kSpinBackoff) + attempt % kJitterCap + 1;
  return kSpinBackoff + h % window;
}

std::uint64_t pack_hdr(const Msg& msg) {
  return static_cast<std::uint64_t>(msg.n) |
         (static_cast<std::uint64_t>(msg.qos) << 8);
}
}  // namespace

SimZmq::SimZmq(runtime::Machine& m, std::size_t hwm, Tick sw_overhead)
    : m_(m), hwm_(hwm), mask_(hwm - 1), overhead_(sw_overhead),
      not_empty_(m.eq()), not_full_(m.eq()), lock_wq_(m.eq()) {
  assert(hwm >= 2 && (hwm & (hwm - 1)) == 0);
  lock_ = m_.alloc(kLineSize);
  meta_ = m_.alloc(kLineSize);
  cells_ = m_.alloc(hwm * kCellStride);
}

sim::Co<void> SimZmq::lock(sim::SimThread t) {
  // Bounded lock spin before parking (adaptive-mutex discipline): short
  // holds are still grabbed out of the spin and generate the shared-line
  // traffic Fig. 13 measures; long waits park and cost O(1) events.
  for (std::uint32_t attempt = 0;;) {
    if (co_await t.cas64(lock_, 0, 1)) co_return;
    // Test-and-test-and-set: spin on a local (Shared) copy, bounded.
    bool saw_free = false;
    for (int spin = 0; spin < kLockSpinRounds && !saw_free; ++spin) {
      co_await t.compute(jitter(t, ++attempt));
      saw_free = co_await t.load(lock_, 8) == 0;
    }
    if (saw_free) continue;
    // Still held after the spin budget: park until the holder releases
    // (epoch sampled before the final check closes the wakeup race).
    const std::uint64_t gate = lock_wq_.epoch();
    if (co_await t.load(lock_, 8) == 0) continue;
    co_await t.park(lock_wq_, gate);
  }
}

sim::Co<void> SimZmq::unlock(sim::SimThread t) {
  co_await t.store(lock_, 0, 8);
  lock_wq_.wake_one();
}

sim::Co<void> SimZmq::store_cell(sim::SimThread t, std::uint64_t pos,
                                 const Msg& msg) {
  const Addr data = cell(pos);
  // Header: element count + service class (carried through the software
  // ring so per-class accounting stays truthful on ZMQ too).
  co_await t.store(data, pack_hdr(msg), 2);
  for (std::uint8_t i = 0; i < msg.n; ++i)
    co_await t.store(data + 8 + i * 8, msg.w[i], 8);
}

sim::Co<Msg> SimZmq::load_cell(sim::SimThread t, std::uint64_t pos) {
  const Addr data = cell(pos);
  Msg msg;
  const auto hdr = co_await t.load(data, 2);
  msg.n = static_cast<std::uint8_t>(hdr & 0xff);
  msg.qos = qos_class_from_byte(static_cast<std::uint8_t>(hdr >> 8));
  for (std::uint8_t i = 0; i < msg.n; ++i)
    msg.w[i] = co_await t.load(data + 8 + i * 8, 8);
  co_return msg;
}

sim::Co<SendManyResult> SimZmq::try_send_many(sim::SimThread t,
                                              std::span<const Msg> msgs) {
  SendManyResult r;
  while (r.sent < msgs.size()) {
    // One socket software pass and one lock hold cover the whole run —
    // the envelope/lock cost is amortized across the batch.
    co_await t.compute(overhead_);
    co_await lock(t);
    const std::uint64_t head = co_await t.load(meta_, 8);
    const std::uint64_t tail = co_await t.load(meta_ + 8, 8);
    const std::uint64_t free = hwm_ - (tail - head);
    const std::size_t run =
        std::min({msgs.size() - r.sent, static_cast<std::size_t>(free),
                  kMaxRun});
    if (run == 0) {
      co_await unlock(t);
      r.status = SendStatus::kFull;
      co_return r;
    }
    for (std::size_t i = 0; i < run; ++i)
      co_await store_cell(t, tail + i, msgs[r.sent + i]);
    co_await t.store(meta_ + 8, tail + run, 8);
    co_await unlock(t);
    for (std::size_t i = 0; i < run; ++i) not_empty_.wake_one();
    r.sent += run;
  }
  co_return r;
}

sim::Co<std::size_t> SimZmq::try_recv_many(sim::SimThread t,
                                           std::span<Msg> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    co_await t.compute(overhead_);
    co_await lock(t);
    const std::uint64_t head = co_await t.load(meta_, 8);
    const std::uint64_t tail = co_await t.load(meta_ + 8, 8);
    const std::size_t run =
        std::min({out.size() - got, static_cast<std::size_t>(tail - head),
                  kMaxRun});
    if (run == 0) {
      co_await unlock(t);
      co_return got;
    }
    for (std::size_t i = 0; i < run; ++i)
      out[got + i] = co_await load_cell(t, head + i);
    co_await t.store(meta_, head + run, 8);
    co_await unlock(t);
    for (std::size_t i = 0; i < run; ++i) not_full_.wake_one();
    got += run;
  }
  co_return got;
}

std::uint64_t SimZmq::depth() const {
  const std::uint64_t head = m_.mem().backing().read(meta_, 8);
  const std::uint64_t tail = m_.mem().backing().read(meta_ + 8, 8);
  return tail - head;
}

}  // namespace vl::squeue
