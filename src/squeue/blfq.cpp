#include "squeue/blfq.hpp"

#include <algorithm>
#include <cassert>

namespace vl::squeue {

namespace {
constexpr Tick kEmptyBackoff = 32;  ///< Full-ring / empty-ring poll pause.
constexpr Tick kContendedBackoff = 4;

std::uint64_t pack_hdr(const Msg& msg) {
  return static_cast<std::uint64_t>(msg.n) |
         (static_cast<std::uint64_t>(msg.qos) << 8);
}
}  // namespace

SimBlfq::SimBlfq(runtime::Machine& m, std::size_t capacity)
    : Channel(kEmptyBackoff), m_(m), cap_(capacity), mask_(capacity - 1) {
  assert(capacity >= 2 && (capacity & (capacity - 1)) == 0);
  tail_ = m_.alloc(kLineSize);
  head_ = m_.alloc(kLineSize);
  cells_ = m_.alloc(capacity * kCellStride);
  // Sequence initialization (functional, pre-run): cell i starts at seq i.
  for (std::uint64_t i = 0; i < capacity; ++i)
    m_.mem().backing().write(cell_meta(i), i, 8);
}

sim::Co<void> SimBlfq::store_cell(sim::SimThread t, std::uint64_t pos,
                                  const Msg& msg) {
  const Addr data = cell_data(pos);
  // Header word: element count plus the service class, so per-class
  // accounting stays truthful through the software ring.
  co_await t.store(data, pack_hdr(msg), 2);
  for (std::uint8_t i = 0; i < msg.n; ++i)
    co_await t.store(data + 8 + i * 8, msg.w[i], 8);
  // Publish: consumers wait for seq == pos + 1.
  co_await t.store(cell_meta(pos), pos + 1, 8);
}

sim::Co<Msg> SimBlfq::load_cell(sim::SimThread t, std::uint64_t pos) {
  const Addr data = cell_data(pos);
  Msg msg;
  const auto hdr = co_await t.load(data, 2);
  msg.n = static_cast<std::uint8_t>(hdr & 0xff);
  msg.qos = qos_class_from_byte(static_cast<std::uint8_t>(hdr >> 8));
  for (std::uint8_t i = 0; i < msg.n; ++i)
    msg.w[i] = co_await t.load(data + 8 + i * 8, 8);
  // Recycle the slot for the producer one lap ahead.
  co_await t.store(cell_meta(pos), pos + cap_, 8);
  co_return msg;
}

sim::Co<SimBlfq::Claim> SimBlfq::claim(sim::SimThread t, Addr index,
                                       std::size_t max, std::uint64_t lag) {
  for (;;) {
    const std::uint64_t pos = co_await t.load(index, 8);
    // Ready cells are contiguous from the index (the other side completes
    // in index order up to in-flight stores), so probing the run's *last*
    // cell suffices; shrink until it reads ready.
    for (std::size_t k = max;; k /= 2) {
      const std::uint64_t want = pos + k - 1;
      const std::uint64_t seq = co_await t.load(cell_meta(want), 8);
      const auto dif = static_cast<std::int64_t>(seq - (want + lag));
      if (dif > 0) break;  // the index already moved past our snapshot
      if (dif == 0) {
        // One CAS claims the whole run — the contended ownership transfer.
        if (co_await t.cas64(index, pos, pos + k)) co_return Claim{pos, k};
        break;  // lost the race
      }
      if (k == 1) co_return Claim{pos, 0};  // not even one cell is ready
    }
    co_await t.compute(kContendedBackoff);  // reload the index
  }
}

sim::Co<void> SimBlfq::await_inner(sim::SimThread t, std::uint64_t pos,
                                   std::uint64_t seq) {
  // The other side one lap behind may still be completing an inner cell
  // (completions land out of order); its store is already in flight, so
  // this wait is memory-latency-bounded, not queue-state blocking.
  for (;;) {
    const std::uint64_t s = co_await t.load(cell_meta(pos), 8);
    if (s == seq) co_return;
    co_await t.compute(kContendedBackoff);
  }
}

sim::Co<SendManyResult> SimBlfq::try_send_many(sim::SimThread t,
                                               std::span<const Msg> msgs) {
  SendManyResult r;
  while (r.sent < msgs.size()) {
    const Claim c =
        co_await claim(t, tail_, std::min(msgs.size() - r.sent, kMaxRun), 0);
    if (c.n == 0) {
      // Even one slot is still occupied a lap behind: the ring is full.
      // BLFQ has no back-pressure wake — the caller polls.
      r.status = SendStatus::kFull;
      co_return r;
    }
    for (std::size_t i = 0; i < c.n; ++i) {
      // The run's last cell read recycled before the CAS; no one else can
      // touch it since, so only inner cells are re-checked.
      if (i + 1 < c.n) co_await await_inner(t, c.pos + i, c.pos + i);
      co_await store_cell(t, c.pos + i, msgs[r.sent + i]);
    }
    r.sent += c.n;
  }
  co_return r;
}

sim::Co<std::size_t> SimBlfq::try_recv_many(sim::SimThread t,
                                            std::span<Msg> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const Claim c =
        co_await claim(t, head_, std::min(out.size() - got, kMaxRun), 1);
    if (c.n == 0) break;  // nothing (more) published
    for (std::size_t i = 0; i < c.n; ++i) {
      if (i + 1 < c.n) co_await await_inner(t, c.pos + i, c.pos + i + 1);
      out[got + i] = co_await load_cell(t, c.pos + i);
    }
    got += c.n;
  }
  co_return got;
}

std::uint64_t SimBlfq::depth() const {
  const std::uint64_t tail = m_.mem().backing().read(tail_, 8);
  const std::uint64_t head = m_.mem().backing().read(head_, 8);
  return tail >= head ? tail - head : 0;
}

}  // namespace vl::squeue
