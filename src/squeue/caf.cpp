#include "squeue/caf.hpp"

#include <cassert>

namespace vl::squeue {

// Every device access is a register-granularity round trip: hold the issue
// port, one bus hop out, device-side operation, bounded response.

sim::Co<CafDevice::Grant> SimCaf::dev_open(sim::SimThread t, std::uint64_t v,
                                           QosClass cls,
                                           std::uint32_t max_frames,
                                           std::uint32_t* granted) {
  co_await t.core->acquire_port(t.tid);
  auto& m = dev_.machine();
  const Tick arrive = m.mem().device_hop(0);
  co_await sim::DelayUntil(m.eq(), arrive);
  const CafDevice::Grant g =
      dev_.enq_open(q_, v, cls, words_, max_frames, granted);
  const Tick resp =
      lat_ > m.cfg().cache.bus_hop ? lat_ - m.cfg().cache.bus_hop : 0;
  co_await sim::Delay(m.eq(), resp);
  t.core->release_port();
  co_return g;
}

sim::Co<void> SimCaf::dev_enq_reserved(sim::SimThread t, std::uint64_t v,
                                       QosClass cls) {
  co_await t.core->acquire_port(t.tid);
  auto& m = dev_.machine();
  const Tick arrive = m.mem().device_hop(0);
  co_await sim::DelayUntil(m.eq(), arrive);
  dev_.enq_reserved(q_, v, cls);
  const Tick resp =
      lat_ > m.cfg().cache.bus_hop ? lat_ - m.cfg().cache.bus_hop : 0;
  co_await sim::Delay(m.eq(), resp);
  t.core->release_port();
}

sim::Co<bool> SimCaf::dev_deq(sim::SimThread t, std::uint64_t& out,
                              QosClass* cls) {
  co_await t.core->acquire_port(t.tid);
  auto& m = dev_.machine();
  const Tick arrive = m.mem().device_hop(0);
  co_await sim::DelayUntil(m.eq(), arrive);
  const bool ok = dev_.deq(q_, out, cls);
  const Tick resp =
      lat_ > m.cfg().cache.bus_hop ? lat_ - m.cfg().cache.bus_hop : 0;
  co_await sim::Delay(m.eq(), resp);
  t.core->release_port();
  co_return ok;
}

sim::Co<void> SimCaf::transfer_reserved(sim::SimThread t,
                                        std::span<const Msg> msgs,
                                        std::size_t frames, QosClass cls) {
  // One register transfer per payload word — the cost of a register-
  // granularity interface. The first word of the first frame rode the
  // frame-open write, so it is skipped here.
  for (std::size_t f = 0; f < frames; ++f) {
    const Msg& m = msgs[f];
    assert(m.n == words_ && "SimCaf channels carry fixed-size frames");
    for (std::uint8_t i = (f == 0 ? 1 : 0); i < m.n; ++i)
      co_await dev_enq_reserved(t, m.w[i], cls);
  }
}

sim::Co<SendManyResult> SimCaf::try_send_many(sim::SimThread t,
                                              std::span<const Msg> msgs) {
  SendManyResult r;
  if (msgs.empty()) co_return r;
  // The multi-frame credit grant covers a run of same-class frames (the
  // grant is per class, so a class change ends the run).
  std::size_t run = 1;
  while (run < msgs.size() && msgs[run].qos == msgs[0].qos) ++run;
  assert(msgs[0].n == words_ && "SimCaf channels carry fixed-size frames");

  co_await send_mu_.lock();
  std::uint32_t granted = 0;
  const CafDevice::Grant g = co_await dev_open(
      t, msgs[0].w[0], msgs[0].qos, static_cast<std::uint32_t>(run), &granted);
  if (granted == 0) {
    send_mu_.unlock();
    r.status = g == CafDevice::Grant::kQuota ? SendStatus::kQuota
                                             : SendStatus::kFull;
    co_return r;
  }
  co_await transfer_reserved(t, msgs, granted, msgs[0].qos);
  send_mu_.unlock();
  r.sent = granted;
  // Status kOk means "no refusal": a run that merely ended at a class
  // boundary (full grant, more messages of another class behind it) must
  // NOT read as back-pressure, or the blocking wrapper would park on the
  // credit futex with credits to spare.
  if (granted < run)
    r.status = g == CafDevice::Grant::kQuota ? SendStatus::kQuota
                                             : SendStatus::kFull;
  co_return r;
}

sim::Co<void> SimCaf::finish_frame(sim::SimThread t, Msg& msg) {
  for (std::uint8_t i = 1; i < words_; ++i) {
    std::uint64_t v = 0;
    for (;;) {
      // The producer transfers its whole frame without parking (credits
      // were pre-granted), so trailing words are at most a few register
      // round trips behind the first — poll them in.
      // NB: the await must not sit in the loop condition — GCC 12 destroys
      // condition temporaries before the suspended callee resumes, which
      // tears down the in-flight coroutine (silent no-op).
      const bool ok = co_await dev_deq(t, v, nullptr);
      if (ok) break;
      co_await t.compute(kRetryBackoff);
    }
    msg.w[i] = v;
  }
}

sim::Co<std::size_t> SimCaf::try_recv_many(sim::SimThread t,
                                           std::span<Msg> out) {
  std::size_t got = 0;
  co_await recv_mu_.lock();  // one consumer-side grant covers the run
  while (got < out.size()) {
    std::uint64_t v = 0;
    QosClass cls = QosClass::kStandard;
    const bool ok = co_await dev_deq(t, v, &cls);
    if (!ok) break;
    Msg& m = out[got];
    m.n = words_;
    m.qos = cls;
    m.w[0] = v;
    co_await finish_frame(t, m);
    ++got;
  }
  recv_mu_.unlock();
  co_return got;
}

}  // namespace vl::squeue
