#include "squeue/vl_channel.hpp"

#include <algorithm>
#include <vector>

namespace vl::squeue {

runtime::Producer& VlChannel::producer_for(sim::SimThread t) {
  const Key k{t.core->id(), t.tid};
  auto it = producers_.find(k);
  if (it == producers_.end()) {
    it = producers_
             .emplace(k, std::make_unique<runtime::Producer>(
                             lib_.machine(), q_, lib_.supervisor(), t,
                             buf_lines_))
             .first;
  }
  return *it->second;
}

runtime::Consumer& VlChannel::consumer_for(sim::SimThread t) {
  const Key k{t.core->id(), t.tid};
  auto it = consumers_.find(k);
  if (it == consumers_.end()) {
    it = consumers_
             .emplace(k, std::make_unique<runtime::Consumer>(
                             lib_.machine(), q_, lib_.supervisor(), t,
                             buf_lines_))
             .first;
  }
  return *it->second;
}

namespace {

// Borrowed line views over a lap of at most `max` messages.
std::vector<runtime::LineView> line_views(std::span<const Msg> msgs,
                                          std::size_t max) {
  msgs = msgs.first(std::min(msgs.size(), max));
  std::vector<runtime::LineView> views;
  views.reserve(msgs.size());
  for (const Msg& m : msgs) views.push_back({m.w.data(), m.n, m.qos});
  return views;
}

void fill(Msg& m, const runtime::Frame& f) {
  m.n = static_cast<std::uint8_t>(f.elems.size());
  m.qos = f.qos;
  for (std::uint8_t i = 0; i < m.n; ++i) m.w[i] = f.elems[i];
}

}  // namespace

sim::Co<SendManyResult> VlChannel::try_send_many(sim::SimThread t,
                                                 std::span<const Msg> msgs) {
  runtime::Producer& p = producer_for(t);
  SendManyResult r;
  while (r.sent < msgs.size()) {
    const std::vector<runtime::LineView> views =
        line_views(msgs.subspan(r.sent), 8);
    const runtime::BurstResult b = co_await p.try_enqueue_burst(views);
    r.sent += b.accepted;
    if (b.rc != isa::kVlOk) {
      r.status = status_from(b.rc);
      co_return r;
    }
  }
  co_return r;
}

sim::Co<void> VlChannel::send_many(sim::SimThread t,
                                   std::span<const Msg> msgs) {
  const SendTrace trace(t, msgs.size());
  const std::vector<runtime::LineView> views = line_views(msgs, msgs.size());
  co_await producer_for(t).enqueue_burst(
      views, [&trace](int rc, const runtime::LineView& stopper) {
        trace.nack(status_from(rc), stopper.qos);
      });
  trace.end();
}

sim::Co<RecvResult> VlChannel::try_recv(sim::SimThread t) {
  const auto got = co_await consumer_for(t).try_dequeue_once();
  RecvResult r;
  if (got) {
    r.status = RecvStatus::kOk;
    fill(r.msg, *got);
  }
  co_return r;
}

sim::Co<std::size_t> VlChannel::try_recv_many(sim::SimThread t,
                                              std::span<Msg> out) {
  runtime::Consumer& c = consumer_for(t);
  // Burst demand registration pins the run of messages to this endpoint,
  // so only the channel's sole consumer may hold registrations across
  // calls. A sharer's demand is a per-call LEASE: it probes one
  // registration at a time (queued data injects inside the fetch's
  // response window, so backlog still drains at full batch width) and
  // releases whatever stayed armed before returning, so no message can be
  // pinned to a ring nobody is polling.
  const bool sole = consumers_.size() == 1;
  if (sole && out.size() > 1)
    co_await c.arm_ahead(std::min<std::size_t>(out.size(), buf_lines_));
  std::size_t got = 0;
  while (got < out.size()) {
    auto f = co_await c.try_dequeue_once();
    // A sharer registers demand one line at a time, and its in-flight
    // injection needs the device's stash latency to land. Give that one
    // injection a bounded window before concluding the queue is dry —
    // otherwise the lease release below would bounce it on every call and
    // the caller could starve with data queued.
    constexpr int kLeasePolls = 5;
    constexpr Tick kLeasePollGap = 16;
    for (int w = 0; !f && !sole && w < kLeasePolls; ++w) {
      co_await t.compute(kLeasePollGap);
      f = co_await c.try_dequeue_once();
    }
    if (!f) break;
    fill(out[got++], *f);
  }
  if (!sole) {
    c.release_ahead();
    // Injections that landed in our lines while the lease was live are
    // already ours — sweep them out before handing demand back.
    while (got < out.size()) {
      auto f = co_await c.sweep_landed();
      if (!f) break;
      fill(out[got++], *f);
    }
  }
  co_return got;
}

void VlChannel::reconfigure(sim::SimThread t) {
  // migrate() onto the same thread is exactly the re-registration
  // ceremony: every pushable tag drops (in-flight injections reject and
  // recover device-side via § III-B) and the next dequeue from this
  // thread re-registers demand. Landed-but-unread ring lines survive —
  // try_dequeue_once / sweep_landed still read them.
  consumer_for(t).migrate(t);
}

std::uint64_t VlChannel::depth() const {
  return lib_.machine().cluster().device(q_.vlrd_id).queued_data(q_.sqi);
}

std::uint64_t VlChannel::producer_retries() const {
  std::uint64_t n = 0;
  for (const auto& [k, p] : producers_) n += p->retries();
  return n;
}

}  // namespace vl::squeue
