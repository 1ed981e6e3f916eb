// Per-message latency distributions (extension bench).
//
// The paper reports aggregate runtimes; this bench exposes the underlying
// queueing behaviour § II describes — transient rate mismatch and bursty
// occupancy — as end-to-end message-latency percentiles. Two regimes:
//
//   steady 1:1   — producer and consumer rate-matched (ping-pong-ish);
//   bursty 15:1  — the incast pattern, where arrival bursts make tails.
//
// Shape expectations: VL's P50 sits near the hardware line-transfer floor
// and far below the software queues; under incast the software queues' P99
// explodes with queue depth (Little's law) while VL's back-pressure keeps
// the tail bounded by device NACK/retry pacing.

#include <cstdio>
#include <memory>

#include "bench/bench_util.hpp"
#include "common/stats.hpp"
#include "squeue/factory.hpp"

namespace {

using namespace vl;
using runtime::Machine;
using sim::Co;
using sim::SimThread;
using sim::spawn;
using squeue::Backend;
using squeue::Channel;
using squeue::Msg;

struct Tail {
  double mean, p50, p99, max;
};

Tail tail_of(const Samples& s) {
  return {s.mean(), s.percentile(50), s.percentile(99), s.percentile(100)};
}

// Each message is two words, {value, send tick}, on a channel built with
// msg_words = 2. The stamp is taken when the blocking send is called, so
// producer-side blocking counts toward the latency — Little's-law pressure
// includes the time a message waits for enqueue headroom.
Co<void> send_stamped(Channel& q, SimThread t, std::uint64_t v) {
  // Field by field: GCC 12 rejects initializer_list temporaries in
  // coroutine bodies.
  Msg m;
  m.w[0] = v;
  m.w[1] = t.core->eq().now();
  m.n = 2;
  co_await q.send(t, m);
}

// Receive one stamped message and record (now - send tick) in ns.
Co<void> recv_stamped(Channel& q, SimThread t, Samples& lat,
                      double ns_per_tick) {
  const Msg m = co_await q.recv(t);
  lat.record(static_cast<double>(t.core->eq().now() - m.w[1]) * ns_per_tick);
}

Tail run_steady(Backend b, int msgs) {
  Machine m(squeue::config_for(b));
  squeue::ChannelFactory f(m, b);
  auto ch = f.make("steady", 0, 2);
  Samples lat;
  spawn([](Channel& q, SimThread t, int n) -> Co<void> {
    for (int i = 0; i < n; ++i) {
      co_await send_stamped(q, t, static_cast<std::uint64_t>(i));
      co_await t.compute(200);  // rate-matched production
    }
  }(*ch, m.thread_on(0), msgs));
  spawn([](Channel& q, SimThread t, int n, Samples& s, double ns) -> Co<void> {
    for (int i = 0; i < n; ++i) {
      co_await recv_stamped(q, t, s, ns);
      co_await t.compute(200);
    }
  }(*ch, m.thread_on(1), msgs, lat, m.cfg().ns_per_tick));
  m.run();
  return tail_of(lat);
}

Tail run_incast(Backend b, int per_producer) {
  constexpr int kProducers = 15;
  Machine m(squeue::config_for(b));
  squeue::ChannelFactory f(m, b);
  auto ch = f.make("incast", 0, 2);
  Samples lat;
  for (int p = 0; p < kProducers; ++p) {
    spawn([](Channel& q, SimThread t, int n, int self) -> Co<void> {
      for (int i = 0; i < n; ++i) {
        co_await send_stamped(q, t,
                              static_cast<std::uint64_t>(self * 1000 + i));
        co_await t.compute(100 + 37 * static_cast<Tick>(self));  // staggered
      }
    }(*ch, m.thread_on(static_cast<CoreId>(p)), per_producer, p));
  }
  spawn([](Channel& q, SimThread t, int n, Samples& s, double ns) -> Co<void> {
    for (int i = 0; i < n; ++i) {
      co_await recv_stamped(q, t, s, ns);
      co_await t.compute(150);  // master does some work per item
    }
  }(*ch, m.thread_on(15), kProducers * per_producer, lat,
    m.cfg().ns_per_tick));
  m.run();
  return tail_of(lat);
}

void print_tails(const char* title, Tail (*fn)(Backend, int), int n) {
  std::printf("\n-- %s --\n", title);
  TextTable t({"backend", "mean ns", "P50 ns", "P99 ns", "max ns"});
  for (Backend b : {Backend::kBlfq, Backend::kZmq, Backend::kVl,
                    Backend::kVlIdeal, Backend::kCaf}) {
    const Tail r = fn(b, n);
    t.add_row({squeue::to_string(b), TextTable::num(r.mean, 0),
               TextTable::num(r.p50, 0), TextTable::num(r.p99, 0),
               TextTable::num(r.max, 0)});
  }
  std::printf("%s", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = vl::bench::arg_scale(argc, argv);
  vl::bench::print_header("Latency tails (extension)",
                          "end-to-end message latency percentiles");
  print_tails("steady 1:1, rate-matched", run_steady, 200 * scale);
  print_tails("bursty 15:1 incast", run_incast, 20 * scale);
  std::printf(
      "\nExpected shapes: VL P50 near the line-transfer floor, software\n"
      "queues above it; incast P99 grows with queue depth for the software\n"
      "queues while VL back-pressure bounds the tail.\n");
  return 0;
}
