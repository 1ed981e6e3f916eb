// End-to-end tests of the user-space VL queue library (§ III-C3/III-D),
// including the Fig. 10 control-region codec, M:N channel semantics, the
// one producer path shared with VlChannel, and endpoint/SQI exhaustion.

#include "runtime/vl_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "squeue/vl_channel.hpp"

namespace vl::runtime {
namespace {

using sim::Co;
using sim::SimThread;
using sim::spawn;

TEST(ControlRegion, CodecRoundTrips) {
  for (std::uint8_t n = 1; n <= 7; ++n) {
    const std::uint16_t c = pack_ctrl(ElemSize::kDword, n);
    EXPECT_NE(c, 0u);
    EXPECT_EQ(ctrl_count(c), n);
    EXPECT_EQ(ctrl_size(c), ElemSize::kDword);
  }
}

TEST(ControlRegion, DataFillsHighToLow) {
  // First element of an n-element message sits at the highest offset slice.
  EXPECT_EQ(dword_offset(0, 1), 48u);
  EXPECT_EQ(dword_offset(0, 7), 0u);
  EXPECT_EQ(dword_offset(6, 7), 48u);
  // No element overlaps the control region at byte 62.
  for (std::uint8_t n = 1; n <= 7; ++n)
    for (std::uint8_t i = 0; i < n; ++i)
      EXPECT_LE(dword_offset(i, n) + 8, kCtrlOffset);
}

struct VlQueueFixture : ::testing::Test {
  Machine m;
  VlQueueLib lib{m};
};

TEST_F(VlQueueFixture, SingleMessageRoundTrip) {
  const QueueHandle q = lib.open("q");
  SimThread pt = m.thread_on(0), ct = m.thread_on(1);
  auto prod = lib.make_producer(q, pt);
  auto cons = lib.make_consumer(q, ct);
  std::uint64_t got = 0;

  spawn([](Producer& p) -> Co<void> { co_await p.enqueue1(0xfeed); }(prod));
  spawn([](Consumer& c, std::uint64_t* out) -> Co<void> {
    *out = co_await c.dequeue1();
  }(cons, &got));
  m.run();
  EXPECT_EQ(got, 0xfeedu);
}

TEST_F(VlQueueFixture, BatchedMessagePreservesOrderAndCount) {
  const QueueHandle q = lib.open("q");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(1));
  std::vector<std::uint64_t> got;

  spawn([](Producer& p) -> Co<void> {
    const std::uint64_t words[7] = {10, 20, 30, 40, 50, 60, 70};
    co_await p.enqueue(words);
  }(prod));
  spawn([](Consumer& c, std::vector<std::uint64_t>* out) -> Co<void> {
    *out = (co_await c.dequeue()).elems;
  }(cons, &got));
  m.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{10, 20, 30, 40, 50, 60, 70}));
}

TEST_F(VlQueueFixture, StreamOfMessagesInFifoOrder) {
  const QueueHandle q = lib.open("q");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(1));
  std::vector<std::uint64_t> got;
  constexpr int kN = 200;

  spawn([](Producer& p) -> Co<void> {
    for (std::uint64_t i = 0; i < kN; ++i) co_await p.enqueue1(i);
  }(prod));
  spawn([](Consumer& c, std::vector<std::uint64_t>* out) -> Co<void> {
    for (int i = 0; i < kN; ++i) out->push_back(co_await c.dequeue1());
  }(cons, &got));
  m.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(got[i], static_cast<std::uint64_t>(i));
}

TEST_F(VlQueueFixture, ManyProducersOneConsumer) {
  // The paper's incast pattern: M producers share one SQI, the consumer
  // drains M*K messages with zero shared software queue state.
  const QueueHandle q = lib.open("incast");
  constexpr int kProds = 15, kPer = 20;
  std::vector<Producer> prods;
  for (int p = 0; p < kProds; ++p)
    prods.push_back(lib.make_producer(q, m.thread_on(static_cast<CoreId>(p))));
  auto cons = lib.make_consumer(q, m.thread_on(15));
  std::uint64_t sum = 0;

  for (int p = 0; p < kProds; ++p) {
    spawn([](Producer& pr, int base) -> Co<void> {
      for (int i = 0; i < kPer; ++i)
        co_await pr.enqueue1(static_cast<std::uint64_t>(base * 1000 + i));
    }(prods[p], p));
  }
  spawn([](Consumer& c, std::uint64_t* sum) -> Co<void> {
    for (int i = 0; i < kProds * kPer; ++i) *sum += co_await c.dequeue1();
  }(cons, &sum));
  m.run();

  std::uint64_t expect = 0;
  for (int p = 0; p < kProds; ++p)
    for (int i = 0; i < kPer; ++i) expect += p * 1000 + i;
  EXPECT_EQ(sum, expect);
}

TEST_F(VlQueueFixture, OneProducerManyConsumersEachMessageDeliveredOnce) {
  const QueueHandle q = lib.open("fanout");
  constexpr int kCons = 4, kTotal = 80;
  auto prod = lib.make_producer(q, m.thread_on(0));
  std::vector<Consumer> cons;
  std::vector<std::vector<std::uint64_t>> got(kCons);
  for (int c = 0; c < kCons; ++c)
    cons.push_back(lib.make_consumer(q, m.thread_on(static_cast<CoreId>(c + 1))));

  spawn([](Producer& p) -> Co<void> {
    for (std::uint64_t i = 1; i <= kTotal; ++i) co_await p.enqueue1(i);
  }(prod));
  for (int c = 0; c < kCons; ++c) {
    spawn([](Consumer& cc, std::vector<std::uint64_t>* out) -> Co<void> {
      for (int i = 0; i < kTotal / kCons; ++i)
        out->push_back(co_await cc.dequeue1());
    }(cons[c], &got[c]));
  }
  m.run();

  std::vector<std::uint64_t> all;
  for (auto& g : got) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i)
    EXPECT_EQ(all[i], static_cast<std::uint64_t>(i + 1));  // once each
}

TEST_F(VlQueueFixture, BackPressureBlocksUntilDrained) {
  sim::SystemConfig cfg;
  cfg.vlrd.prod_entries = 4;  // tiny device buffer
  Machine small(cfg);
  VlQueueLib slib(small);
  const QueueHandle q = slib.open("bp");
  auto prod = slib.make_producer(q, small.thread_on(0));
  auto cons = slib.make_consumer(q, small.thread_on(1));
  int produced = 0, consumed = 0;

  spawn([](Producer& p, int* n) -> Co<void> {
    for (std::uint64_t i = 0; i < 32; ++i) {
      co_await p.enqueue1(i);
      ++*n;
    }
  }(prod, &produced));
  spawn([](Consumer& c, SimThread t, int* n) -> Co<void> {
    co_await t.compute(20000);  // slow consumer start: queue must fill
    for (int i = 0; i < 32; ++i) {
      co_await c.dequeue1();
      ++*n;
    }
  }(cons, small.thread_on(1), &consumed));
  small.run();
  EXPECT_EQ(produced, 32);
  EXPECT_EQ(consumed, 32);
  EXPECT_GT(prod.retries(), 0u);  // producer actually hit back-pressure
  EXPECT_GT(small.vlrd().stats().push_nacks, 0u);
}

TEST_F(VlQueueFixture, NoSharedCoherentStateBetweenEndpoints) {
  // The headline property: a VL transfer causes no snoops between producer
  // and consumer beyond their initial private-line fills.
  const QueueHandle q = lib.open("q");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(1));

  // Warm up one full circular-buffer revolution on both endpoints so every
  // user-space line is resident before measuring.
  spawn([](Producer& p) -> Co<void> {
    for (std::uint64_t i = 0; i < 8; ++i) co_await p.enqueue1(i);
  }(prod));
  spawn([](Consumer& c) -> Co<void> {
    for (int i = 0; i < 8; ++i) (void)co_await c.dequeue1();
  }(cons));
  m.run();

  const auto base = m.mem().stats();
  spawn([](Producer& p) -> Co<void> {
    for (std::uint64_t i = 0; i < 50; ++i) co_await p.enqueue1(i);
  }(prod));
  spawn([](Consumer& c) -> Co<void> {
    for (int i = 0; i < 50; ++i) (void)co_await c.dequeue1();
  }(cons));
  m.run();
  const auto d = m.mem().stats().diff(base);
  EXPECT_EQ(d.snoops, 0u);         // zero coherence transactions
  EXPECT_EQ(d.invalidations, 0u);
  EXPECT_EQ(d.upgrades, 0u);
  EXPECT_EQ(d.mem_txns(), 0u);     // data never left the interconnect
  EXPECT_EQ(d.injections, 50u);
}

TEST_F(VlQueueFixture, TryDequeueReturnsNulloptWhenEmpty) {
  const QueueHandle q = lib.open("q");
  auto cons = lib.make_consumer(q, m.thread_on(1));
  bool got_value = true;
  spawn([](Consumer& c, bool* got) -> Co<void> {
    auto v = co_await c.try_dequeue_once();
    *got = v.has_value();
  }(cons, &got_value));
  m.run();
  EXPECT_FALSE(got_value);
}

// A library enqueue1 and a channel send1 are the same staged burst of one
// through Producer::enqueue_burst: under the same NACK flood (40 messages
// into a 4-entry prodBuf, slow consumer) both fire the same events, NACK
// the same pushes, finish on the same tick and deliver in the same order.
TEST(VlProducerPath, LibraryEnqueueMatchesChannelSend) {
  struct Outcome {
    std::uint64_t events = 0;
    std::uint64_t nacks = 0;
    Tick ticks = 0;
    std::vector<std::uint64_t> order;
  };
  constexpr int kMsgs = 40;
  constexpr Tick kService = 500;
  sim::SystemConfig cfg;
  cfg.vlrd.prod_entries = 4;
  const auto finish = [](Machine& m, Outcome& o) {
    o.events = m.eq().executed();
    o.nacks = m.vlrd_stats().push_nacks;
    o.ticks = m.now();
  };

  Outcome lib_side;
  {
    Machine m(cfg);
    VlQueueLib lib(m);
    const QueueHandle q = lib.open("diff");
    auto prod = lib.make_producer(q, m.thread_on(0));
    auto cons = lib.make_consumer(q, m.thread_on(1));
    spawn([](Producer& p) -> Co<void> {
      for (std::uint64_t i = 0; i < kMsgs; ++i) co_await p.enqueue1(i);
    }(prod));
    spawn([](Consumer& c, std::vector<std::uint64_t>* out) -> Co<void> {
      for (int i = 0; i < kMsgs; ++i) {
        out->push_back(co_await c.dequeue1());
        co_await c.thread().compute(kService);
      }
    }(cons, &lib_side.order));
    m.run();
    finish(m, lib_side);
  }

  Outcome chan_side;
  {
    Machine m(cfg);
    VlQueueLib lib(m);
    squeue::VlChannel ch(lib, "diff");
    spawn([](squeue::Channel& c, SimThread t) -> Co<void> {
      for (std::uint64_t i = 0; i < kMsgs; ++i) co_await c.send1(t, i);
    }(ch, m.thread_on(0)));
    spawn([](squeue::Channel& c, SimThread t,
             std::vector<std::uint64_t>* out) -> Co<void> {
      for (int i = 0; i < kMsgs; ++i) {
        out->push_back(co_await c.recv1(t));
        co_await t.compute(kService);
      }
    }(ch, m.thread_on(1), &chan_side.order));
    m.run();
    finish(m, chan_side);
  }

  ASSERT_EQ(lib_side.order.size(), static_cast<std::size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i)
    EXPECT_EQ(lib_side.order[i], static_cast<std::uint64_t>(i));
  EXPECT_GT(lib_side.nacks, 0u);  // the flood really back-pressured
  EXPECT_EQ(lib_side.events, chan_side.events);
  EXPECT_EQ(lib_side.nacks, chan_side.nacks);
  EXPECT_EQ(lib_side.ticks, chan_side.ticks);
  EXPECT_EQ(lib_side.order, chan_side.order);
}

// A blocking burst longer than the device's prodBuf: after a full-buffer
// NACK the producer waits for at most one prodBuf of space credits, since
// only lines draining from the full buffer grant them.
TEST(VlProducerPath, BurstLongerThanProdBufCompletes) {
  constexpr int kBursts = 4, kPer = 8;
  sim::SystemConfig cfg;
  cfg.vlrd.prod_entries = 4;
  Machine m(cfg);
  VlQueueLib lib(m);
  squeue::VlChannel ch(lib, "burst");
  std::vector<std::uint64_t> got;
  spawn([](squeue::Channel& c, SimThread t) -> Co<void> {
    std::vector<squeue::Msg> run(kPer);
    for (int b = 0; b < kBursts; ++b) {
      for (int i = 0; i < kPer; ++i) run[i] = squeue::Msg::one(b * kPer + i);
      co_await c.send_many(t, run);
    }
  }(ch, m.thread_on(0)));
  spawn([](squeue::Channel& c, SimThread t,
           std::vector<std::uint64_t>* out) -> Co<void> {
    for (int i = 0; i < kBursts * kPer; ++i) {
      out->push_back(co_await c.recv1(t));
      co_await t.compute(50);
    }
  }(ch, m.thread_on(1), &got));
  m.eq().run_until(1'000'000);  // the consumer polls forever if stuck
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBursts * kPer));
  for (int i = 0; i < kBursts * kPer; ++i)
    EXPECT_EQ(got[i], static_cast<std::uint64_t>(i));
}

// A page holds 64 endpoints and a device 64 SQIs (Fig. 9). Running out
// throws and names the queue; an endpoint never aliases another queue's.
TEST(VlQueueLimits, ExhaustionThrowsNamingTheQueue) {
  Machine m;  // one routing device
  VlQueueLib lib(m);
  const QueueHandle q0 = lib.open("q0");
  const QueueHandle q1 = lib.open("q1");
  std::vector<Producer> prods;
  std::vector<Consumer> cons;
  for (int i = 0; i < 64; ++i) {
    prods.push_back(lib.make_producer(q1, m.thread_on(0)));
    cons.push_back(lib.make_consumer(q1, m.thread_on(1)));
  }
  const auto names = [](const std::length_error& e, const std::string& q) {
    return std::string(e.what()).find("'" + q + "'") != std::string::npos;
  };
  try {
    auto extra = lib.make_producer(q1, m.thread_on(2));
    spawn([](Producer& p) -> Co<void> { co_await p.enqueue1(7); }(extra));
    m.run();
    ADD_FAILURE() << "65th producer on q1 was granted endpoint 0x"
                  << std::hex << extra.endpoint_va();
  } catch (const std::length_error& e) {
    EXPECT_TRUE(names(e, "q1")) << e.what();
  }
  EXPECT_EQ(m.vlrd().queued_data(q0.sqi), 0u);  // nothing misrouted
  EXPECT_EQ(m.vlrd().queued_data(q1.sqi), 0u);
  try {
    auto extra = lib.make_consumer(q1, m.thread_on(2));
    ADD_FAILURE() << "65th consumer on q1 was granted endpoint 0x"
                  << std::hex << extra.endpoint_va();
  } catch (const std::length_error& e) {
    EXPECT_TRUE(names(e, "q1")) << e.what();
  }

  for (int i = 2; i < 64; ++i) lib.open("fill" + std::to_string(i));
  try {
    const QueueHandle over = lib.open("over");
    ADD_FAILURE() << "65th queue on one device got SQI " << over.sqi;
  } catch (const std::length_error& e) {
    EXPECT_TRUE(names(e, "over")) << e.what();
  }
}

}  // namespace
}  // namespace vl::runtime
