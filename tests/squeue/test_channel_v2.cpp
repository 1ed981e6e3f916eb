// Channel API v2 contract, parameterized over every backend: typed
// non-blocking results, real depth() accounting, batch-vs-single delivery
// equivalence, and Msg::qos carried through the data path (software rings
// included).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "squeue/factory.hpp"

namespace vl::squeue {
namespace {

using runtime::Machine;
using sim::Co;
using sim::SimThread;
using sim::spawn;

class ChannelV2 : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    machine = std::make_unique<Machine>(config_for(GetParam()));
    factory = std::make_unique<ChannelFactory>(*machine, GetParam());
  }
  std::unique_ptr<Machine> machine;
  std::unique_ptr<ChannelFactory> factory;
};

// depth() must track device/ring occupancy exactly: k undrained sends show
// k queued messages, and draining j of them leaves k - j.
TEST_P(ChannelV2, DepthTracksOccupancy) {
  auto ch = factory->make("d1", 64);
  constexpr int kSends = 6;  // below every backend's buffer/quota bound
  spawn([](Channel& q, SimThread t) -> Co<void> {
    for (std::uint64_t i = 0; i < kSends; ++i) co_await q.send1(t, i);
  }(*ch, machine->thread_on(0)));
  machine->run();
  EXPECT_EQ(ch->depth(), static_cast<std::uint64_t>(kSends));

  spawn([](Channel& q, SimThread t) -> Co<void> {
    for (int i = 0; i < 2; ++i) (void)co_await q.recv1(t);
  }(*ch, machine->thread_on(1)));
  machine->run();
  // VL counts the device-resident backlog: lines already injected into the
  // consumer's armed endpoint lines (but not yet drained) are off-device,
  // so depth() may run below k - j there — but never above, and software
  // rings and CAF are exact.
  EXPECT_LE(ch->depth(), static_cast<std::uint64_t>(kSends - 2));
  if (GetParam() != Backend::kVl && GetParam() != Backend::kVlIdeal)
    EXPECT_EQ(ch->depth(), static_cast<std::uint64_t>(kSends - 2));
}

// try_recv on an empty channel reports kEmpty (no blocking, no delivery);
// after a send it delivers the message.
TEST_P(ChannelV2, TryRecvReportsEmptyThenDelivers) {
  auto ch = factory->make("d2");
  RecvStatus first = RecvStatus::kOk;
  std::uint64_t got = 0;
  spawn([](Channel& q, SimThread t, RecvStatus* first,
           std::uint64_t* got) -> Co<void> {
    const RecvResult r0 = co_await q.try_recv(t);
    *first = r0.status;
    co_await q.send1(t, 99);
    for (;;) {
      const RecvResult r1 = co_await q.try_recv(t);
      if (r1.ok()) {
        *got = r1.msg.w[0];
        co_return;
      }
      co_await t.compute(32);  // discovery latency on the probing backends
    }
  }(*ch, machine->thread_on(0), &first, &got));
  machine->run();
  EXPECT_EQ(first, RecvStatus::kEmpty);
  EXPECT_EQ(got, 99u);
}

// try_send must report kFull (not block, not drop) once the backend's
// bound is hit. BLFQ's paper model is unbounded and VL-ideal has no
// buffer bound, so the bounded backends are the interesting ones here.
TEST_P(ChannelV2, TrySendReportsFull) {
  if (GetParam() == Backend::kBlfq || GetParam() == Backend::kVlIdeal)
    GTEST_SKIP() << "backend is modelled unbounded";
  auto ch = factory->make("d3", /*capacity_hint=*/4);
  SendStatus final_status = SendStatus::kOk;
  std::uint64_t accepted = 0;
  spawn([](Channel& q, SimThread t, SendStatus* st,
           std::uint64_t* accepted) -> Co<void> {
    for (int i = 0; i < 512; ++i) {
      const SendResult r = co_await q.try_send(t, Msg::one(7));
      if (!r.ok()) {
        *st = r.status;
        co_return;
      }
      ++*accepted;
    }
  }(*ch, machine->thread_on(0), &final_status, &accepted));
  machine->run();
  EXPECT_NE(final_status, SendStatus::kOk);
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 512u);
}

// Batched send_many/recv_many must deliver exactly the multiset a
// single-message loop delivers — same payloads, nothing lost, nothing
// duplicated — under a concurrent M:1 load, and under M:2 on a ring small
// enough to wrap: there batched claims meet out-of-order recycles, the
// case BLFQ's inner-cell recheck exists for.
constexpr int kProds = 4, kPer = 40;

TEST_P(ChannelV2, BatchMatchesSingleDeliveryMultiset) {
  auto deliver = [&](bool batched, std::size_t capacity, int consumers) {
    SetUp();  // fresh machine per flavour
    auto ch = factory->make(batched ? "b1" : "b2", capacity);
    for (int p = 0; p < kProds; ++p) {
      spawn([](Channel& q, SimThread t, int base, bool batched) -> Co<void> {
        std::vector<Msg> msgs;
        for (int i = 0; i < kPer; ++i)
          msgs.push_back(
              Msg::one(static_cast<std::uint64_t>(base) * 1000 + i));
        if (batched) {
          for (std::size_t at = 0; at < msgs.size(); at += 8)
            co_await q.send_many(
                t, std::span<const Msg>(msgs.data() + at,
                                        std::min<std::size_t>(
                                            8, msgs.size() - at)));
        } else {
          for (const Msg& m : msgs) co_await q.send(t, m);
        }
      }(*ch, machine->thread_on(static_cast<CoreId>(p)), p, batched));
    }
    auto out = std::make_shared<std::vector<std::uint64_t>>();
    // Each consumer takes an equal share, so none blocks on a drained
    // channel. The second consumer shares core 3 with a producer: its
    // context switches stall a claimed run mid-way, so the other side
    // completes cells out of order.
    for (int c = 0; c < consumers; ++c) {
      spawn([](Channel& q, SimThread t,
               std::shared_ptr<std::vector<std::uint64_t>> out, bool batched,
               std::size_t remaining) -> Co<void> {
        std::vector<Msg> buf(8);
        while (remaining > 0) {
          if (batched) {
            const std::size_t got = co_await q.recv_many(
                t, std::span<Msg>(buf.data(),
                                  std::min(buf.size(), remaining)));
            for (std::size_t k = 0; k < got; ++k) out->push_back(buf[k].w[0]);
            remaining -= got;
          } else {
            out->push_back(co_await q.recv1(t));
            --remaining;
          }
        }
      }(*ch, machine->thread_on(static_cast<CoreId>(7 - 4 * c)), out, batched,
        static_cast<std::size_t>(kProds * kPer / consumers)));
    }
    machine->run();
    std::sort(out->begin(), out->end());
    return *out;
  };

  for (const auto& [capacity, consumers] :
       {std::pair<std::size_t, int>{256, 1}, {8, 2}}) {
    const auto batched = deliver(true, capacity, consumers);
    const auto single = deliver(false, capacity, consumers);
    ASSERT_EQ(batched.size(), static_cast<std::size_t>(kProds * kPer))
        << "capacity " << capacity << ", " << consumers << " consumer(s)";
    EXPECT_EQ(batched, single)  // identical delivered multiset
        << "capacity " << capacity << ", " << consumers << " consumer(s)";
  }
}

// Msg::qos must survive the data path on EVERY backend — through the
// software rings' cells (the regression this pins: ZMQ/BLFQ used to drop
// it on copy-in), CAF's per-word class tracking, and VL's ctrl byte.
TEST_P(ChannelV2, QosCarriedThroughDataPath) {
  auto ch = factory->make("q1", 64);
  const QosClass classes[] = {QosClass::kLatency, QosClass::kBulk,
                              QosClass::kStandard, QosClass::kBulk,
                              QosClass::kLatency};
  std::vector<QosClass> got;
  spawn([](Channel& q, SimThread t, const QosClass* cls) -> Co<void> {
    for (int i = 0; i < 5; ++i) {
      Msg m = Msg::one(static_cast<std::uint64_t>(i));
      m.qos = cls[i];
      co_await q.send(t, m);
    }
  }(*ch, machine->thread_on(0), classes));
  spawn([](Channel& q, SimThread t, std::vector<QosClass>* got) -> Co<void> {
    for (int i = 0; i < 5; ++i) {
      const Msg m = co_await q.recv(t);
      got->push_back(m.qos);
    }
  }(*ch, machine->thread_on(1), &got));
  machine->run();
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(got[i], classes[i]) << "message " << i;
}

// A batched span that alternates service classes must deliver completely:
// a backend whose batch grant is per class (CAF) ends its run at every
// class boundary, and a full grant at such a boundary must read as
// progress, not back-pressure (the send_many wrapper would otherwise park
// on the credit futex with credits to spare — regression pin).
TEST_P(ChannelV2, MixedClassBatchDelivers) {
  auto ch = factory->make("mx", 64);
  std::vector<Msg> batch;
  for (int i = 0; i < 10; ++i) {
    Msg m = Msg::one(static_cast<std::uint64_t>(i));
    m.qos = (i % 2) ? QosClass::kBulk : QosClass::kLatency;
    batch.push_back(m);
  }
  // No consumer yet: the whole span must land without any drain-side
  // wakeups — the buggy path parked after the first class run and only a
  // consumer could have rescued it.
  spawn([](Channel& q, SimThread t, const std::vector<Msg>* batch) -> Co<void> {
    co_await q.send_many(t, *batch);
  }(*ch, machine->thread_on(0), &batch));
  machine->run();
  EXPECT_EQ(ch->depth(), 10u);

  std::vector<std::uint64_t> got;
  spawn([](Channel& q, SimThread t, std::vector<std::uint64_t>* got) -> Co<void> {
    for (int i = 0; i < 10; ++i) got->push_back(co_await q.recv1(t));
  }(*ch, machine->thread_on(1), &got));
  machine->run();
  ASSERT_EQ(got.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ChannelV2,
    ::testing::Values(Backend::kBlfq, Backend::kZmq, Backend::kVl,
                      Backend::kVlIdeal, Backend::kCaf),
    [](const auto& info) {
      switch (info.param) {
        case Backend::kBlfq: return "BLFQ";
        case Backend::kZmq: return "ZMQ";
        case Backend::kVl: return "VL";
        case Backend::kVlIdeal: return "VLideal";
        case Backend::kCaf: return "CAF";
      }
      return "?";
    });

}  // namespace
}  // namespace vl::squeue
