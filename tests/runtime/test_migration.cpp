// Thread-migration tests (§ III-B): a consumer moving between cores must
// never lose a message — in-flight injections are rejected (pushable flag
// dropped on the old core) and the data stays with the VLRD until the
// re-issued vl_fetch from the new core claims it.

#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/machine.hpp"
#include "runtime/vl_queue.hpp"

namespace vl::runtime {
namespace {

using sim::Co;
using sim::SimThread;
using sim::spawn;

TEST(Migration, ProducerRebindIssuesFromNewCore) {
  Machine m;
  VlQueueLib lib(m);
  const auto q = lib.open("q");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(5));
  std::vector<std::uint64_t> got;
  spawn([](Producer& p, Machine& m) -> Co<void> {
    co_await p.enqueue1(1);
    p.migrate(m.thread_on(3));
    co_await p.enqueue1(2);
  }(prod, m));
  spawn([](Consumer& c, std::vector<std::uint64_t>* out) -> Co<void> {
    out->push_back(co_await c.dequeue1());
    out->push_back(co_await c.dequeue1());
  }(cons, &got));
  m.run();
  ASSERT_EQ(got.size(), 2u);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got[0], 1u);
  EXPECT_EQ(got[1], 2u);
  EXPECT_EQ(prod.thread().core->id(), 3u);
}

TEST(Migration, ConsumerMigrationMidWaitLosesNothing) {
  // The § III-B scenario: demand registered from core 5, thread migrates to
  // core 6 before data arrives. The injection to core 5 must be rejected
  // (its pushable flag is gone) and the message recovered from core 6.
  Machine m;
  VlQueueLib lib(m);
  const auto q = lib.open("q");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(5));
  std::uint64_t got = 0;
  spawn([](Consumer& c, Producer& p, Machine& m, std::uint64_t* out)
            -> Co<void> {
    // Register demand; nothing is available yet, so the probe fails.
    auto miss = co_await c.try_dequeue_once();
    EXPECT_FALSE(miss.has_value());
    // Migrate to core 6, *then* let the producer push.
    c.migrate(m.thread_on(6));
    co_await p.enqueue1(42);
    *out = co_await c.dequeue1();
  }(cons, prod, m, &got));
  m.run();
  EXPECT_EQ(got, 42u);
  EXPECT_EQ(cons.thread().core->id(), 6u);
  // The stale registration's injection was rejected and retried.
  EXPECT_GE(m.vlrd().stats().inject_retry, 1u);
  EXPECT_EQ(m.vlrd().queued_data(q.sqi), 0u);  // nothing stranded
}

TEST(Migration, SameCoreMigrationKeepsPushableArmed) {
  // Rebinding to another thread on the *same* core is not an OS migration;
  // the pushable flag must survive so the pending injection still lands.
  Machine m;
  VlQueueLib lib(m);
  const auto q = lib.open("q");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(5));
  std::uint64_t got = 0;
  spawn([](Consumer& c, Producer& p, Machine& m, std::uint64_t* out)
            -> Co<void> {
    auto miss = co_await c.try_dequeue_once();
    EXPECT_FALSE(miss.has_value());
    c.migrate(m.thread_on(5));  // same core, new tid
    co_await p.enqueue1(7);
    *out = co_await c.dequeue1();
  }(cons, prod, m, &got));
  m.run();
  EXPECT_EQ(got, 7u);
}

TEST(Migration, RepeatedMigrationStormDeliversAll) {
  // Property: a consumer hopping cores between every message still receives
  // every message exactly once.
  Machine m;
  VlQueueLib lib(m);
  const auto q = lib.open("q");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(4));
  constexpr int kMsgs = 24;
  std::vector<std::uint64_t> got;
  spawn([](Producer& p) -> Co<void> {
    for (std::uint64_t i = 0; i < kMsgs; ++i) co_await p.enqueue1(i);
  }(prod));
  spawn([](Consumer& c, Machine& m, std::vector<std::uint64_t>* out)
            -> Co<void> {
    for (int i = 0; i < kMsgs; ++i) {
      out->push_back(co_await c.dequeue1());
      c.migrate(m.thread_on(static_cast<CoreId>(4 + (i % 8))));
    }
  }(cons, m, &got));
  m.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMsgs));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
  for (int i = 0; i < kMsgs; ++i) EXPECT_EQ(got[i], static_cast<std::uint64_t>(i));
}

TEST(Migration, FirStyleOversubscriptionStillDrains) {
  // Two consumer endpoints time-sharing one core (the FIR effect: frequent
  // context switches clear pushable flags, driving inject_retry up) must
  // still drain both queues.
  Machine m;
  VlQueueLib lib(m);
  const auto qa = lib.open("qa");
  const auto qb = lib.open("qb");
  auto pa = lib.make_producer(qa, m.thread_on(0));
  auto pb = lib.make_producer(qb, m.thread_on(1));
  auto ca = lib.make_consumer(qa, m.thread_on(5));
  auto cb = lib.make_consumer(qb, m.thread_on(5));  // same core as ca
  int got_a = 0, got_b = 0;
  spawn([](Producer& p) -> Co<void> {
    for (std::uint64_t i = 0; i < 10; ++i) co_await p.enqueue1(i);
  }(pa));
  spawn([](Producer& p) -> Co<void> {
    for (std::uint64_t i = 0; i < 10; ++i) co_await p.enqueue1(i);
  }(pb));
  spawn([](Consumer& c, int* got) -> Co<void> {
    for (int i = 0; i < 10; ++i) {
      (void)co_await c.dequeue1();
      ++*got;
    }
  }(ca, &got_a));
  spawn([](Consumer& c, int* got) -> Co<void> {
    for (int i = 0; i < 10; ++i) {
      (void)co_await c.dequeue1();
      ++*got;
    }
  }(cb, &got_b));
  m.run();
  EXPECT_EQ(got_a, 10);
  EXPECT_EQ(got_b, 10);
  EXPECT_GT(m.core(5).ctx_switches(), 0u);
}

}  // namespace
}  // namespace vl::runtime
