// Awaitable synchronization primitive tests: barrier phase semantics and
// the WaitQueue simulated futex (FIFO wake order, epoch-closed lost-wakeup
// window, concurrent park/wake).

#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/task.hpp"

namespace vl::sim {
namespace {

TEST(Barrier, ReleasesAllPartiesTogether) {
  EventQueue eq;
  Barrier bar(eq, 3);
  int passed = 0;
  for (int i = 0; i < 3; ++i) {
    spawn([](EventQueue& eq, Barrier& b, int delay, int* passed) -> Co<void> {
      co_await Delay(eq, static_cast<Tick>(delay));
      co_await b.arrive();
      ++*passed;
    }(eq, bar, 10 * (i + 1), &passed));
  }
  eq.run_until(29);
  EXPECT_EQ(passed, 0);  // two waiting, third not arrived yet
  eq.run();
  EXPECT_EQ(passed, 3);
  EXPECT_EQ(bar.generations(), 1u);
}

TEST(Barrier, ReusableAcrossPhases) {
  EventQueue eq;
  Barrier bar(eq, 2);
  std::vector<int> order;
  for (int id = 0; id < 2; ++id) {
    spawn([](EventQueue& eq, Barrier& b, int id,
             std::vector<int>* order) -> Co<void> {
      for (int phase = 0; phase < 3; ++phase) {
        co_await Delay(eq, static_cast<Tick>(id == 0 ? 5 : 11));
        co_await b.arrive();
        order->push_back(phase * 10 + id);
      }
    }(eq, bar, id, &order));
  }
  eq.run();
  EXPECT_EQ(bar.generations(), 3u);
  ASSERT_EQ(order.size(), 6u);
  // Phases strictly ordered: all phase-k entries precede phase-k+1.
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LE(order[i - 1] / 10, order[i] / 10);
}

TEST(Barrier, LastArriverDoesNotSuspend) {
  EventQueue eq;
  Barrier bar(eq, 1);  // single party: arrive always passes through
  bool done = false;
  spawn([](Barrier& b, bool* done) -> Co<void> {
    co_await b.arrive();
    co_await b.arrive();
    *done = true;
  }(bar, &done));
  eq.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(bar.generations(), 2u);
}

TEST(WaitQueue, WakeOneReleasesInFifoOrder) {
  EventQueue eq;
  WaitQueue wq(eq);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    spawn([](WaitQueue& wq, int id, std::vector<int>* order) -> Co<void> {
      co_await wq.park(wq.epoch());
      order->push_back(id);
    }(wq, i, &order));
  }
  eq.run();
  EXPECT_EQ(wq.parked(), 3u);
  wq.wake_one();
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0}));
  wq.wake_one();
  wq.wake_one();
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(wq.parked(), 0u);
  EXPECT_EQ(wq.wakeups(), 3u);
}

TEST(WaitQueue, WakeAllReleasesEveryoneInFifoOrder) {
  EventQueue eq;
  WaitQueue wq(eq);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    spawn([](WaitQueue& wq, int id, std::vector<int>* order) -> Co<void> {
      co_await wq.park(wq.epoch());
      order->push_back(id);
    }(wq, i, &order));
  }
  eq.run();
  wq.wake_all();
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(WaitQueue, EpochClosesTheLostWakeupWindow) {
  // The futex race: a thread samples the epoch, decides to sleep, and the
  // wake lands before it actually parks. The stale epoch must turn the
  // park into a no-op instead of a lost wakeup.
  EventQueue eq;
  WaitQueue wq(eq);
  bool done = false;
  const std::uint64_t gate = wq.epoch();
  wq.wake_one();  // nobody parked: epoch still advances
  spawn([](WaitQueue& wq, std::uint64_t gate, bool* done) -> Co<void> {
    co_await wq.park(gate);  // must fall straight through
    *done = true;
  }(wq, gate, &done));
  eq.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(wq.parked(), 0u);
}

TEST(WaitQueue, NoLostWakeupsUnderConcurrentParkWake) {
  // Producer/consumer over a plain counter with the canonical re-check
  // loop: every produced item must be consumed even though wakes and parks
  // interleave at the same ticks. A lost wakeup would strand a consumer
  // (and items) forever and fail the totals below.
  EventQueue eq;
  WaitQueue wq(eq);
  int items = 0, consumed = 0;
  constexpr int kItems = 200, kConsumers = 4;

  for (int c = 0; c < kConsumers; ++c) {
    spawn([](WaitQueue& wq, int* items, int* consumed) -> Co<void> {
      for (;;) {
        while (*items == 0) {
          const std::uint64_t gate = wq.epoch();
          if (*items != 0) break;
          co_await wq.park(gate);
        }
        if (*items < 0) co_return;  // shutdown sentinel
        --*items;
        ++*consumed;
      }
    }(wq, &items, &consumed));
  }
  spawn([](EventQueue& eq, WaitQueue& wq, int* items) -> Co<void> {
    for (int i = 0; i < kItems; ++i) {
      if (i % 3) co_await Delay(eq, 1 + i % 7);
      ++*items;
      wq.wake_one();
    }
    co_await Delay(eq, 100);
    *items = -1;  // shut consumers down
    wq.wake_all();
  }(eq, wq, &items));
  eq.run();
  EXPECT_EQ(consumed, kItems);
  EXPECT_EQ(wq.parked(), 0u);
}

// --- ParkAny (multi-futex park, the Selector's sim layer) --------------------

TEST(ParkAny, ResumesOnFirstWakeAndReportsWinner) {
  EventQueue eq;
  WaitQueue a(eq), b(eq), c(eq);
  WaitQueue* wqs[] = {&a, &b, &c};
  std::size_t winner = 99;
  spawn([](WaitQueue* const* wqs, std::size_t* winner) -> Co<void> {
    const std::uint64_t gates[] = {wqs[0]->epoch(), wqs[1]->epoch(),
                                   wqs[2]->epoch()};
    *winner = co_await ParkAny(std::span<WaitQueue* const>(wqs, 3),
                               std::span<const std::uint64_t>(gates, 3));
  }(wqs, &winner));
  EXPECT_EQ(winner, 99u);  // parked on all three
  EXPECT_EQ(a.parked(), 1u);
  EXPECT_EQ(b.parked(), 1u);
  EXPECT_EQ(c.parked(), 1u);
  b.wake_one();
  eq.run();
  EXPECT_EQ(winner, 1u);
  // Stale sibling entries were unlinked on resume.
  EXPECT_EQ(a.parked(), 0u);
  EXPECT_EQ(c.parked(), 0u);
}

TEST(ParkAny, StaleEntryDoesNotConsumeASiblingWake) {
  EventQueue eq;
  WaitQueue a(eq), b(eq);
  WaitQueue* wqs[] = {&a, &b};
  std::size_t winner = 99;
  bool single_woke = false;
  spawn([](WaitQueue* const* wqs, std::size_t* winner) -> Co<void> {
    const std::uint64_t gates[] = {wqs[0]->epoch(), wqs[1]->epoch()};
    *winner = co_await ParkAny(std::span<WaitQueue* const>(wqs, 2),
                               std::span<const std::uint64_t>(gates, 2));
  }(wqs, &winner));
  spawn([](WaitQueue& b, bool* woke) -> Co<void> {
    const std::uint64_t gate = b.epoch();
    co_await b.park(gate);
    *woke = true;
  }(b, &single_woke));
  // Wake the group through `a`, then wake `b` before the group's resume
  // has run: the group's now-stale entry sits at the front of b's FIFO
  // and must be skipped WITHOUT swallowing the wake that belongs to the
  // plain waiter behind it.
  a.wake_one();
  b.wake_one();
  eq.run();
  EXPECT_EQ(winner, 0u);
  EXPECT_TRUE(single_woke);
}

TEST(ParkAny, MovedEpochFallsStraightThrough) {
  EventQueue eq;
  WaitQueue a(eq), b(eq);
  WaitQueue* wqs[] = {&a, &b};
  const std::uint64_t gates[] = {a.epoch(), b.epoch()};
  b.wake_one();  // epoch moves before the park
  std::size_t winner = 99;
  spawn([](WaitQueue* const* wqs, const std::uint64_t* gates,
           std::size_t* winner) -> Co<void> {
    *winner = co_await ParkAny(std::span<WaitQueue* const>(wqs, 2),
                               std::span<const std::uint64_t>(gates, 2));
  }(wqs, gates, &winner));
  EXPECT_EQ(winner, 1u);  // no suspension at all
  EXPECT_EQ(a.parked(), 0u);
}

// --- CreditGate (FIFO multi-acquire wake channel) ---------------------------

TEST(CreditGate, FrontWaiterAccumulatesItsWholeWant) {
  EventQueue eq;
  CreditGate g(eq);
  std::vector<int> order;
  spawn([](CreditGate& g, std::vector<int>* order) -> Co<void> {
    co_await g.acquire(4);  // front: wants a whole burst
    order->push_back(4);
  }(g, &order));
  spawn([](CreditGate& g, std::vector<int>* order) -> Co<void> {
    co_await g.acquire(1);  // behind: must not starve the front
    order->push_back(1);
  }(g, &order));
  for (int i = 0; i < 3; ++i) {
    g.release(1);
    eq.run();
    EXPECT_TRUE(order.empty());  // front still short of its want
  }
  g.release(1);
  eq.run();
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 4);  // one wake carried the whole 4-slot grant
  g.release(1);
  eq.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(g.credits(), 0u);
}

TEST(CreditGate, CreditsPersistAcrossTheCheckParkWindow) {
  EventQueue eq;
  CreditGate g(eq);
  g.release(2);  // released before anyone waits: no lost wake possible
  bool got = false;
  spawn([](CreditGate& g, bool* got) -> Co<void> {
    co_await g.acquire(2);
    *got = true;
  }(g, &got));
  eq.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(g.credits(), 0u);
}

TEST(CreditGate, ReturnedCreditsServeTheNextWaiter) {
  EventQueue eq;
  CreditGate g(eq);
  int first = 0, second = 0;
  spawn([](CreditGate& g, int* first) -> Co<void> {
    co_await g.acquire(2);
    *first = 1;
    g.release(2);  // could not use the slots (quota NACK): hand them back
  }(g, &first));
  spawn([](CreditGate& g, int* second) -> Co<void> {
    co_await g.acquire(2);
    *second = 1;
  }(g, &second));
  g.release(2);
  eq.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(CreditGate, KickAllResumesWithoutDebiting) {
  EventQueue eq;
  CreditGate g(eq);
  int resumed = 0;
  for (int i = 0; i < 3; ++i) {
    spawn([](CreditGate& g, int* resumed) -> Co<void> {
      co_await g.acquire(5);
      ++*resumed;
    }(g, &resumed));
  }
  g.release(1);
  eq.run();
  EXPECT_EQ(resumed, 0);
  g.kick_all();
  eq.run();
  EXPECT_EQ(resumed, 3);
  EXPECT_EQ(g.credits(), 1u);  // the lone credit was never debited
}

}  // namespace
}  // namespace vl::sim
