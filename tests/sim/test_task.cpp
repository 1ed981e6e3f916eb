#include "sim/task.hpp"

#include <gtest/gtest.h>

#include "sim/async_mutex.hpp"

namespace vl::sim {
namespace {

Co<int> value_co(int x) { co_return x; }

Co<int> nested(int x) {
  int a = co_await value_co(x);
  int b = co_await value_co(a + 1);
  co_return a + b;
}

TEST(Task, NestedCoReturnsValues) {
  EventQueue eq;
  int result = 0;
  spawn([](int* out) -> Co<void> {
    *out = co_await nested(10);  // 10 + 11
  }(&result));
  eq.run();
  EXPECT_EQ(result, 21);
}

TEST(Task, SpawnRunsEagerlyUntilFirstSuspend) {
  EventQueue eq;
  int stage = 0;
  Spawned s = spawn([](EventQueue& q, int* st) -> Co<void> {
    *st = 1;
    co_await Delay(q, 10);
    *st = 2;
  }(eq, &stage));
  EXPECT_EQ(stage, 1);  // ran to the Delay synchronously
  EXPECT_FALSE(s.done());
  eq.run();
  EXPECT_EQ(stage, 2);
  EXPECT_TRUE(s.done());
  EXPECT_EQ(eq.now(), 10u);
}

TEST(Task, DelaysAccumulateSequentially) {
  EventQueue eq;
  Tick end = 0;
  spawn([](EventQueue& q, Tick* e) -> Co<void> {
    co_await Delay(q, 5);
    co_await Delay(q, 7);
    co_await Delay(q, 0);  // zero delay is ready immediately
    *e = q.now();
  }(eq, &end));
  eq.run();
  EXPECT_EQ(end, 12u);
}

TEST(Task, ManyConcurrentCoroutinesInterleave) {
  EventQueue eq;
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    spawn([](EventQueue& q, int delay, int* d) -> Co<void> {
      co_await Delay(q, delay);
      ++*d;
    }(eq, i + 1, &done));
  }
  eq.run();
  EXPECT_EQ(done, 100);
  EXPECT_EQ(eq.now(), 100u);
}

TEST(AsyncMutex, MutualExclusionAndFifo) {
  EventQueue eq;
  AsyncMutex m(eq);
  std::vector<int> order;
  auto worker = [](EventQueue& q, AsyncMutex& mu, std::vector<int>& ord,
                   int id) -> Co<void> {
    co_await mu.lock();
    ord.push_back(id);
    co_await Delay(q, 10);
    ord.push_back(id);
    mu.unlock();
  };
  for (int i = 0; i < 3; ++i) spawn(worker(eq, m, order, i));
  eq.run();
  // Each worker's two entries must be adjacent (no interleaving) and FIFO.
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order, (std::vector<int>{0, 0, 1, 1, 2, 2}));
  EXPECT_FALSE(m.locked());
}

TEST(AsyncMutex, UncontendedLockIsImmediate) {
  EventQueue eq;
  AsyncMutex m(eq);
  bool entered = false;
  spawn([](AsyncMutex& mu, bool* e) -> Co<void> {
    co_await mu.lock();
    *e = true;
    mu.unlock();
  }(m, &entered));
  EXPECT_TRUE(entered);  // no suspension needed
}

}  // namespace
}  // namespace vl::sim
