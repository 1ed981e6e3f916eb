#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace vl::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(30, [&] { order.push_back(3); });
  eq.schedule_at(10, [&] { order.push_back(1); });
  eq.schedule_at(20, [&] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) eq.schedule_at(5, [&, i] { order.push_back(i); });
  eq.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue eq;
  Tick seen = 0;
  eq.schedule_at(100, [&] {
    eq.schedule_in(5, [&] { seen = eq.now(); });
  });
  eq.run();
  EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, EventsCanCascade) {
  EventQueue eq;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 100) eq.schedule_in(1, recur);
  };
  eq.schedule_in(1, recur);
  eq.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(10, [&] { ++fired; });
  eq.schedule_at(20, [&] { ++fired; });
  eq.schedule_at(30, [&] { ++fired; });
  eq.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.now(), 20u);
  eq.run();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunWithLimit) {
  EventQueue eq;
  int fired = 0;
  for (int i = 0; i < 5; ++i) eq.schedule_at(i + 1, [&] { ++fired; });
  EXPECT_EQ(eq.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(eq.pending(), 2u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenEmpty) {
  EventQueue eq;
  eq.run_until(500);
  EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, RunUntilPastTheLastEventKeepsLastFiredOnIt) {
  EventQueue eq;
  EXPECT_EQ(eq.last_fired(), 0u);
  eq.schedule_at(12, [] {});
  eq.schedule_at(37, [] {});
  eq.run_until(500);
  EXPECT_EQ(eq.now(), 500u);
  EXPECT_EQ(eq.last_fired(), 37u);
}

TEST(EventQueue, EmptyQueuePeeksNever) {
  EventQueue eq;
  EXPECT_EQ(eq.peek_next_tick(), EventQueue::kNever);
  EXPECT_FALSE(eq.step());
  EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, FarOnlyQueuePeeksTheFarTick) {
  // Beyond the 8192-tick ring horizon, so the ring is empty and the far
  // heap alone answers the probe.
  EventQueue eq;
  eq.schedule_at(20'000, [] {});
  EXPECT_EQ(eq.peek_next_tick(), 20'000u);
  EXPECT_EQ(eq.now(), 0u);  // peeking fires nothing
}

TEST(EventQueue, RunUntilNeverFiresEverythingAndReturns) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(5, [&] { ++fired; });
  eq.schedule_at(30'000, [&] { ++fired; });  // far
  eq.run_until(~Tick{0});
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.last_fired(), 30'000u);
  EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DrainedQueuePeeksNeverAgain) {
  EventQueue eq;
  eq.schedule_at(7, [] {});
  EXPECT_EQ(eq.peek_next_tick(), 7u);
  EXPECT_TRUE(eq.step());
  EXPECT_EQ(eq.peek_next_tick(), EventQueue::kNever);
  EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutedCounts) {
  EventQueue eq;
  for (int i = 0; i < 7; ++i) eq.schedule_at(i + 1, [] {});
  EXPECT_EQ(eq.executed(), 0u);
  eq.run();
  EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueue, FarFutureEventsInterleaveWithNearOnes) {
  // Events far beyond the calendar-ring horizon (8192 ticks) take the
  // far-heap path; ordering across both paths must stay by (tick, seq).
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(100'000, [&] { order.push_back(3); });  // far
  eq.schedule_at(10, [&] { order.push_back(1); });       // near
  eq.schedule_at(50'000, [&] { order.push_back(2); });   // far
  eq.schedule_at(100'001, [&] { order.push_back(4); });  // far
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(eq.now(), 100'001u);
}

TEST(EventQueue, FarAndNearEventsOnTheSameTickMergeBySeq) {
  // Schedule A for tick 10000 while it is far (beyond the horizon), then
  // advance so 10000 is near and schedule B for the same tick. A was
  // scheduled first, so it must fire first.
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(10'000, [&] { order.push_back(1) ; });  // far at now=0
  eq.schedule_at(5'000, [&] {
    eq.schedule_at(10'000, [&] { order.push_back(2); });  // near at now=5000
  });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, MatchesReferenceModelUnderRandomLoad) {
  // Deterministic pseudo-random schedule (offsets straddling the ring
  // horizon, same-tick collisions, nested rescheduling) replayed against a
  // naive (tick, seq) sort — the kernel's firing order must match exactly.
  EventQueue eq;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;  // (when,id)
  std::vector<std::uint64_t> fired;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::uint64_t id = 0;
  std::function<void(int)> add = [&](int depth) {
    // Offsets: mostly short, some far past the 8192-tick horizon.
    const std::uint64_t off = next() % 3 == 0 ? next() % 40'000 : next() % 64;
    const Tick when = eq.now() + off;
    const std::uint64_t my_id = id++;
    expected.emplace_back(when, my_id);
    eq.schedule_at(when, [&, my_id, depth] {
      fired.push_back(my_id);
      if (depth > 0 && next() % 2) add(depth - 1);  // nested reschedule
    });
  };
  for (int i = 0; i < 400; ++i) add(2);
  eq.run();

  ASSERT_EQ(fired.size(), expected.size());
  // expected is in id (= seq) order; a stable sort by tick yields the
  // required (tick, seq) execution order.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < fired.size(); ++i)
    ASSERT_EQ(fired[i], expected[i].second) << "at event " << i;
}

// Lifetime tests: every callable holds a shared_ptr token, so the token's
// use_count() shows how many callables are still alive. A leak leaves it
// high; a double destroy drops it early (and trips ASan).

/// A callable bigger than EventFn's inline buffer, so it spills to the heap.
struct Spilled {
  std::shared_ptr<int> token;
  std::array<char, 128> pad{};
  void operator()() const {}
};
static_assert(sizeof(Spilled) > EventFn::kInlineSize);

TEST(EventQueue, PendingCallablesAreDestroyedOnceWithTheQueue) {
  auto token = std::make_shared<int>(0);
  {
    EventQueue eq;
    eq.schedule_at(10, [token] {});            // inline, ring
    eq.schedule_at(20, Spilled{token});        // heap-spilled, ring
    eq.schedule_at(100'000, [token] {});       // inline, far heap
    eq.schedule_at(200'000, Spilled{token});   // heap-spilled, far heap
    EXPECT_EQ(token.use_count(), 5);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, FiredCallableIsDestroyedBeforeTheNextEvent) {
  auto token = std::make_shared<int>(0);
  EventQueue eq;
  std::vector<long> seen;
  auto check = [&] { seen.push_back(token.use_count()); };
  eq.schedule_at(10, [token] {});
  eq.schedule_at(10, check);  // same tick, right behind it
  eq.schedule_at(20, Spilled{token});
  eq.schedule_at(21, check);
  eq.schedule_at(100'000, [token] {});
  eq.schedule_at(100'000, check);
  eq.schedule_at(200'000, Spilled{token});
  eq.schedule_at(200'001, check);
  // Pending callables: the two checks do not hold the token.
  EXPECT_EQ(token.use_count(), 5);
  eq.run();
  EXPECT_EQ(seen, (std::vector<long>{4, 3, 2, 1}));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, EventFnArgumentIsMovedIn) {
  auto token = std::make_shared<int>(0);
  EventQueue eq;
  int fired = 0;
  EventFn fn = [token, &fired] { ++fired; };
  eq.schedule_at(5, std::move(fn));
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(token.use_count(), 2);
  eq.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, SchedulingIntoTheFiringTickRunsAfterQueuedEvents) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(10, [&] {
    order.push_back(1);
    eq.schedule_in(0, [&] { order.push_back(4); });
  });
  eq.schedule_at(10, [&] { order.push_back(2); });
  eq.schedule_at(10, [&] { order.push_back(3); });
  eq.schedule_at(11, [&] { order.push_back(5); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EventQueue, SchedulingIntoAFarMergedTickRunsAfterQueuedEvents) {
  // Tick 10'000 is beyond the ring horizon at now = 0, so A and B take the
  // far heap; C and D are scheduled once it is near. A's same-tick event E
  // must land behind all four after the merge.
  EventQueue eq;
  std::vector<char> order;
  eq.schedule_at(10'000, [&] {
    order.push_back('A');
    eq.schedule_in(0, [&] { order.push_back('E'); });
  });
  eq.schedule_at(10'000, [&] { order.push_back('B'); });
  eq.schedule_at(5'000, [&] {
    eq.schedule_at(10'000, [&] { order.push_back('C'); });
    eq.schedule_at(10'000, [&] { order.push_back('D'); });
  });
  eq.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C', 'D', 'E'}));

  // The same when the merge alone filled the bucket.
  order.clear();
  const Tick far = eq.now() + 20'000;
  eq.schedule_at(far, [&] {
    order.push_back('A');
    eq.schedule_in(0, [&] { order.push_back('C'); });
  });
  eq.schedule_at(far, [&] { order.push_back('B'); });
  eq.schedule_at(far + 1, [&] { order.push_back('D'); });
  eq.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C', 'D'}));
}

TEST(EventQueue, ThrowingEventLeavesTheQueueRunnable) {
  auto token = std::make_shared<int>(0);
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(10, [&] { order.push_back(1); });
  eq.schedule_at(20, [token] { throw std::runtime_error("boom"); });
  eq.schedule_at(20, [&] { order.push_back(2); });
  eq.schedule_at(100'000, [&] { order.push_back(3); });
  EXPECT_THROW(eq.run(), std::runtime_error);
  EXPECT_EQ(eq.now(), 20u);
  EXPECT_EQ(eq.pending(), 2u);
  EXPECT_EQ(eq.executed(), 2u);
  EXPECT_EQ(token.use_count(), 1);  // the thrower was destroyed anyway
  eq.schedule_in(0, [&] { order.push_back(4); });
  EXPECT_EQ(eq.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
  EXPECT_TRUE(eq.empty());
}

}  // namespace
}  // namespace vl::sim
