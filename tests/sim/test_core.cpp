#include "sim/core.hpp"

#include <gtest/gtest.h>

#include <malloc.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <thread>

#include "mem/hierarchy.hpp"
#include "sim/sync.hpp"

// Every global operator new and delete in this test binary, counted so a
// test can assert that a steady stream of Core ops or Co calls allocates
// nothing, and see a cached frame block go back to the heap. Each
// non-aligned form is replaced, so every pointer they return is freed by a
// matching replacement. Out of line, so GCC does not pair an inlined free()
// with a new-expression (-Wmismatched-new-delete).
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_frees{0};
// An address inside one heap block, and how often a block holding it was
// freed.
std::atomic<std::uintptr_t> g_watched{0};
std::atomic<int> g_watched_frees{0};

[[gnu::noinline]] void counted_free(void* p) noexcept {
  g_heap_frees.fetch_add(1, std::memory_order_relaxed);
  const std::uintptr_t w = g_watched.load(std::memory_order_relaxed);
  if (w && p && w - reinterpret_cast<std::uintptr_t>(p) < malloc_usable_size(p))
    g_watched_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

[[gnu::noinline]] void* counted_alloc(std::size_t n) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
[[gnu::noinline]] void* counted_new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace vl::sim {
namespace {

struct CoreFixture : ::testing::Test {
  EventQueue eq;
  CacheConfig ccfg;
  mem::Hierarchy hier{eq, 2, ccfg};
  CoreConfig cfg;
  Core core0{eq, 0, hier, cfg};
  Core core1{eq, 1, hier, cfg};
};

TEST_F(CoreFixture, StoreThenLoadRoundTrips) {
  SimThread t = core0.make_thread();
  std::uint64_t got = 0;
  spawn([](SimThread th, std::uint64_t* out) -> Co<void> {
    co_await th.store(0x1000, 0xdeadbeefcafe, 8);
    *out = co_await th.load(0x1000, 8);
  }(t, &got));
  eq.run();
  EXPECT_EQ(got, 0xdeadbeefcafeull);
}

TEST_F(CoreFixture, SubWordAccessesRespectSize) {
  SimThread t = core0.make_thread();
  std::uint64_t got = 0;
  spawn([](SimThread th, std::uint64_t* out) -> Co<void> {
    co_await th.store(0x2000, 0x11223344aabbccdd, 8);
    *out = co_await th.load(0x2002, 2);  // bytes 2..3 little-endian
  }(t, &got));
  eq.run();
  EXPECT_EQ(got, 0xaabbu);
}

TEST_F(CoreFixture, CasSucceedsOnceUnderContention) {
  SimThread a = core0.make_thread();
  SimThread b = core1.make_thread();
  int successes = 0;
  auto contender = [](SimThread th, int* succ) -> Co<void> {
    bool ok = co_await th.cas64(0x3000, 0, 1);
    if (ok) ++*succ;
  };
  spawn(contender(a, &successes));
  spawn(contender(b, &successes));
  eq.run();
  EXPECT_EQ(successes, 1);
}

TEST_F(CoreFixture, FetchAddIsAtomicAcrossCores) {
  SimThread a = core0.make_thread();
  SimThread b = core1.make_thread();
  auto adder = [](SimThread th) -> Co<void> {
    for (int i = 0; i < 100; ++i) co_await th.fetch_add64(0x4000, 1);
  };
  spawn(adder(a));
  spawn(adder(b));
  eq.run();
  EXPECT_EQ(hier.backing().read(0x4000, 8), 200u);
}

TEST_F(CoreFixture, SwapReturnsOldValue) {
  SimThread t = core0.make_thread();
  std::uint64_t old = 99;
  spawn([](SimThread th, std::uint64_t* o) -> Co<void> {
    co_await th.store(0x5000, 7, 8);
    *o = co_await th.swap64(0x5000, 13);
  }(t, &old));
  eq.run();
  EXPECT_EQ(old, 7u);
  EXPECT_EQ(hier.backing().read(0x5000, 8), 13u);
}

TEST_F(CoreFixture, LineOpsMoveWholeLines) {
  SimThread t = core0.make_thread();
  std::array<std::uint8_t, 64> in{}, out{};
  for (int i = 0; i < 64; ++i) in[i] = static_cast<std::uint8_t>(i * 3);
  spawn([](SimThread th, void* src, void* dst) -> Co<void> {
    co_await th.store_line(0x6000, src);
    co_await th.load_line(0x6000, dst);
  }(t, in.data(), out.data()));
  eq.run();
  EXPECT_EQ(in, out);
}

TEST_F(CoreFixture, ComputeAdvancesTime) {
  SimThread t = core0.make_thread();
  spawn([](SimThread th) -> Co<void> { co_await th.compute(123); }(t));
  eq.run();
  EXPECT_EQ(eq.now(), 123u);
}

TEST_F(CoreFixture, TwoThreadsOnOneCoreSerializeAndPayCtxSwitch) {
  SimThread t0 = core0.make_thread();
  SimThread t1 = core0.make_thread();
  auto worker = [](SimThread th) -> Co<void> {
    for (int i = 0; i < 3; ++i) co_await th.compute(10);
  };
  spawn(worker(t0));
  spawn(worker(t1));
  eq.run();
  // 6 compute blocks of 10 plus at least one context switch.
  EXPECT_GE(eq.now(), 60u + core0.cfg().ctx_switch_cost);
  EXPECT_GE(core0.ctx_switches(), 1u);
}

TEST_F(CoreFixture, CtxSwitchHookFires) {
  SimThread t0 = core0.make_thread();
  SimThread t1 = core0.make_thread();
  std::vector<std::pair<int, int>> switches;
  core0.add_ctx_switch_hook(
      [&](int o, int n) { switches.emplace_back(o, n); });
  spawn([](SimThread th) -> Co<void> { co_await th.compute(5); }(t0));
  spawn([](SimThread th) -> Co<void> { co_await th.compute(5); }(t1));
  eq.run();
  ASSERT_FALSE(switches.empty());
  EXPECT_EQ(switches[0], (std::pair<int, int>{0, 1}));
}

TEST_F(CoreFixture, SingleThreadNeverContextSwitches) {
  SimThread t = core0.make_thread();
  spawn([](SimThread th) -> Co<void> {
    for (int i = 0; i < 10; ++i) {
      co_await th.compute(1);
      co_await th.store(0x7000, i, 8);
    }
  }(t));
  eq.run();
  EXPECT_EQ(core0.ctx_switches(), 0u);
}

TEST_F(CoreFixture, ParkedThreadDonatesResidencyImmediately) {
  // Yield-on-block: t0 parks on a WaitQueue; t1 (same core) must get the
  // core right away — paying only the context-switch cost, not waiting out
  // t0's scheduling quantum (5000 ticks by default).
  SimThread t0 = core0.make_thread();
  SimThread t1 = core0.make_thread();
  WaitQueue wq(eq);
  Tick t1_done = 0;
  spawn([](SimThread th, WaitQueue& wq) -> Co<void> {
    co_await th.compute(10);
    co_await th.park(wq, wq.epoch());  // blocks "forever"
  }(t0, wq));
  spawn([](SimThread th, Tick* done) -> Co<void> {
    co_await th.compute(10);
    *done = th.core->eq().now();
  }(t1, &t1_done));
  eq.run();
  EXPECT_GT(core0.yields(), 0u);
  EXPECT_GE(core0.ctx_switches(), 1u);  // the donation still swaps state
  // t0 computes 10, parks; switch (1000) + t1's compute (10) ≈ 1020 —
  // far below the 5000-tick quantum the old scheduler would have waited.
  EXPECT_LT(t1_done, core0.cfg().sched_quantum);
  wq.wake_all();  // unpark t0 so the queue drains cleanly
  eq.run();
}

TEST_F(CoreFixture, WokenThreadReacquiresTheCoreAndContinues) {
  SimThread t0 = core0.make_thread();
  SimThread t1 = core0.make_thread();
  WaitQueue wq(eq);
  std::uint64_t got = 0;
  spawn([](SimThread th, WaitQueue& wq, std::uint64_t* out) -> Co<void> {
    co_await th.store(0x8000, 41, 8);
    co_await th.park(wq, wq.epoch());
    // Woken: must transparently re-acquire the issue port past t1.
    const std::uint64_t v = co_await th.load(0x8000, 8);
    co_await th.store(0x8000, v + 1, 8);
    *out = v + 1;
  }(t0, wq, &got));
  spawn([](SimThread th, WaitQueue& wq) -> Co<void> {
    co_await th.compute(500);
    wq.wake_one();
    co_await th.compute(500);
  }(t1, wq));
  eq.run();
  EXPECT_EQ(got, 42u);
  EXPECT_EQ(hier.backing().read(0x8000, 8), 42u);
}

TEST_F(CoreFixture, SteadyOpsAllocateNothing) {
  // An op lives in its caller's frame: after a warm-up (event-node chunk,
  // backing-store pages), a loop over all eight ops performs no heap
  // allocation at all.
  SimThread t = core0.make_thread();
  std::uint64_t allocs = ~std::uint64_t{0};
  spawn([](SimThread th, std::uint64_t* out) -> Co<void> {
    std::array<std::uint8_t, 64> line{};
    std::uint64_t before = 0;
    for (int i = 0; i < 64; ++i) {
      if (i == 32) before = g_heap_allocs.load();
      const std::uint64_t v = co_await th.load(0x9000, 8);
      co_await th.store(0x9000, v + 1, 8);
      co_await th.cas64(0x9008, v, v + 1);
      co_await th.fetch_add64(0x9010, 1);
      co_await th.swap64(0x9018, v);
      co_await th.store_line(0x9040, line.data());
      co_await th.load_line(0x9040, line.data());
      co_await th.compute(3);
    }
    *out = g_heap_allocs.load() - before;
  }(t, &allocs));
  eq.run();
  EXPECT_EQ(allocs, 0u);
}

Co<void> one_tick(EventQueue& q) { co_await Delay(q, 1); }

Co<std::optional<std::uint64_t>> next_unless_third(EventQueue& q,
                                                   std::uint64_t v) {
  co_await one_tick(q);
  if (v % 3 == 0) co_return std::nullopt;
  co_return v + 1;
}

Co<int> chain_step(EventQueue& q, std::uint64_t v) {
  const std::optional<std::uint64_t> r = co_await next_unless_third(q, v);
  co_return r ? 1 : 0;
}

TEST(FrameCache, SteadyCoChainsAllocateNothing) {
  // Each iteration creates and destroys three nested frames; after a
  // warm-up (event-node chunk, the frame cache's first blocks) they come
  // from the thread's frame cache, not the heap.
  EventQueue eq;
  std::uint64_t allocs = ~std::uint64_t{0};
  int somes = 0;
  spawn([](EventQueue& q, std::uint64_t* out, int* n) -> Co<void> {
    std::uint64_t before = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
      if (i == 32) before = g_heap_allocs.load();
      *n += co_await chain_step(q, i);
    }
    *out = g_heap_allocs.load() - before;
  }(eq, &allocs, &somes));
  eq.run();
  EXPECT_EQ(somes, 42);  // i % 3 != 0 for 42 of 0..63
  EXPECT_EQ(eq.now(), 64u);
  EXPECT_EQ(allocs, 0u);
}

Co<int> watched_frame(EventQueue& q) {
  int local = 7;  // lives in the frame across the Delay
  g_watched.store(reinterpret_cast<std::uintptr_t>(&local));
  co_await Delay(q, 5);
  co_return local;
}

TEST(FrameCache, FrameCrossesThreadsAndLeavesWithTheLastOne) {
  // Created on one thread, resumed and destroyed on another: the frame
  // goes into the second thread's cache, and that thread's exit hands it
  // back to the heap.
  EventQueue eq;
  Co<int> co;
  std::uint64_t made = 0;
  std::thread([&] {
    const std::uint64_t before = g_heap_allocs.load();
    co = watched_frame(eq);  // lazy: the frame exists, the body has not run
    made = g_heap_allocs.load() - before;
  }).join();
  EXPECT_EQ(made, 1u);

  int result = 0;
  int freed_before_exit = -1;
  std::thread([&] {
    spawn([](Co<int> c, int* out) -> Co<void> {
      *out = co_await std::move(c);
    }(std::move(co), &result));
    eq.run();  // the body runs here; both frames are destroyed here
    freed_before_exit = g_watched_frees.load();
  }).join();
  EXPECT_EQ(result, 7);
  EXPECT_EQ(freed_before_exit, 0);     // cached, not freed
  EXPECT_EQ(g_watched_frees.load(), 1);  // the thread's exit freed it
  g_watched.store(0);
  g_watched_frees.store(0);
}

// Holds a frame until its thread's thread_local destructors run. Built
// before the thread caches its first block, so it is destroyed after the
// thread's frame cache has been handed back.
struct LateFrame {
  Co<int> co;
  std::uint64_t* frees = nullptr;
  ~LateFrame() {
    const std::uint64_t before = g_heap_frees.load();
    co = Co<int>{};
    *frees = g_heap_frees.load() - before;
  }
};

Co<int> idle_frame() { co_return 0; }

TEST(FrameCache, FrameFreedAfterTheExitDrainGoesToTheHeap) {
  EventQueue eq;
  std::uint64_t late_frees = 0;
  std::thread([&] {
    thread_local LateFrame late;
    late.frees = &late_frees;
    late.co = idle_frame();
    spawn(one_tick(eq));  // caches a block: the exit drain is armed
    eq.run();
  }).join();
  EXPECT_EQ(late_frees, 1u);
}

TEST_F(CoreFixture, ZeroCycleComputeOnAFreePortDoesNotSuspend) {
  SimThread t = core0.make_thread();
  bool first = false;
  bool resident_same_event = false;
  spawn([](SimThread th, EventQueue& q, bool* f, bool* r) -> Co<void> {
    co_await th.compute(0);  // first occupant of a free port
    *f = true;
    co_await th.store(0xa000, 1, 8);  // now resumed from the commit event
    const std::uint64_t fired = q.executed();
    const Tick now = q.now();
    co_await th.compute(0);
    *r = q.executed() == fired && q.now() == now;
  }(t, eq, &first, &resident_same_event));
  EXPECT_TRUE(first);  // finished inside spawn(), before any event fired
  EXPECT_EQ(eq.executed(), 0u);
  eq.run();
  EXPECT_TRUE(resident_same_event);
}

// A MemoryPort committing every request a fixed `lat` ticks after issue.
struct FixedLatencyPort : MemoryPort {
  EventQueue& eq;
  Tick lat;
  FixedLatencyPort(EventQueue& q, Tick l) : eq(q), lat(l) {}
  void issue(const MemRequest&, MemDone& done) override {
    eq.schedule_in(lat, [&done] { done.mem_done(MemResult{}); });
  }
};

struct FifoTicks {
  Tick cas_done = 0;  ///< the Core op's completion
  Tick port_got = 0;  ///< the acquire_port() waiter's grant
};

/// t0 holds the port for 100 ticks, then parks. Meanwhile t1 issues a
/// cas64 (queued on the port at tick atomic_extra) and t2, an
/// acquire_port() caller like the VL ISA port, queues at `waiter_at` and
/// holds the port for `hold` ticks. Each parks once done, handing the core
/// on at once.
FifoTicks run_fifo(const CoreConfig& cfg, Tick lat, Tick waiter_at,
                   Tick hold) {
  EventQueue eq;
  FixedLatencyPort port(eq, lat);
  Core core(eq, 0, port, cfg);
  WaitQueue wq(eq);
  FifoTicks out;
  spawn([](SimThread th, WaitQueue& w) -> Co<void> {
    co_await th.compute(100);
    co_await th.park(w, w.epoch());
  }(core.make_thread(), wq));
  spawn([](SimThread th, WaitQueue& w, Tick* done) -> Co<void> {
    const bool ok = co_await th.cas64(0x100, 0, 1);
    EXPECT_TRUE(ok);
    *done = th.core->eq().now();
    co_await th.park(w, w.epoch());
  }(core.make_thread(), wq, &out.cas_done));
  spawn([](SimThread th, WaitQueue& w, Tick at, Tick hold,
           Tick* got) -> Co<void> {
    EventQueue& q = th.core->eq();
    co_await Delay(q, at);
    co_await th.core->acquire_port(th.tid);
    *got = q.now();
    co_await Delay(q, hold);
    th.core->release_port();
    co_await th.park(w, w.epoch());
  }(core.make_thread(), wq, waiter_at, hold, &out.port_got));
  eq.run();
  wq.wake_all();  // let the parked threads finish
  eq.run();
  return out;
}

TEST(CoreRunQueue, OpsAndPortWaitersAreGrantedFifo) {
  CoreConfig cfg;
  cfg.issue_cost = 3;
  cfg.atomic_extra = 5;
  cfg.ctx_switch_cost = 200;
  const Tick lat = 20, hold = 50;
  const Tick C = cfg.ctx_switch_cost, I = cfg.issue_cost;

  // The cas64 queues first (tick 5, after its atomic_extra): t0's park
  // grants it after one switch; its release and park grant the waiter.
  const FifoTicks op_first = run_fifo(cfg, lat, /*waiter_at=*/7, hold);
  EXPECT_EQ(op_first.cas_done, 100 + C + I + lat);
  EXPECT_EQ(op_first.port_got, op_first.cas_done + C);

  // The waiter queues first (tick 2): it holds the port `hold` ticks, then
  // the cas64 pays a switch, its issue cost and the port latency.
  const FifoTicks waiter_first = run_fifo(cfg, lat, /*waiter_at=*/2, hold);
  EXPECT_EQ(waiter_first.port_got, 100 + C);
  EXPECT_EQ(waiter_first.cas_done, waiter_first.port_got + hold + C + I + lat);
}

}  // namespace
}  // namespace vl::sim
