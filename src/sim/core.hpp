#pragma once
// In-order timing core model.
//
// Each Core owns one issue port; software threads bound to the core
// serialize through it (the paper's FIR benchmark runs two threads per core
// and the resulting context switches are what defeat VL cache injection
// there, so thread residency is modelled explicitly). Switching the resident
// thread costs CoreConfig::ctx_switch_cost cycles and fires registered
// hooks — the VL port uses those to drop its latched selection and clear
// "pushable" tag bits, exactly as § III-B requires.
//
// Scheduling is an explicit per-core run-queue with yield-on-block
// semantics: the resident thread keeps the port between its own ops inside
// its timeslice; contenders queue FIFO and are granted either when the
// resident's quantum expires (a preemption timer, the backstop) or
// immediately when the resident blocks — a parked thread donates the rest
// of its slice via yield() instead of spinning it out.

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <type_traits>
#include <vector>

#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/mem_port.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace vl::sim {

class Core;

namespace detail {

/// One Core operation (a compute block or a memory access), awaited in
/// place: the object lives in the awaiting coroutine's frame and steps
/// through the op's stages itself, so an op allocates no coroutine frame
/// and no completion functor. Stages, each an event only when it costs
/// time:
///   1. pre-delay (atomic_extra for an RMW);
///   2. the issue port: taken at once, or queued on the core's run-queue;
///   3. issue_cost for a memory op, the cycles for a compute block;
///   4. a memory op issues to the MemoryPort;
///   5. completion (the port's commit, or the end of the compute block)
///      releases the port, then resumes the caller inline.
/// An op that costs no time on a free port completes without suspending.
class CoreOpBase : private MemDone {
 public:
  /// A compute block of `cycles`.
  CoreOpBase(Core& core, int tid, Tick cycles)
      : core_(core), tid_(tid), is_mem_(false), delay_(cycles) {}
  /// A memory access, after `pre` cycles outside the port.
  CoreOpBase(Core& core, int tid, Tick pre, const MemRequest& req);
  // The op's address is handed to the run-queue and the MemoryPort.
  CoreOpBase(const CoreOpBase&) = delete;
  CoreOpBase& operator=(const CoreOpBase&) = delete;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> caller);

 protected:
  MemResult res_;

 private:
  friend class vl::sim::Core;

  // Each stage returns true when the op completed synchronously.
  bool acquire();
  bool start();
  bool issue();
  /// The run-queue granted the port (from the grant event).
  void granted();
  void mem_done(MemResult r) override;

  Core& core_;
  int tid_;
  bool is_mem_;
  Tick pre_ = 0;
  Tick delay_;
  MemRequest req_{};
  std::coroutine_handle<> caller_;
};

}  // namespace detail

/// Awaitable Core operation yielding R: the loaded or old value
/// (std::uint64_t), the CAS success flag (bool) or nothing (void).
template <class R>
class [[nodiscard]] CoreOp : public detail::CoreOpBase {
 public:
  using CoreOpBase::CoreOpBase;
  R await_resume() const noexcept {
    if constexpr (std::is_same_v<R, bool>)
      return res_.ok;
    else if constexpr (!std::is_void_v<R>)
      return res_.value;
  }
};

/// A software thread bound to a core. Thin value type passed to every op.
struct SimThread {
  Core* core = nullptr;
  int tid = -1;

  // Convenience forwarding (definitions after Core).
  CoreOp<void> compute(std::uint64_t cycles) const;
  CoreOp<std::uint64_t> load(Addr a, unsigned size = 8) const;
  CoreOp<void> store(Addr a, std::uint64_t v, unsigned size = 8) const;
  CoreOp<bool> cas64(Addr a, std::uint64_t expected,
                     std::uint64_t desired) const;
  CoreOp<std::uint64_t> fetch_add64(Addr a, std::uint64_t delta) const;
  CoreOp<std::uint64_t> swap64(Addr a, std::uint64_t v) const;
  CoreOp<void> load_line(Addr a, void* out) const;
  CoreOp<void> store_line(Addr a, const void* in) const;

  /// Futex-style blocking: donate this thread's core residency (yield) and
  /// park on `wq` unless its epoch already moved past `expected`. Costs no
  /// simulated time and generates no events while parked.
  Co<void> park(WaitQueue& wq, std::uint64_t expected) const;

  /// Multi-futex blocking (select/wait-any): donate residency and park on
  /// every queue in `wqs` at once; resumes on the first wake from any of
  /// them and returns that queue's index. Falls through immediately when
  /// any epoch already moved past its sampled gate.
  Co<std::size_t> park_any(std::span<WaitQueue* const> wqs,
                           std::span<const std::uint64_t> gates) const;

  /// Credit-gate blocking: donate residency and wait FIFO for `want`
  /// credits (no yield when they are immediately available).
  Co<void> acquire_credits(CreditGate& g, std::uint64_t want) const;
};

class Core {
 public:
  using CtxSwitchHook = std::function<void(int old_tid, int new_tid)>;

  Core(EventQueue& eq, CoreId id, MemoryPort& mem, const CoreConfig& cfg)
      : eq_(eq), id_(id), mem_(mem), cfg_(cfg) {}

  EventQueue& eq() { return eq_; }
  CoreId id() const { return id_; }
  const CoreConfig& cfg() const { return cfg_; }

  /// Register a software thread on this core; returns its tid.
  SimThread make_thread() { return SimThread{this, next_tid_++}; }

  void add_ctx_switch_hook(CtxSwitchHook h) {
    hooks_.push_back(std::move(h));
  }

  /// Number of context switches taken on this core.
  std::uint64_t ctx_switches() const { return ctx_switches_; }
  /// Times a blocking thread donated its residency via yield().
  std::uint64_t yields() const { return yields_; }

  // --- awaitable operations ------------------------------------------------
  CoreOp<void> compute(int tid, std::uint64_t cycles) {
    return {*this, tid, cycles};
  }
  CoreOp<std::uint64_t> load(int tid, Addr a, unsigned size) {
    return {*this, tid, 0, {MemOp::kLoad, a, size, 0, 0, nullptr, id_}};
  }
  CoreOp<void> store(int tid, Addr a, std::uint64_t v, unsigned size) {
    return {*this, tid, 0, {MemOp::kStore, a, size, v, 0, nullptr, id_}};
  }
  CoreOp<bool> cas64(int tid, Addr a, std::uint64_t expected,
                     std::uint64_t desired) {
    return {*this, tid, cfg_.atomic_extra,
            {MemOp::kCas64, a, 8, expected, desired, nullptr, id_}};
  }
  CoreOp<std::uint64_t> fetch_add64(int tid, Addr a, std::uint64_t delta) {
    return {*this, tid, cfg_.atomic_extra,
            {MemOp::kFetchAdd64, a, 8, delta, 0, nullptr, id_}};
  }
  CoreOp<std::uint64_t> swap64(int tid, Addr a, std::uint64_t v) {
    return {*this, tid, cfg_.atomic_extra,
            {MemOp::kSwap64, a, 8, v, 0, nullptr, id_}};
  }
  CoreOp<void> load_line(int tid, Addr a, void* out) {
    return {*this, tid, 0, {MemOp::kLoadLine, a, 64, 0, 0, out, id_}};
  }
  CoreOp<void> store_line(int tid, Addr a, const void* in) {
    return {*this, tid, 0,
            {MemOp::kStoreLine, a, 64, 0, 0, const_cast<void*>(in), id_}};
  }

  /// Awaitable: acquire the issue port as `tid`, paying a context switch if
  /// the resident thread changes. Used directly by the VL ISA port as well.
  struct PortAwaiter {
    Core& core;
    int tid;
    bool await_ready() { return core.try_acquire_now(tid); }
    void await_suspend(std::coroutine_handle<> h) {
      core.enqueue_waiter({tid, h, nullptr});
    }
    void await_resume() const noexcept {}
  };
  PortAwaiter acquire_port(int tid) { return PortAwaiter{*this, tid}; }
  void release_port() {
    assert(port_busy_);
    port_busy_ = false;
    maybe_grant();
  }

  /// Yield-on-block: a thread about to park calls this (via SimThread::park)
  /// so the next queued thread is granted the core immediately instead of
  /// waiting out the blocked thread's quantum. No-op if `tid` is not
  /// resident. Must not be called while an op holds the issue port.
  void yield(int tid);

 private:
  friend struct PortAwaiter;
  friend class detail::CoreOpBase;

  /// A run-queue entry: a suspended acquire_port() caller, or a Core op.
  struct PortWaiter {
    int tid;
    std::coroutine_handle<> h;
    detail::CoreOpBase* op;
  };

  bool try_acquire_now(int tid);
  void enqueue_waiter(const PortWaiter& w);
  void maybe_grant();
  void grant_front();
  void arm_preempt_timer(Tick when);
  bool within_slice() const {
    return eq_.now() < resident_since_ + cfg_.sched_quantum;
  }

  EventQueue& eq_;
  CoreId id_;
  MemoryPort& mem_;
  CoreConfig cfg_;
  int next_tid_ = 0;
  int resident_ = -1;
  Tick resident_since_ = 0;
  bool port_busy_ = false;        ///< an op currently owns the issue port
  bool resident_blocked_ = false; ///< resident yielded (parked) the core
  bool preempt_armed_ = false;
  std::deque<PortWaiter> run_queue_;
  std::uint64_t ctx_switches_ = 0;
  std::uint64_t yields_ = 0;
  std::vector<CtxSwitchHook> hooks_;
};

// --- SimThread forwarding ----------------------------------------------------
inline CoreOp<void> SimThread::compute(std::uint64_t cycles) const {
  return core->compute(tid, cycles);
}
inline CoreOp<std::uint64_t> SimThread::load(Addr a, unsigned size) const {
  return core->load(tid, a, size);
}
inline CoreOp<void> SimThread::store(Addr a, std::uint64_t v,
                                     unsigned size) const {
  return core->store(tid, a, v, size);
}
inline CoreOp<bool> SimThread::cas64(Addr a, std::uint64_t expected,
                                 std::uint64_t desired) const {
  return core->cas64(tid, a, expected, desired);
}
inline CoreOp<std::uint64_t> SimThread::fetch_add64(Addr a,
                                                std::uint64_t delta) const {
  return core->fetch_add64(tid, a, delta);
}
inline CoreOp<std::uint64_t> SimThread::swap64(Addr a, std::uint64_t v) const {
  return core->swap64(tid, a, v);
}
inline CoreOp<void> SimThread::load_line(Addr a, void* out) const {
  return core->load_line(tid, a, out);
}
inline CoreOp<void> SimThread::store_line(Addr a, const void* in) const {
  return core->store_line(tid, a, in);
}

}  // namespace vl::sim
