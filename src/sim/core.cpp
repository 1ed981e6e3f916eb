#include "sim/core.hpp"

#include "obs/tracer.hpp"

namespace vl::sim {

using detail::CoreOpBase;

// --- run-queue scheduling ----------------------------------------------------
//
// Invariants:
//   * port_busy_ is true exactly while one op holds the issue port.
//   * resident_ names the thread whose architectural state is on the core
//     (hooks/ctx cost fire only when it changes); resident_blocked_ marks a
//     resident that parked and donated its slice.
//   * run_queue_ holds suspended acquire_port() callers and Core ops, FIFO.
//   * Grants always resume through the EventQueue (never inline), so
//     scheduling order is deterministic and re-entrancy free.

bool Core::try_acquire_now(int tid) {
  if (port_busy_) return false;
  if (resident_ == tid) {
    // The resident keeps the core between its own ops inside its slice.
    // Once the slice expired and someone is queued, it must requeue.
    if (!run_queue_.empty() && (!within_slice() || resident_blocked_))
      return false;
    resident_blocked_ = false;
    port_busy_ = true;
    return true;
  }
  if (resident_ == -1 && run_queue_.empty()) {
    resident_ = tid;  // first occupant: free, like the original model
    resident_since_ = eq_.now();
    port_busy_ = true;
    return true;
  }
  return false;
}

void Core::enqueue_waiter(const PortWaiter& w) {
  run_queue_.push_back(w);
  maybe_grant();
}

void Core::yield(int tid) {
  if (resident_ != tid) return;
  assert(!port_busy_ && "cannot yield while an op holds the issue port");
  ++yields_;
  resident_blocked_ = true;
  maybe_grant();
}

void Core::maybe_grant() {
  if (port_busy_ || run_queue_.empty()) return;
  const PortWaiter& w = run_queue_.front();
  if (resident_ != -1 && resident_ != w.tid && !resident_blocked_ &&
      within_slice()) {
    // Resident still owns its slice: the backstop timer preempts at its
    // end (the next release_port() past that point also grants).
    arm_preempt_timer(resident_since_ + cfg_.sched_quantum);
    return;
  }
  grant_front();
}

void Core::grant_front() {
  PortWaiter w = run_queue_.front();
  run_queue_.pop_front();
  port_busy_ = true;
  Tick cost = 0;
  if (resident_ != w.tid) {
    if (resident_ != -1) {
      ++ctx_switches_;
      for (auto& h : hooks_) h(resident_, w.tid);
      cost = cfg_.ctx_switch_cost;
    }
    resident_ = w.tid;
    resident_since_ = eq_.now();
  }
  resident_blocked_ = false;
  if (w.op)
    eq_.schedule_in(cost, [op = w.op] { op->granted(); });
  else
    eq_.schedule_in(cost, [h = w.h] { h.resume(); });
}

void Core::arm_preempt_timer(Tick when) {
  if (preempt_armed_) return;
  preempt_armed_ = true;
  eq_.schedule_at(when, [this] {
    preempt_armed_ = false;
    maybe_grant();
  });
}

Co<void> SimThread::park(WaitQueue& wq, std::uint64_t expected) const {
  if (wq.epoch() != expected) co_return;  // wake already happened
  EventQueue& eq = core->eq();
  obs::TraceBuffer* const tb = eq.trace();
  const std::uint32_t lane = obs::thread_tid(core->id(), tid);
  if (tb) tb->begin(eq.now(), lane, "sim", "park");
  core->yield(tid);
  co_await wq.park(expected);
  if (tb) tb->end(eq.now(), lane, "sim", "park");
}

Co<void> SimThread::acquire_credits(CreditGate& g, std::uint64_t want) const {
  if (g.try_acquire(want)) co_return;
  EventQueue& eq = core->eq();
  obs::TraceBuffer* const tb = eq.trace();
  const std::uint32_t lane = obs::thread_tid(core->id(), tid);
  if (tb) tb->begin(eq.now(), lane, "sim", "credit_wait", "want", want);
  core->yield(tid);
  co_await g.acquire(want);
  if (tb) tb->end(eq.now(), lane, "sim", "credit_wait");
}

Co<std::size_t> SimThread::park_any(
    std::span<WaitQueue* const> wqs,
    std::span<const std::uint64_t> gates) const {
  // Fall through without yielding when a wake already landed on any queue.
  for (std::size_t i = 0; i < wqs.size(); ++i)
    if (wqs[i]->epoch() != gates[i]) co_return i;
  EventQueue& eq = core->eq();
  obs::TraceBuffer* const tb = eq.trace();
  const std::uint32_t lane = obs::thread_tid(core->id(), tid);
  if (tb) tb->begin(eq.now(), lane, "sim", "park_any", "n", wqs.size());
  core->yield(tid);
  const std::size_t idx = co_await ParkAny(wqs, gates);
  if (tb) tb->end(eq.now(), lane, "sim", "park_any");
  co_return idx;
}

// --- operations --------------------------------------------------------------
//
// A non-zero stage delay, a run-queue grant and the port's commit are one
// event each; a stage that costs nothing runs inline. So a run's
// (tick, seq) order depends only on the modelled costs.

CoreOpBase::CoreOpBase(Core& core, int tid, Tick pre, const MemRequest& req)
    : core_(core), tid_(tid), is_mem_(true), pre_(pre),
      delay_(core.cfg_.issue_cost), req_(req) {}

bool CoreOpBase::await_suspend(std::coroutine_handle<> caller) {
  caller_ = caller;
  if (pre_ != 0) {
    core_.eq_.schedule_in(pre_, [this] {
      if (acquire()) caller_.resume();
    });
    return true;
  }
  return !acquire();
}

bool CoreOpBase::acquire() {
  if (!core_.try_acquire_now(tid_)) {
    core_.enqueue_waiter({tid_, nullptr, this});
    return false;
  }
  return start();
}

void CoreOpBase::granted() {
  if (start()) caller_.resume();
}

bool CoreOpBase::start() {
  if (delay_ != 0) {
    core_.eq_.schedule_in(delay_, [this] {
      if (issue()) caller_.resume();
    });
    return false;
  }
  return issue();
}

bool CoreOpBase::issue() {
  if (!is_mem_) {  // a compute block ends here
    core_.release_port();
    return true;
  }
  core_.mem_.issue(req_, *this);
  return false;
}

void CoreOpBase::mem_done(MemResult r) {
  res_ = r;
  core_.release_port();
  caller_.resume();
}

}  // namespace vl::sim
