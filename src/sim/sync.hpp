#pragma once
// Awaitable synchronization primitives for simulated threads.
//
// Workloads mostly communicate through the message channels under test,
// but harness code frequently needs phase structure around them — "start
// all producers at once", "wait until every worker finished the warm-up
// lap", "bound the number of in-flight batches". These primitives provide
// that without touching the modelled memory system: they are *harness*
// constructs, so they cost zero simulated coherence traffic and advance
// time only where an explicit latency is configured.
//
//   Barrier    — classic N-party phase barrier, reusable across phases.
//   WaitQueue  — simulated-futex park/wake: blocked threads park instead
//                of polling, and the state-changing side wakes them.
//   ParkAny    — multi-futex park: one coroutine parked on N WaitQueues at
//                once, resumed by the first wake on any of them (the sim
//                layer underneath squeue::Selector's wait-any).

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "sim/event_queue.hpp"

namespace vl::sim {

class WaitQueue;

/// Simulated futex: a FIFO queue of parked coroutines plus a wake epoch.
///
/// The epoch closes the classic lost-wakeup window. The parking side reads
/// `epoch()` *before* checking the guarded state; if a wake lands between
/// that check and the park, the epoch no longer matches and park() falls
/// straight through (a spurious wake the caller absorbs by re-checking its
/// condition — the standard futex contract):
///
///   for (;;) {
///     const auto gate = wq.epoch();
///     if (state_allows_progress()) break;
///     co_await wq.park(gate);     // or t.park(wq, gate) to also yield the
///   }                             //   core's run-queue residency
///
/// Wakes resume waiters through the EventQueue at the current tick, so
/// wake order is FIFO and fully deterministic. Parking itself costs zero
/// simulated time and zero events while blocked — the whole point: a
/// parked thread generates no O(pollers) retry traffic.
class WaitQueue {
 public:
  explicit WaitQueue(EventQueue& eq) : eq_(&eq) {}

  /// Shared state of one multi-queue park (see ParkAny below): the first
  /// queue to wake the group records itself as the winner; entries the
  /// group left on the *other* queues turn stale and are skipped (without
  /// consuming the wake) by wake_one/wake_all.
  struct WaitGroup {
    bool fired = false;
    std::size_t winner = 0;
  };

  std::uint64_t epoch() const { return epoch_; }
  std::size_t parked() const { return waiters_.size(); }
  std::uint64_t wakeups() const { return wakeups_; }

  /// Awaitable park. Suspends unless the epoch already moved past
  /// `expected` (i.e. a wake happened since the caller sampled it).
  auto park(std::uint64_t expected) {
    struct Awaiter {
      WaitQueue& w;
      std::uint64_t expected;
      bool await_ready() const noexcept { return w.epoch_ != expected; }
      void await_suspend(std::coroutine_handle<> h) {
        w.waiters_.push_back({h, nullptr, 0});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, expected};
  }

  /// Wake the oldest parked waiter (FIFO); always advances the epoch, so a
  /// wake with nobody parked is still observed by a concurrent parker.
  /// Stale multi-park entries (their group already fired via another
  /// queue) are discarded without consuming the wake.
  void wake_one() {
    ++epoch_;
    while (!waiters_.empty()) {
      const Waiter w = waiters_.front();
      waiters_.pop_front();
      if (w.group) {
        if (w.group->fired) continue;  // stale: woken through a sibling queue
        w.group->fired = true;
        w.group->winner = w.index;
      }
      ++wakeups_;
      const auto h = w.h;
      eq_->schedule_in(0, [h] { h.resume(); });
      return;
    }
  }

  /// Wake every parked waiter, in FIFO order.
  void wake_all() {
    ++epoch_;
    while (!waiters_.empty()) {
      const Waiter w = waiters_.front();
      waiters_.pop_front();
      if (w.group) {
        if (w.group->fired) continue;
        w.group->fired = true;
        w.group->winner = w.index;
      }
      ++wakeups_;
      const auto h = w.h;
      eq_->schedule_in(0, [h] { h.resume(); });
    }
  }

 private:
  friend class ParkAny;

  struct Waiter {
    std::coroutine_handle<> h;
    WaitGroup* group;   ///< nullptr for a plain single-queue park.
    std::size_t index;  ///< Caller-side endpoint index within the group.
  };

  void enroll(std::coroutine_handle<> h, WaitGroup* g, std::size_t index) {
    waiters_.push_back({h, g, index});
  }
  void remove_group(const WaitGroup* g) {
    for (auto it = waiters_.begin(); it != waiters_.end();) {
      it = it->group == g ? waiters_.erase(it) : it + 1;
    }
  }

  EventQueue* eq_;
  std::uint64_t epoch_ = 0;
  std::uint64_t wakeups_ = 0;
  std::deque<Waiter> waiters_;
};

/// Awaitable multi-futex park: enrolls one coroutine on every queue in
/// `wqs` and resumes on the first wake any of them delivers, returning the
/// index of the waking queue. Falls straight through (returning the lowest
/// mismatching index) if any queue's epoch already moved past its sampled
/// gate — the same lost-wakeup protocol as WaitQueue::park, per queue.
/// After resumption the group's leftover entries on the sibling queues are
/// removed, so no dangling waiter survives the co_await.
class ParkAny {
 public:
  ParkAny(std::span<WaitQueue* const> wqs, std::span<const std::uint64_t> gates)
      : wqs_(wqs), gates_(gates) {
    assert(wqs_.size() == gates_.size());
  }

  bool await_ready() noexcept {
    for (std::size_t i = 0; i < wqs_.size(); ++i) {
      if (wqs_[i]->epoch() != gates_[i]) {
        group_.fired = true;
        group_.winner = i;
        return true;
      }
    }
    return false;
  }
  void await_suspend(std::coroutine_handle<> h) {
    for (std::size_t i = 0; i < wqs_.size(); ++i)
      wqs_[i]->enroll(h, &group_, i);
  }
  std::size_t await_resume() noexcept {
    // The frame is still alive here (we sit inside the co_await), so the
    // sibling queues' stale entries can be unlinked safely.
    for (WaitQueue* wq : wqs_) wq->remove_group(&group_);
    return group_.winner;
  }

 private:
  std::span<WaitQueue* const> wqs_;
  std::span<const std::uint64_t> gates_;
  WaitQueue::WaitGroup group_;
};

/// FIFO credit gate: a counting wake channel for a resource that frees one
/// unit at a time but is consumed in runs (prodBuf slots vs batched line
/// bursts). release(n) adds credits; acquire(want) suspends until the
/// *front* waiter's want is covered, then debits and resumes it — strict
/// FIFO, so a large want accumulates credits while it waits and smaller
/// wants behind it cannot starve it. One wake then carries an n-slot
/// grant, where a plain futex would deliver n one-slot wakes.
///
/// Credits are wake *hints*, not hard resources: the protected state
/// (device buffer occupancy) is only discovered by the retried operation
/// itself. An acquirer whose retry still NACKs re-acquires; credits that
/// turn out stale (the slot was taken by a non-parked fast-path producer)
/// simply cost one spurious probe. Unlike the epoch futex there is no
/// lost-wake window to gate: credits released before the acquire persist
/// in the counter.
class CreditGate {
 public:
  explicit CreditGate(EventQueue& eq) : eq_(eq) {}

  /// Immediate acquisition when no queue exists and credits suffice.
  bool try_acquire(std::uint64_t want) {
    if (waiters_.empty() && credits_ >= want) {
      credits_ -= want;
      return true;
    }
    return false;
  }

  /// Awaitable FIFO acquisition of `want` credits (callers that must also
  /// donate core residency go through SimThread-level helpers and call
  /// try_acquire first).
  auto acquire(std::uint64_t want) {
    struct Awaiter {
      CreditGate& g;
      std::uint64_t want;
      bool await_ready() { return g.try_acquire(want); }
      void await_suspend(std::coroutine_handle<> h) {
        g.waiters_.push_back({h, want});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, want};
  }

  /// Add credits and grant the front of the queue as far as they reach.
  void release(std::uint64_t n = 1) {
    credits_ += n;
    while (!waiters_.empty() && credits_ >= waiters_.front().want) {
      const Waiter w = waiters_.front();
      waiters_.pop_front();
      credits_ -= w.want;
      ++grants_;
      eq_.schedule_in(0, [h = w.h] { h.resume(); });
    }
  }

  /// Resume every waiter without debiting credits — a broadcast "state
  /// changed, re-check" kick (the coupled-I/O idle path). Spurious wakes
  /// are absorbed by the callers' retry loops.
  void kick_all() {
    while (!waiters_.empty()) {
      const Waiter w = waiters_.front();
      waiters_.pop_front();
      ++grants_;
      eq_.schedule_in(0, [h = w.h] { h.resume(); });
    }
  }

  std::uint64_t credits() const { return credits_; }
  std::size_t parked() const { return waiters_.size(); }
  std::uint64_t grants() const { return grants_; }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    std::uint64_t want;
  };

  EventQueue& eq_;
  std::uint64_t credits_ = 0;
  std::uint64_t grants_ = 0;
  std::deque<Waiter> waiters_;
};

/// N-party reusable barrier. The last arriver releases everyone at the
/// same tick (wakeups are scheduled, not inline, so no waiter resumes
/// inside another's arrive()).
class Barrier {
 public:
  Barrier(EventQueue& eq, std::uint32_t parties)
      : eq_(eq), parties_(parties) {}

  /// Awaitable arrival: suspends unless this is the last party.
  auto arrive() {
    struct Awaiter {
      Barrier& b;
      bool await_ready() {
        if (b.waiting_.size() + 1 == b.parties_) {
          b.release_all();
          return true;  // last arriver passes straight through
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        b.waiting_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  std::uint32_t parties() const { return parties_; }
  std::uint64_t generations() const { return generations_; }

 private:
  void release_all() {
    ++generations_;
    auto batch = std::move(waiting_);
    waiting_.clear();
    for (auto h : batch) eq_.schedule_in(0, [h] { h.resume(); });
  }

  EventQueue& eq_;
  std::uint32_t parties_;
  std::vector<std::coroutine_handle<>> waiting_;
  std::uint64_t generations_ = 0;
};

}  // namespace vl::sim
