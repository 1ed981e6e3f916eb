#pragma once
// FIFO-fair awaitable mutex used to serialize a core's issue port among the
// software threads scheduled on it.

#include <coroutine>
#include <deque>

#include "sim/event_queue.hpp"

namespace vl::sim {

class AsyncMutex {
 public:
  explicit AsyncMutex(EventQueue& eq) : eq_(eq) {}

  auto lock() {
    struct Awaiter {
      AsyncMutex& m;
      bool await_ready() {
        if (!m.locked_) {
          m.locked_ = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { m.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Ownership transfers directly to the oldest waiter, if any.
  void unlock() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      eq_.schedule_in(0, [h] { h.resume(); });
    } else {
      locked_ = false;
    }
  }

  bool locked() const { return locked_; }

 private:
  EventQueue& eq_;
  bool locked_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace vl::sim
