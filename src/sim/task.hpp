#pragma once
// C++20 coroutine plumbing for simulated threads.
//
// Workload code is written as ordinary sequential coroutines:
//
//   vl::sim::Co<void> producer(SimThread& t, Channel& ch) {
//     for (int i = 0; i < 100; ++i) co_await ch.enqueue(t, i);
//   }
//
// `Co<T>` is a lazy, awaitable coroutine with symmetric transfer: awaiting
// a Co suspends the caller, runs the callee, and resumes the caller when
// the callee finishes — all without recursion on the host stack.
//
// `spawn()` turns a Co<void> into a root simulation thread that starts
// executing immediately (simulated time does not advance until it first
// suspends on an awaitable tied to the EventQueue).

#include <cassert>
#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/frame_cache.hpp"

namespace vl::sim {

template <class T>
class Co;

namespace detail {

struct FinalAwaiter {
  bool await_ready() noexcept { return false; }
  template <class P>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation;
  // Every frame comes from the calling thread's frame cache.
  static void* operator new(std::size_t n) { return FrameCache::take(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FrameCache::give(p, n);
  }
  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  // Simulation code must not leak exceptions across scheduling boundaries;
  // fail fast so bugs surface at the faulting tick.
  void unhandled_exception() noexcept { std::terminate(); }
};

}  // namespace detail

/// Lazy awaitable coroutine returning T.
template <class T>
class [[nodiscard]] Co {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Co get_return_object() {
      return Co{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Co() = default;
  Co(Co&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Co& operator=(Co&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() {
    if (h_) h_.destroy();
  }

  bool valid() const { return static_cast<bool>(h_); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        assert(h.promise().value.has_value());
        return std::move(*h.promise().value);
      }
    };
    return Awaiter{h_};
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

/// Void specialization.
template <>
class [[nodiscard]] Co<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Co get_return_object() {
      return Co{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };

  Co() = default;
  Co(Co&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Co& operator=(Co&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() {
    if (h_) h_.destroy();
  }

  bool valid() const { return static_cast<bool>(h_); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() noexcept {}
    };
    return Awaiter{h_};
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

/// Handle to a spawned root coroutine; lets harnesses poll for completion.
class Spawned {
 public:
  Spawned() : done_(std::make_shared<bool>(false)) {}
  bool done() const { return *done_; }
  std::shared_ptr<bool> flag() const { return done_; }

 private:
  std::shared_ptr<bool> done_;
};

namespace detail {
// Eager, self-destroying root coroutine that drives a Co<void> to completion.
struct RootTask {
  struct promise_type {
    RootTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

inline RootTask run_root(Co<void> co, std::shared_ptr<bool> done) {
  co_await std::move(co);
  *done = true;
}
}  // namespace detail

/// Start a simulated thread. The coroutine runs synchronously until its
/// first suspension; thereafter the EventQueue drives it.
inline Spawned spawn(Co<void> co) {
  Spawned s;
  detail::run_root(std::move(co), s.flag());
  return s;
}

/// Awaitable: advance simulated time by `delta` ticks.
class Delay {
 public:
  Delay(EventQueue& eq, Tick delta) : eq_(eq), delta_(delta) {}
  bool await_ready() const noexcept { return delta_ == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    eq_.schedule_in(delta_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  EventQueue& eq_;
  Tick delta_;
};

/// Awaitable: resume at absolute tick `when` (no-op if already past).
class DelayUntil {
 public:
  DelayUntil(EventQueue& eq, Tick when) : eq_(eq), when_(when) {}
  bool await_ready() const noexcept { return when_ <= eq_.now(); }
  void await_suspend(std::coroutine_handle<> h) {
    eq_.schedule_at(when_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  EventQueue& eq_;
  Tick when_;
};

}  // namespace vl::sim
