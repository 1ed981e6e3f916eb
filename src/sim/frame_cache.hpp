#pragma once
// Per-thread size-class cache of coroutine-frame blocks: the allocator
// behind every `Co<T>` frame (src/sim/README.md, "Frame allocation").
//
// A frame of up to kMaxBytes is served from one free list per kGranule
// size class of the calling thread. Every cached block is an ordinary
// `::operator new` allocation of its class size, so a frame created on one
// thread may be freed into another thread's cache, and each thread hands
// its cached blocks back to the heap when it exits. Larger frames go
// straight to the global operator new/delete.

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <new>

namespace vl::sim::detail {

class FrameCache {
 public:
  static constexpr std::size_t kGranule = 64;     ///< Size-class width.
  static constexpr std::size_t kMaxBytes = 1024;  ///< Larger: not cached.

  static void* take(std::size_t n) {
    if (n > kMaxBytes) return ::operator new(n);
    const std::size_t c = class_of(n);
    if (void* p = t_.head[c]) {
      ASAN_UNPOISON_MEMORY_REGION(p, bytes(c));
      t_.head[c] = *static_cast<void**>(p);
      return p;
    }
    return ::operator new(bytes(c));
  }

  static void give(void* p, std::size_t n) noexcept {
    if (n > kMaxBytes) return ::operator delete(p, n);
    const std::size_t c = class_of(n);
    if (t_.state != kOpen) return give_slow(p, c);
    *static_cast<void**>(p) = t_.head[c];
    t_.head[c] = p;
    // A cached block is poisoned, so a use after the frame's destruction
    // is still reported under ASan (the macro is empty otherwise).
    ASAN_POISON_MEMORY_REGION(p, bytes(c));
  }

 private:
  friend struct FrameCacheExit;

  /// kUnarmed until the thread's first cached block registers the exit
  /// drain; kClosed once the drain ran (later frees go to the heap).
  enum State : unsigned char { kUnarmed, kOpen, kClosed };
  static constexpr std::size_t kClasses = kMaxBytes / kGranule;

  // Trivially destructible, so it stays usable after the drain ran: the
  // main thread's thread_local destructors run before static destructors.
  struct Lists {
    void* head[kClasses];
    State state;
  };

  static std::size_t class_of(std::size_t n) { return (n - 1) / kGranule; }
  static std::size_t bytes(std::size_t c) { return (c + 1) * kGranule; }

  static void give_slow(void* p, std::size_t c) noexcept;
  static void drain() noexcept;

  static inline constinit thread_local Lists t_{};
};

}  // namespace vl::sim::detail
