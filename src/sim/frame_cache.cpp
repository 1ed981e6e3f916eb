#include "sim/frame_cache.hpp"

namespace vl::sim::detail {

// Constructed on a thread's first cached block; its destructor runs at
// that thread's exit and returns every cached block to the heap.
struct FrameCacheExit {
  FrameCacheExit() { FrameCache::t_.state = FrameCache::kOpen; }
  ~FrameCacheExit() { FrameCache::drain(); }
};

namespace {
thread_local FrameCacheExit t_exit;
}  // namespace

void FrameCache::give_slow(void* p, std::size_t c) noexcept {
  if (t_.state == kUnarmed) static_cast<void>(&t_exit);
  if (t_.state == kClosed) return ::operator delete(p, bytes(c));
  give(p, bytes(c));
}

void FrameCache::drain() noexcept {
  t_.state = kClosed;
  for (std::size_t c = 0; c < kClasses; ++c) {
    while (void* p = t_.head[c]) {
      ASAN_UNPOISON_MEMORY_REGION(p, bytes(c));
      t_.head[c] = *static_cast<void**>(p);
      ::operator delete(p, bytes(c));
    }
  }
}

}  // namespace vl::sim::detail
