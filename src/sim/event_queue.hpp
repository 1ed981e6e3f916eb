#pragma once
// Discrete-event simulation kernel.
//
// A single EventQueue provides the global simulated timeline. Events are
// (tick, sequence) ordered, so two events scheduled for the same tick fire
// in scheduling order — this makes every simulation run fully deterministic.
//
// The implementation is allocation-light:
//
//   * EventFn is a move-only callable with a 96-byte small-buffer: every
//     callback the simulator schedules (coroutine resumes, memory-commit
//     lambdas, device completions) fits inline, so the steady-state event
//     loop performs no heap allocation per event. Oversized callables fall
//     back to the heap transparently.
//   * Each event lives in a pooled node {next, seq, when, EventFn}. The
//     queue owns its pool (a free list refilled in fixed chunks), so every
//     shard of a ShardedSim has its own arena and stepping threads share
//     nothing. schedule_at builds the callable directly in its node, and
//     firing invokes it in place before the node returns to the free list:
//     a callable is constructed once and never relocated.
//   * Near-future events (the overwhelming majority: issue costs, cache
//     latencies, backoffs, context switches) land in a calendar ring of
//     per-tick buckets covering [now, now + 8192); a bucket is a
//     seq-ascending FIFO list of nodes. Scheduling and firing are O(1); a
//     one-level occupancy bitmap (128 words, scanned with countr_zero)
//     finds the next non-empty tick.
//   * Events beyond the ring horizon sit in a small binary min-heap of
//     nodes and are merged (by sequence number, preserving global
//     FIFO-per-tick order) into their bucket when the clock reaches them.

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace vl::obs {
class TraceBuffer;
}

namespace vl::sim {

/// Move-only, fire-once callable with small-buffer storage sized for the
/// simulator's hottest capture set (a MemRequest + completion functor).
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 96;

  EventFn() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                 std::is_invocable_v<D&>,
                             int> = 0>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  EventFn(EventFn&& o) noexcept { steal(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  void operator()() {
    assert(vt_ && "invoking an empty EventFn");
    vt_->invoke(buf_);
  }

  /// Build `f` in this (empty) EventFn's storage. An EventFn argument is
  /// moved in rather than wrapped.
  template <class F, class D = std::decay_t<F>>
  void emplace(F&& f) {
    static_assert(std::is_same_v<D, EventFn> || std::is_invocable_v<D&>,
                  "an event must be callable with no arguments");
    assert(!vt_ && "emplace into a non-empty EventFn");
    if constexpr (std::is_same_v<D, EventFn>) {
      static_assert(!std::is_lvalue_reference_v<F>, "move the EventFn in");
      steal(f);
    } else if constexpr (sizeof(D) <= kInlineSize &&
                         alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &kInlineVt<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      vt_ = &kHeapVt<D>;
    }
  }

  /// Destroy the held callable (if any), leaving this EventFn empty.
  void reset() noexcept {
    if (vt_) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-construct the payload into `to` and destroy it in `from`.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void*);
  };

  template <class D>
  inline static const VTable kInlineVt{
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* from, void* to) {
        D* f = static_cast<D*>(from);
        ::new (to) D(std::move(*f));
        f->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };

  template <class D>
  inline static const VTable kHeapVt{
      [](void* p) { (**static_cast<D**>(p))(); },
      [](void* from, void* to) {
        ::new (to) D*(*static_cast<D**>(from));
      },
      [](void* p) { delete *static_cast<D**>(p); },
  };

  void steal(EventFn& o) noexcept {
    if (o.vt_) {
      o.vt_->relocate(o.buf_, buf_);
      vt_ = std::exchange(o.vt_, nullptr);
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

class EventQueue {
 public:
  /// peek_next_tick() of an empty queue: a tick no event can hold.
  static constexpr Tick kNever = ~Tick{0};

  EventQueue();
  // Nodes point into the queue's own pool, so a queue never moves.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Tick now() const { return now_; }

  /// Schedule callable `f` at absolute tick `when` (must be >= now()). The
  /// callable is constructed directly in a pooled node.
  template <class F>
  void schedule_at(Tick when, F&& f) {
    assert(when >= now_ && "cannot schedule into the past");
    // Build in the free list's head before unlinking it, so a throwing
    // constructor leaves the pool intact.
    Node* n = free_ ? free_ : refill();
    n->fn.emplace(std::forward<F>(f));
    free_ = n->next;
    n->seq = seq_++;
    n->when = when;
    ++size_;
    if (when - now_ < kRingSize)
      append(ring_[when & kRingMask], n);
    else
      push_far(n);
  }

  /// Schedule `f` `delta` ticks from now.
  template <class F>
  void schedule_in(Tick delta, F&& f) {
    schedule_at(now_ + delta, std::forward<F>(f));
  }

  /// Run one event; returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `limit` events have fired.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);

  /// Fire every event at or before `t`, then leave now() at `t` — past the
  /// last event if the queue drained first (last_fired() stays on it).
  void run_until(Tick t);

  bool empty() const { return size_ == 0; }
  std::size_t pending() const { return size_; }

  /// Earliest tick (>= now()) holding a pending event, or kNever when the
  /// queue is empty. Fires nothing. A plain Tick rather than an optional:
  /// the optional's value and engaged flag are stored separately and
  /// reloaded as one wide load, which stalls store forwarding on every
  /// fired event.
  Tick peek_next_tick() const;

  /// Total events executed over the queue's lifetime (throughput metric).
  std::uint64_t executed() const { return executed_; }
  /// Tick of the most recently fired event (0 before the first).
  Tick last_fired() const { return last_fired_; }

#ifndef VL_OBS_NO_TRACE
  /// Trace sink for everything running on this queue's timeline (SimThread
  /// parks, channel bursts, VLRD pipeline). Null unless tracing was
  /// requested; hooks test the pointer and skip. With -DVL_OBS_NO_TRACE=ON
  /// trace() is constexpr nullptr and every hook compiles away.
  obs::TraceBuffer* trace() const { return trace_; }
  void set_trace(obs::TraceBuffer* tb) { trace_ = tb; }
#else
  static constexpr obs::TraceBuffer* trace() { return nullptr; }
  static constexpr void set_trace(obs::TraceBuffer*) {}
#endif

 private:
  // Calendar ring: one bucket per tick over [now, now + kRingSize).
  static constexpr std::size_t kRingBits = 13;
  static constexpr std::size_t kRingSize = std::size_t{1} << kRingBits;
  static constexpr std::size_t kRingMask = kRingSize - 1;
  // Nodes added to the pool each time its free list runs dry.
  static constexpr std::size_t kChunkNodes = 256;

  struct Node {
    Node* next = nullptr;  // bucket FIFO or free list
    std::uint64_t seq = 0;
    Tick when = 0;
    EventFn fn;  // empty while the node is free
  };
  struct Bucket {  // seq-ascending FIFO; head == nullptr when empty
    Node* head = nullptr;
    Node* tail = nullptr;
  };
  struct FarAfter {  // min-heap ordering on (when, seq)
    bool operator()(const Node* a, const Node* b) const {
      return a->when != b->when ? a->when > b->when : a->seq > b->seq;
    }
  };

  void set_bit(std::size_t i) { bits_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void clear_bit(std::size_t i) {
    bits_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  void append(Bucket& b, Node* n) {
    n->next = nullptr;
    if (b.tail)
      b.tail->next = n;
    else
      b.head = n;
    b.tail = n;
    set_bit(n->when & kRingMask);
  }

  /// Add a chunk of nodes to the free list and return its head.
  Node* refill();
  void push_far(Node* n);
  /// Bitmap scan for the earliest occupied ring tick at or after now_;
  /// kNever when the ring is empty.
  Tick next_ring_tick() const;
  /// Merge far-heap events due at tick `t` into its bucket, by seq.
  void migrate_far(Tick t);
  /// Advance to tick `t` (the next event tick) and fire its head event.
  void fire(Tick t);

  Tick now_ = 0;
  Tick last_fired_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Bucket> ring_;
  std::array<std::uint64_t, kRingSize / 64> bits_{};
  std::vector<Node*> far_;  // binary heap under FarAfter
  Node* free_ = nullptr;
  // Node storage; destroying a chunk resets any callable still pending.
  std::vector<std::unique_ptr<Node[]>> chunks_;
#ifndef VL_OBS_NO_TRACE
  obs::TraceBuffer* trace_ = nullptr;
#endif
};

}  // namespace vl::sim
