#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace vl::sim {

EventQueue::EventQueue() : ring_(kRingSize) {}

EventQueue::Node* EventQueue::refill() {
  assert(!free_);
  Node* chunk =
      chunks_.emplace_back(std::make_unique<Node[]>(kChunkNodes)).get();
  for (std::size_t i = 0; i + 1 < kChunkNodes; ++i)
    chunk[i].next = &chunk[i + 1];
  free_ = chunk;
  return free_;
}

void EventQueue::push_far(Node* n) {
  far_.push_back(n);
  std::push_heap(far_.begin(), far_.end(), FarAfter{});
}

Tick EventQueue::next_ring_tick() const {
  const std::size_t start = now_ & kRingMask;
  // Ring order starting at `start` and wrapping equals tick order, because
  // only ticks in [now, now + kRingSize) can be resident.
  const std::size_t start_word = start >> 6;
  constexpr std::size_t kWords = kRingSize / 64;
  for (std::size_t w = 0; w <= kWords; ++w) {
    const std::size_t word = (start_word + w) % kWords;
    std::uint64_t bits = bits_[word];
    if (w == 0) bits &= ~std::uint64_t{0} << (start & 63);  // at/after start
    if (w == kWords) bits &= (std::uint64_t{1} << (start & 63)) - 1;  // wrapped
    if (!bits) continue;
    const std::size_t idx =
        (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    return now_ + ((idx - start) & kRingMask);
  }
  return kNever;
}

void EventQueue::migrate_far(Tick t) {
  if (far_.empty() || far_.front()->when != t) return;
  Bucket& b = ring_[t & kRingMask];
  // Heap pops come out seq-ascending, as does the bucket: insert each
  // popped node after the bucket nodes that precede it, preserving global
  // FIFO-per-tick order.
  Node** link = &b.head;
  Node* n = nullptr;
  while (!far_.empty() && far_.front()->when == t) {
    std::pop_heap(far_.begin(), far_.end(), FarAfter{});
    n = far_.back();
    far_.pop_back();
    while (*link && (*link)->seq < n->seq) link = &(*link)->next;
    n->next = *link;
    *link = n;
    link = &n->next;
  }
  if (!n->next) b.tail = n;
  set_bit(t & kRingMask);
}

Tick EventQueue::peek_next_tick() const {
  if (ring_[now_ & kRingMask].head) return now_;
  const Tick ring_next = next_ring_tick();
  // kNever exceeds every real tick, so an empty ring loses to the heap.
  if (!far_.empty() && far_.front()->when < ring_next)
    return far_.front()->when;
  return ring_next;
}

void EventQueue::fire(Tick t) {
  if (t != now_) {
    now_ = t;
    migrate_far(t);
  }
  Bucket& b = ring_[t & kRingMask];
  Node* n = b.head;
  assert(n);
  b.head = n->next;
  if (!b.head) {
    b.tail = nullptr;
    clear_bit(t & kRingMask);
  }
  --size_;
  ++executed_;
  last_fired_ = t;
  // Return the node to the pool even if the callable throws. The node is
  // off the bucket, so anything the callable schedules (its own tick
  // included) lands in other nodes.
  struct Recycle {
    EventQueue& q;
    Node* n;
    ~Recycle() {
      n->fn.reset();
      n->next = q.free_;
      q.free_ = n;
    }
  } recycle{*this, n};
  n->fn();
}

bool EventQueue::step() {
  const Tick t = peek_next_tick();
  if (t == kNever) return false;
  fire(t);
  return true;
}

std::uint64_t EventQueue::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

void EventQueue::run_until(Tick t) {
  for (;;) {
    const Tick next = peek_next_tick();
    // kNever first: run_until(kNever) must still stop once drained.
    if (next == kNever || next > t) break;
    fire(next);
  }
  if (now_ < t) now_ = t;
}

}  // namespace vl::sim
