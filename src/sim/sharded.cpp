#include "sim/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "obs/tracer.hpp"

namespace vl::sim {

// ---------------------------------------------------------------------------
// Worker pool (threads_ > 1). Persistent threads, one generation counter per
// epoch: the coordinator publishes a horizon and a shard count, workers claim
// shards by stride (worker i steps shards i, i + N, ...) so the assignment is
// static — no work-stealing, no shared mutable state between shards inside an
// epoch, nothing for TSan to object to beyond the epoch hand-off itself.

struct ShardedSim::Pool {
  explicit Pool(ShardedSim& owner, int n) : sim(owner) {
    workers.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      workers.emplace_back([this, i] { worker(i); });
  }

  ~Pool() {
    {
      std::lock_guard lk(mu);
      stop = true;
      ++gen;
    }
    cv.notify_all();
    for (auto& t : workers) t.join();
  }

  /// Step every shard to `horizon` on the worker threads; blocks until all
  /// are done. Runs on the coordinator thread only.
  void step(Tick h) {
    {
      std::lock_guard lk(mu);
      horizon = h;
      remaining = static_cast<int>(workers.size());
      ++gen;
    }
    cv.notify_all();
    std::unique_lock lk(mu);
    done_cv.wait(lk, [this] { return remaining == 0; });
  }

  void worker(int index) {
    std::uint64_t seen = 0;
    for (;;) {
      Tick h;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return gen != seen; });
        seen = gen;
        if (stop) return;
        h = horizon;
      }
      const int n = static_cast<int>(workers.size());
      const int s = sim.shards();
      for (int sh = index; sh < s; sh += n) sim.shards_[sh].eq->run_until(h);
      {
        std::lock_guard lk(mu);
        if (--remaining == 0) done_cv.notify_one();
      }
    }
  }

  ShardedSim& sim;
  std::mutex mu;
  std::condition_variable cv, done_cv;
  std::vector<std::thread> workers;
  std::uint64_t gen = 0;
  Tick horizon = 0;
  int remaining = 0;
  bool stop = false;
};

// ---------------------------------------------------------------------------

ShardedSim::ShardedSim(Tick lookahead, int threads)
    : lookahead_(lookahead), threads_(threads < 1 ? 1 : threads) {}

ShardedSim::~ShardedSim() = default;

int ShardedSim::add_shard(EventQueue& eq) {
  const int id = shards();
  shards_.push_back(Shard{&eq, {}, 0});
  in_flight_.assign(shards_.size() * shards_.size(), 0);
  return id;
}

bool ShardedSim::can_post(int src, int dst) {
  // Partitioned link: refuse every post until the fault plane lifts the
  // flag at a later barrier. The sender rides its ordinary window backoff,
  // so a bounded partition delays traffic without losing any of it.
  if (any_link_fault_ &&
      link_down_[static_cast<std::size_t>(src) * shards_.size() + dst]) {
    ++shards_[static_cast<std::size_t>(src)].partition_stalls;
    return false;
  }
  if (link_window_ == 0) return true;
  const bool ok =
      in_flight_[static_cast<std::size_t>(src) * shards_.size() + dst] <
      link_window_;
  if (!ok) ++shards_[static_cast<std::size_t>(src)].window_stalls;
  return ok;
}

void ShardedSim::post(int src, int dst, EventFn deliver) {
  assert(lookahead_ != kNoLinks && "post() on a shard without links");
  Shard& s = shards_[static_cast<std::size_t>(src)];
  // Latency spike: extra >= 0 keeps arrival >= now + lookahead, so the
  // exchange's safe-horizon invariant holds unchanged.
  const Tick extra =
      any_link_fault_
          ? link_extra_[static_cast<std::size_t>(src) * shards_.size() + dst]
          : 0;
  s.outbox.push_back(OutMsg{s.eq->now() + lookahead_ + extra, s.next_seq++,
                            src, dst, std::move(deliver)});
  ++in_flight_[static_cast<std::size_t>(src) * shards_.size() + dst];
}

std::uint64_t ShardedSim::posts_pending() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.outbox.size();
  return n;
}

void ShardedSim::exchange() {
  // Gather every outbox, then impose the (arrival, src, seq) total order
  // before scheduling: destination queues see the posts in an order that is
  // independent of shard stepping order, which is what keeps the threaded
  // mode byte-identical to sequential round-robin.
  for (Shard& s : shards_) {
    for (OutMsg& m : s.outbox) ingress_.push_back(std::move(m));
    s.outbox.clear();
  }
  std::sort(ingress_.begin(), ingress_.end(),
            [](const OutMsg& a, const OutMsg& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (OutMsg& m : ingress_) {
    EventQueue& dq = *shards_[static_cast<std::size_t>(m.dst)].eq;
    // Safety of the horizon: arrival = src.now() + L >= t_min + L > H, and
    // every queue stands at exactly H after step_all, so this never
    // schedules into a destination's past.
    assert(m.arrival >= dq.now() && "lookahead violated");
    dq.schedule_at(m.arrival, std::move(m.fn));
  }
  stats_.messages += ingress_.size();
  ingress_.clear();
  std::fill(in_flight_.begin(), in_flight_.end(), 0);
}

void ShardedSim::step_all(Tick horizon) {
  if (threads_ > 1 && shards() > 1) {
    if (!pool_)
      pool_ = std::make_unique<Pool>(
          *this, std::min(threads_, shards()));
    pool_->step(horizon);
  } else if (horizon == kDrain) {
    for (Shard& s : shards_) s.eq->run();
  } else {
    for (Shard& s : shards_) s.eq->run_until(horizon);
  }
}

Tick ShardedSim::next_event_tick() const {
  Tick t_min = EventQueue::kNever;
  for (const Shard& s : shards_)
    t_min = std::min(t_min, s.eq->peek_next_tick());
  return t_min;
}

Tick ShardedSim::next_clock() const {
  Tick b = kDrain;
  for (const Clock& c : clocks_) b = std::min(b, c.next);
  return b;
}

void ShardedSim::run_clocks(Tick b, bool done) {
  for (Clock& c : clocks_) {
    if (c.next != b) continue;
    c.next += c.period;
    step_all(b);
    if (done && posts_pending() == 0 &&
        next_event_tick() == EventQueue::kNever)
      continue;  // finished: no clock runs after the queues drain
    c.fn(b);
  }
}

void ShardedSim::run(BarrierHook hook) {
  assert(shards() > 0 && "run() with no shards");
  assert((lookahead_ != kNoLinks || shards() == 1) &&
         "linked shards need a lookahead of at least one tick");
  for (;;) {
    exchange();
    const bool done = hook ? hook() : true;
    // Earliest pending event anywhere fixes the epoch's safe horizon.
    Tick t_min = next_event_tick();
    if (t_min == EventQueue::kNever) {
      // Nothing pending, nothing in flight (the exchange drained every
      // outbox): finished. A hook still reporting incomplete here is a
      // workload bug (it had its chance to schedule more events and didn't).
      assert(done && "queues drained with the hook reporting incomplete");
      break;
    }
    // Boundaries in the idle gap before the earliest event go first: a
    // clock may schedule work there, which moves the window's start.
    while (next_clock() < t_min) {
      run_clocks(next_clock(), done);
      t_min = next_event_tick();
    }
    const Tick horizon =
        lookahead_ == kNoLinks ? next_clock() : t_min + lookahead_ - 1;
    const std::uint32_t barrier_tid = 0;
    if (trace_)
      trace_->begin(t_min, barrier_tid, "shard", "epoch", "epoch",
                    stats_.epochs);
    // Boundaries inside the window split its stepping, never its exchange.
    while (!clocks_.empty() && next_clock() <= horizon)
      run_clocks(next_clock(), done);
    step_all(horizon);
    if (trace_) trace_->end(horizon, barrier_tid, "shard", "epoch");
    ++stats_.epochs;
  }
}

ShardedStats ShardedSim::stats() const {
  ShardedStats s = stats_;
  for (const Shard& sh : shards_) {
    s.window_stalls += sh.window_stalls;
    s.partition_stalls += sh.partition_stalls;
  }
  return s;
}

}  // namespace vl::sim
