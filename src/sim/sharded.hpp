#pragma once
// Conservative-lookahead sharded simulation (the classic Chandy–Misra /
// null-message discipline, specialised to a fixed link-latency mesh).
//
// A ShardedSim advances S independent EventQueues — one per modelled node
// ("shard") — in lockstep epochs. The only cross-shard interaction is a
// message over an inter-shard link with a fixed hop latency L >= the
// configured lookahead, so an event at tick t on one shard can influence
// another no earlier than t + L. That bound is the safe horizon: if the
// earliest pending event anywhere sits at tick t_min, every shard may run
// independently up to
//
//     H = t_min + L - 1
//
// without ever receiving an event from a peer inside the window — anything
// a peer sends during the epoch arrives at >= t_min + L > H. At the epoch
// barrier the coordinator collects every shard's outbox, sorts the posts
// by (arrival tick, source shard, source sequence) — a total order that
// does not depend on which shard stepped first — and schedules them into
// the destination queues. Per-shard (tick, seq) event order is therefore a
// pure function of the seed: byte-identical across runs and across the
// sequential / threaded stepping modes.
//
// Stepping is sequential round-robin by default (deterministic, no host
// threads — works on a 1-CPU container). With threads > 1 the epoch's
// run_until() calls are spread over a persistent worker pool; shards share
// no mutable state inside an epoch (outboxes are per-source, ingress
// happens only at the single-threaded barrier), so the threaded mode
// produces exactly the sequential result, just faster on real cores.
//
// Idle windows cost nothing: the horizon chases the earliest pending event
// (run_until() fast-forwards now_ over gaps), so a diurnal trough advances
// in one epoch instead of thousands of empty ones.
//
// A lone shard (kNoLinks) runs each epoch to its next clock boundary or to
// the drain. Epoch clocks (add_clock) split a window's stepping, never its
// exchange; src/sim/README.md states their contract.
//
// Links apply back-pressure through a bounded in-flight window: can_post()
// refuses once `link_window` posts from src->dst accumulate in the current
// epoch, and the sender retries after a backoff (its shard keeps running).
// The barrier drains every outbox, so the window resets per epoch —
// in-flight here means "posted but not yet exchanged".

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace vl::sim {

struct ShardedStats {
  std::uint64_t epochs = 0;         ///< Lookahead windows executed.
  std::uint64_t messages = 0;       ///< Cross-shard posts exchanged.
  std::uint64_t window_stalls = 0;  ///< can_post() refusals (window full).
  std::uint64_t partition_stalls = 0;  ///< can_post() refusals (link down).
};

class ShardedSim {
 public:
  static constexpr Tick kNoLinks = 0;  ///< A lone shard: no post possible.
  /// `lookahead` (>= 1, or kNoLinks) is the inter-shard link latency in
  /// ticks: both the hop delay every post pays and the safe horizon shards
  /// run ahead. `threads` > 1 steps each epoch's shards on that many threads.
  explicit ShardedSim(Tick lookahead, int threads = 1);
  ~ShardedSim();

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  /// Register a shard's queue (before run()); returns its shard id.
  int add_shard(EventQueue& eq);

  int shards() const { return static_cast<int>(shards_.size()); }
  /// Register an epoch clock (before run()): `fn(B)` runs at every
  /// B = k * period, k >= 1, once every shard has fired all its events <= B
  /// and stands at B, while the run is unfinished (src/sim/README.md).
  void add_clock(Tick period, std::function<void(Tick)> fn) {
    assert(period > 0 && "a clock needs a period");
    clocks_.push_back(Clock{period, period, std::move(fn)});
  }

  /// Bound on posts per (src, dst) link per epoch; 0 = unbounded.
  void set_link_window(std::uint32_t w) { link_window_ = w; }

  /// Fault plane: per-link state, mutable ONLY at the barrier (from the
  /// BarrierHook, single-threaded, all shards time-aligned) so an epoch
  /// sees one immutable link table — that is what keeps fault-injected
  /// runs byte-identical between sequential and threaded stepping.
  ///
  /// `extra` adds hop latency on top of the lookahead (a latency spike:
  /// arrival = now + lookahead + extra, which still satisfies the safe
  /// horizon since extra >= 0). `down` makes can_post() refuse every post
  /// on the link (a bounded partition: senders ride their normal window
  /// backoff until the fault plane lifts the flag at a later barrier).
  void set_link_fault(int src, int dst, Tick extra, bool down) {
    const std::size_t i =
        static_cast<std::size_t>(src) * shards_.size() + static_cast<std::size_t>(dst);
    if (link_extra_.size() != shards_.size() * shards_.size()) {
      link_extra_.assign(shards_.size() * shards_.size(), 0);
      link_down_.assign(shards_.size() * shards_.size(), 0);
    }
    link_extra_[i] = extra;
    link_down_[i] = down ? 1 : 0;
    any_link_fault_ = false;
    for (std::size_t k = 0; k < link_extra_.size(); ++k)
      if (link_extra_[k] != 0 || link_down_[k] != 0) any_link_fault_ = true;
  }

  /// Room on the src->dst link? Senders must check before post() and back
  /// off locally when refused (the refusal is counted in stats).
  bool can_post(int src, int dst);

  /// Cross-shard message: `deliver` runs in dst's queue at
  /// src.now() + lookahead. Only call from code executing on shard `src`
  /// (its outbox is single-writer by construction).
  void post(int src, int dst, EventFn deliver);

  /// Posts sitting in outboxes right now (not yet exchanged).
  std::uint64_t posts_pending() const;

  /// Called at every barrier, after the exchange, with all shards aligned
  /// at the epoch boundary. Return true once the workload is complete;
  /// run() then exits as soon as every queue has drained. The hook may
  /// schedule events (e.g. termination pills) — scheduling keeps run()
  /// going regardless of the returned flag.
  using BarrierHook = std::function<bool()>;

  /// Drive all shards until every queue drains and the hook (if any) has
  /// declared the workload complete.
  void run(BarrierHook hook = {});

  /// Aggregate counters (window stalls are kept per-shard so threaded
  /// stepping races on nothing; summed here).
  ShardedStats stats() const;
  /// One shard's can_post() refusal count (per-link timeline series).
  std::uint64_t shard_window_stalls(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].window_stalls;
  }
  /// One shard's partition refusals (fault plane, per-shard series).
  std::uint64_t shard_partition_stalls(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].partition_stalls;
  }

  /// Trace sink for barrier epochs (pid = shards(), the synthetic barrier
  /// process): one B/E span per lookahead window, [t_min, horizon]. Written
  /// only on the coordinator thread between epochs.
  void set_trace(obs::TraceBuffer* tb) { trace_ = tb; }
  obs::TraceBuffer* trace() const { return trace_; }

 private:
  struct OutMsg {
    Tick arrival;
    std::uint64_t seq;  ///< Per-source post counter (exchange tie-break).
    int src, dst;
    EventFn fn;
  };
  struct Shard {
    EventQueue* eq = nullptr;
    std::vector<OutMsg> outbox;      ///< Single-writer: only shard code posts.
    std::uint64_t next_seq = 0;
    std::uint64_t window_stalls = 0;
    std::uint64_t partition_stalls = 0;  ///< Refusals on a down link.
  };
  struct Clock {
    Tick period, next;  ///< `next`: the boundary it runs at next.
    std::function<void(Tick)> fn;
  };
  struct Pool;  // persistent worker threads for threads_ > 1
  /// Horizon of a lone shard with no clock: drain, now() on the last event.
  static constexpr Tick kDrain = EventQueue::kNever;

  void exchange();
  void step_all(Tick horizon);
  Tick next_event_tick() const;  ///< Over every shard; kNever when drained.
  Tick next_clock() const;  ///< Earliest boundary; kDrain with no clock.
  /// Step to `b` and run each clock due there, unless the run has finished.
  void run_clocks(Tick b, bool done);

  Tick lookahead_;
  int threads_;
  std::uint32_t link_window_ = 0;
  std::vector<Shard> shards_;
  std::vector<Clock> clocks_;
  std::vector<OutMsg> ingress_;  ///< exchange()'s gather buffer, reused.
  std::vector<std::uint32_t> in_flight_;  ///< S*S per-epoch link counters.
  // Per-link fault table (S*S), written only at the barrier, read by shard
  // code during the epoch — immutable within any epoch by contract.
  std::vector<Tick> link_extra_;
  std::vector<std::uint8_t> link_down_;
  bool any_link_fault_ = false;  ///< Fast path: skip lookups when clean.
  ShardedStats stats_;
  std::unique_ptr<Pool> pool_;
  obs::TraceBuffer* trace_ = nullptr;
};

}  // namespace vl::sim
