#include "traffic/sharded_engine.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "fault/plane.hpp"
#include "runtime/qos_supervisor.hpp"
#include "sim/sharded.hpp"
#include "sim/task.hpp"
#include "traffic/shard_router.hpp"
#include "traffic/wire.hpp"

namespace vl::traffic {

namespace {

using squeue::Channel;
using squeue::Msg;
using sim::Co;
using sim::SimThread;
using wire::kPillTenant;
using wire::kTickMask;

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr Tick kWindowBackoff = 32;  ///< Retry gap when a link is full.
constexpr std::uint64_t kRebalancePeriod = 64;  ///< Barriers between checks.

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A message in flight on an inter-shard link, bound for channel `ch` of
/// the destination shard.
struct InMsg {
  Msg msg;
  int ch;
};

struct ShardCtx {
  int id = 0;
  std::unique_ptr<runtime::Machine> m;
  std::unique_ptr<squeue::ChannelFactory> f;
  std::vector<std::unique_ptr<Channel>> channels;

  /// Link landing zone: cross-shard deliveries append here (on this
  /// shard's event queue) and the relay thread injects them into channels.
  std::deque<InMsg> ingress;
  std::unique_ptr<sim::WaitQueue> ingress_wq;
  bool stop = false;  ///< All producers (mesh-wide) done; relay may poison.

  int producers_remaining = 0;
  std::vector<bool> chan_done;  ///< Channel's worker reached its target.

  /// One per spec tenant (class). The stamp's tenant byte is the class
  /// index: logical tenants are a population of ids, so metrics aggregate
  /// per service class rather than per id.
  std::vector<TenantMetrics> classes;
  std::uint64_t digest = kFnvBasis;  ///< (tick, stamp) event-stream fold.
  std::uint64_t cross_in = 0;        ///< Messages that arrived over links.
  std::uint64_t delivered = 0;

  /// Payload messages fed into each channel (local producer flushes +
  /// relay injections). Final before the relay poisons, so each pill can
  /// carry its channel's exact drain target.
  std::vector<std::uint64_t> chan_sent;
};

struct Mesh {
  const ScenarioSpec& spec;
  squeue::Backend backend;
  std::uint64_t population;
  sim::ShardedSim& ssim;
  ShardRouter& router;
  std::vector<std::unique_ptr<ShardCtx>>& shards;

  /// Fault plane (null on clean runs); `chan_faults` pre-gates the
  /// per-message loss/dup hook to software backends.
  fault::FaultPlane* fp = nullptr;
  bool chan_faults = false;

  /// Send-boundary trace tap (null unless recording). Per-gpid streams are
  /// preallocated by begin(), so threaded shards appending to their own
  /// producers' streams never race.
  replay::TraceRecorder* rec = nullptr;
};

/// One producer thread on shard `home`, live or replaying. Each message
/// has a logical destination tenant — drawn from the population, or the
/// recorded one — and the router decides which shard (and the tenant hash
/// which channel) serves it, so a replay under a different shard count or
/// with rebalancing still delivers the same per-class message set. Local
/// messages accumulate into per-channel sub-batches flushed at lap end;
/// remote messages post onto the inter-shard link as they are generated
/// (the destination relay does the batched injection). A replayed stream
/// is post-shed, so fault loss/dup, gap scaling and produce_compute are
/// switched off here, once.
Co<void> producer(Mesh& mesh, ShardCtx& cx, SimThread t, int cls, int gpid,
                  wire::MessageSource src) {
  const TenantSpec& ts = mesh.spec.tenants[static_cast<std::size_t>(cls)];
  const bool live = src.live();
  fault::FaultPlane* fp = live ? mesh.fp : nullptr;
  const bool chan_faults = live && mesh.chan_faults;
  const Tick compute = live ? mesh.spec.produce_compute : 0;
  auto& eq = cx.m->eq();
  auto& tm = cx.classes[static_cast<std::size_t>(cls)];
  const std::uint64_t batch = std::max<std::uint32_t>(ts.batch, 1);
  const std::uint64_t target = src.budget();
  const int home = cx.id;

  std::vector<std::vector<Msg>> sub(cx.channels.size());
  for (std::uint64_t i = 0; i < target;) {
    // One lap: accumulate up to `batch` messages, each paced by the
    // source and routed individually — local ones into per-channel
    // sub-batches, remote ones straight onto their link.
    for (std::uint64_t b = 0; b < batch && i < target; ++b, ++i) {
      Tick gap = src.next_gap(eq.now());
      if (fp) gap = fp->scale_gap(home, ts.qos, eq.now(), gap);
      if (gap) co_await sim::Delay(eq, gap);
      if (compute) co_await t.compute(compute);

      ++tm.generated;
      // Channel-level fault fate, decided before the message joins a
      // sub-batch or a link — what was dropped is never counted as sent,
      // so the pill drain counts stay exact. A lost message draws no
      // destination.
      int copies = 1;
      if (chan_faults) {
        copies = fp->chan_copies(home, eq.now());
        if (copies == 0) {
          ++tm.dropped;
          continue;
        }
      }
      const wire::MessageSource::Draw draw = src.take(mesh.population);
      const int dst = mesh.router.shard_for(draw.dst);
      const int nch_dst =
          static_cast<int>(mesh.shards[static_cast<std::size_t>(dst)]
                               ->channels.size());
      const int ch = static_cast<int>(ShardRouter::hash(draw.dst) %
                                      static_cast<std::uint64_t>(nch_dst));
      const Msg msg = wire::make_msg(draw, cls, gpid, eq.now(), i);
      if (mesh.rec)
        for (int k = 0; k < copies; ++k)
          mesh.rec->on_send(static_cast<std::uint16_t>(gpid),
                            static_cast<std::uint16_t>(cls), msg.qos, msg.n,
                            draw.dst, eq.now());

      if (dst == home) {
        for (int k = 0; k < copies; ++k)
          sub[static_cast<std::size_t>(ch)].push_back(msg);
        continue;
      }
      // Remote: respect the link's in-flight window, then hand the
      // message to the destination's ingress at now + link latency.
      for (int k = 0; k < copies; ++k) {
        while (!mesh.ssim.can_post(home, dst)) {
          co_await sim::Delay(eq, kWindowBackoff);
          tm.blocked_ticks += kWindowBackoff;
        }
        ShardCtx* d = mesh.shards[static_cast<std::size_t>(dst)].get();
        mesh.ssim.post(home, dst, [d, msg, ch] {
          d->digest = fnv1a(d->digest, d->m->now());
          d->digest = fnv1a(d->digest, msg.w[0]);
          ++d->cross_in;
          d->ingress.push_back(InMsg{msg, ch});
          d->ingress_wq->wake_one();
        });
        ++tm.sent;
      }
    }
    // Flush the lap's local sub-batches, ascending channel order.
    for (std::size_t c = 0; c < sub.size(); ++c) {
      if (sub[c].empty()) continue;
      const Tick send_start = eq.now();
      co_await cx.channels[c]->send_many(t, sub[c]);
      tm.blocked_ticks += eq.now() - send_start;
      tm.sent += sub[c].size();
      cx.chan_sent[c] += sub[c].size();
      sub[c].clear();
    }
  }
  --cx.producers_remaining;  // the barrier hook polls this
}

/// Per-shard link relay: drains the ingress deque into per-channel
/// sub-batches and injects them with one send_many per channel. Once the
/// stop flag is up (all producers mesh-wide finished — every delivery is
/// already scheduled, and same-tick events fire in schedule order, so the
/// flag can never overtake payload) and the ingress is dry, it poisons
/// each channel's sole worker.
Co<void> relay(ShardCtx& cx, SimThread t) {
  std::vector<std::vector<Msg>> sub(cx.channels.size());
  for (;;) {
    const auto gate = cx.ingress_wq->epoch();
    if (cx.ingress.empty()) {
      if (cx.stop) break;
      co_await t.park(*cx.ingress_wq, gate);
      continue;
    }
    while (!cx.ingress.empty()) {
      const InMsg& im = cx.ingress.front();
      sub[static_cast<std::size_t>(im.ch)].push_back(im.msg);
      cx.ingress.pop_front();
    }
    for (std::size_t c = 0; c < sub.size(); ++c) {
      if (sub[c].empty()) continue;
      co_await cx.channels[c]->send_many(t, sub[c]);
      cx.chan_sent[c] += sub[c].size();
      sub[c].clear();
    }
  }
  for (std::size_t c = 0; c < cx.channels.size(); ++c)
    co_await cx.channels[c]->send(t, wire::make_pill(cx.chan_sent[c]));
}

/// Sole consumer of one channel: batched opportunistic drain, per-class
/// delivery accounting, digest fold per delivery.
Co<void> worker(Mesh& mesh, ShardCtx& cx, SimThread t, int ci) {
  Channel& ch = *cx.channels[static_cast<std::size_t>(ci)];
  auto& eq = cx.m->eq();
  constexpr std::size_t kWindow = 8;
  std::vector<Msg> drained(kWindow);
  std::uint64_t expected = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t received = 0;

  while (received < expected) {
    const std::size_t got =
        co_await ch.recv_many(t, std::span<Msg>(drained.data(), kWindow), 1);
    for (std::size_t k = 0; k < got; ++k) {
      const Msg& msg = drained[k];
      const std::uint64_t cls = msg.w[0] >> 56;
      if (cls == kPillTenant) {
        expected = msg.w[0] & kTickMask;  // drain target; keep going
        continue;
      }
      if (mesh.spec.consume_compute)
        co_await t.compute(mesh.spec.consume_compute);
      auto& tm = cx.classes[static_cast<std::size_t>(cls)];
      ++tm.delivered;
      tm.latency.record((eq.now() - msg.w[0]) & kTickMask);
      ++cx.delivered;
      cx.digest = fnv1a(cx.digest, eq.now());
      cx.digest = fnv1a(cx.digest, msg.w[0]);
      ++received;
    }
  }
  cx.chan_done[static_cast<std::size_t>(ci)] = true;
}

/// Mesh-wide timeline series: the classic engine's set summed over every
/// shard, plus the sharded-only signals (cross-link ingress, per-shard link
/// window and partition stalls). Closures are evaluated only at the
/// single-threaded barrier, so threaded stepping races on nothing.
void register_sharded_series(obs::Timeline& tl, Mesh& mesh) {
  auto& shards = mesh.shards;
  wire::register_device_series(tl, mesh.backend, [&shards](const auto& fn) {
    for (const auto& cx : shards) {
      std::uint64_t depth = 0;
      for (const auto& ch : cx->channels) depth += ch->depth();
      fn(*cx->m, *cx->f, depth);
    }
  });
  tl.add_series("cross_shard.ingress", [&shards] {
    std::uint64_t n = 0;
    for (const auto& cx : shards) n += cx->cross_in;
    return static_cast<double>(n);
  });
  for (int sh = 0; sh < static_cast<int>(shards.size()); ++sh) {
    tl.add_series("shard" + std::to_string(sh) + ".window_stalls",
                  [&mesh, sh] {
                    return static_cast<double>(
                        mesh.ssim.shard_window_stalls(sh));
                  });
    tl.add_series("shard" + std::to_string(sh) + ".partition_stalls",
                  [&mesh, sh] {
                    return static_cast<double>(
                        mesh.ssim.shard_partition_stalls(sh));
                  });
  }

  register_class_series(
      tl, [&shards](const std::function<void(const TenantMetrics&)>& fn) {
        for (const auto& cx : shards)
          for (const auto& t : cx->classes) fn(t);
      });
}

}  // namespace

ShardedResult run_sharded(const ScenarioSpec& raw, squeue::Backend backend,
                          std::uint64_t seed, const ShardedOptions& opts,
                          int scale) {
  const std::string err = validate(raw);
  if (!err.empty())
    throw std::invalid_argument("invalid scenario '" + raw.name + "': " + err);
  const ScenarioSpec& spec = raw;  // sharded budget scales globally, below

  const std::uint64_t population =
      opts.population ? opts.population : spec.sharding.population;
  const std::uint64_t messages_total =
      (opts.messages ? opts.messages : spec.sharding.messages_total) *
      static_cast<std::uint64_t>(std::max(scale, 1));
  const int S = opts.shards;
  if (S < 1) throw std::invalid_argument("shards must be >= 1");
  if (population == 0)
    throw std::invalid_argument("scenario '" + spec.name +
                                "' has no sharding population");
  if (messages_total == 0)
    throw std::invalid_argument("scenario '" + spec.name +
                                "' has no sharding message budget");
  if (spec.topology != Topology::kFanOut && spec.topology != Topology::kMesh)
    throw std::invalid_argument(
        "sharded runs need a fan-out/mesh topology (channel per consumer)");
  if (spec.closed_loop)
    throw std::invalid_argument("sharded runs are open-loop only");
  if (spec.consumers < S)
    throw std::invalid_argument(
        "need at least one consumer per shard (consumers >= shards)");
  if (!spec.lifecycle.empty())
    throw std::invalid_argument(
        "lifecycle events (churn/reconfig) run on the classic engine only");
  replay::TraceRecorder* rec = wire::begin_trace_io(
      spec, backend, seed, opts.obs, /*sharded=*/true);

  ShardRouter router(S);
  sim::ShardedSim ssim(spec.sharding.link_latency, opts.sim_threads);
  ssim.set_link_window(spec.sharding.link_window);

  // Producers and channels are dealt round-robin: global producer p lives
  // on shard p % S, global channel c on shard c % S.
  std::vector<int> np(static_cast<std::size_t>(S), 0);
  std::vector<int> nch(static_cast<std::size_t>(S), 0);
  for (int p = 0; p < spec.producers; ++p) ++np[static_cast<std::size_t>(p % S)];
  for (int c = 0; c < spec.consumers; ++c)
    ++nch[static_cast<std::size_t>(c % S)];

  std::vector<std::unique_ptr<ShardCtx>> shards;

  // Fault plane + QoS supervisor, created before the shards so each
  // machine is armed / attached as it is built, in shard-id order.
  std::unique_ptr<fault::FaultPlane> plane;
  if (!spec.faults.empty())
    plane = std::make_unique<fault::FaultPlane>(spec.faults, S);
  std::unique_ptr<runtime::QosSupervisor> sup =
      wire::make_supervisor(spec, backend);

  std::uint8_t frame = 1;
  for (const auto& t : spec.tenants)
    frame = std::max(frame, wire::payload_words(backend, t.msg_words));
  for (int sh = 0; sh < S; ++sh) {
    auto cx = std::make_unique<ShardCtx>();
    cx->id = sh;
    // Each shard's hardware knobs (QoS quota carve, per-SQI splits) are
    // sized for the channels *it* hosts, exactly as a standalone node's
    // would be.
    ScenarioSpec node = spec;
    node.producers = std::max(np[static_cast<std::size_t>(sh)], 1);
    node.consumers = nch[static_cast<std::size_t>(sh)];
    cx->m = std::make_unique<runtime::Machine>(
        machine_config_for(node, backend));
    cx->f = std::make_unique<squeue::ChannelFactory>(*cx->m, backend);
    if (plane) plane->arm_machine(*cx->m, sh);
    if (sup) wire::attach_machine(*sup, node, backend, *cx->m, *cx->f);
    for (int c = 0; c < nch[static_cast<std::size_t>(sh)]; ++c) {
      const std::string label =
          "sh" + std::to_string(sh) + "c" + std::to_string(c);
      cx->channels.push_back(cx->f->make(label, spec.capacity_hint, frame));
    }
    cx->ingress_wq = std::make_unique<sim::WaitQueue>(cx->m->eq());
    cx->chan_sent.assign(cx->channels.size(), 0);
    cx->chan_done.assign(cx->channels.size(), false);
    for (const auto& t : spec.tenants) {
      TenantMetrics tm;
      tm.tenant = t.name;
      tm.qos = t.qos;
      tm.slo_p99 = t.slo_p99;
      cx->classes.push_back(std::move(tm));
    }
    cx->producers_remaining = np[static_cast<std::size_t>(sh)];
    ssim.add_shard(cx->m->eq());
    shards.push_back(std::move(cx));
  }

  Mesh mesh{spec, backend, population, ssim, router, shards};
  mesh.fp = plane.get();
  mesh.chan_faults = plane && plane->mutates_channels() &&
                     (backend == squeue::Backend::kBlfq ||
                      backend == squeue::Backend::kZmq);
  mesh.rec = rec;

  // --- observability hookup -------------------------------------------------
  // A supervised run samples even without caller hooks — into a private
  // local timeline the supervisor reads at each barrier.
  obs::Timeline local_tl;
  obs::Timeline* tl = opts.obs ? opts.obs->timeline : nullptr;
  if (sup && !tl) tl = &local_tl;
  if (tl) {
    register_sharded_series(*tl, mesh);
    if (plane) plane->register_series(*tl);
    if (sup) sup->register_series(*tl);
  }
  obs::TraceBuffer* barrier_tb = nullptr;
  if (opts.obs && opts.obs->tracer) {
    obs::Tracer& tr = *opts.obs->tracer;
    // All buffers are created here, before any (possibly threaded)
    // stepping: each shard's queue writes only its own buffer while that
    // shard steps, and the barrier lane (pid = S) only between epochs.
    for (int sh = 0; sh < S; ++sh) {
      shards[static_cast<std::size_t>(sh)]->m->eq().set_trace(
          &tr.buffer(static_cast<std::uint32_t>(sh)));
      tr.set_process_name(static_cast<std::uint32_t>(sh),
                          "shard" + std::to_string(sh));
    }
    ssim.set_trace(&tr.buffer(static_cast<std::uint32_t>(S)));
    tr.set_process_name(static_cast<std::uint32_t>(S), "barrier");
    barrier_tb = &tr.buffer(static_cast<std::uint32_t>(S));
  }

  // Global message budget over global producer ids (largest remainder),
  // classes assigned by the same split as the classic engine — both are
  // shard-count-invariant, which is what makes delivered counts equal
  // across S.
  const std::vector<int> split = tenant_producer_split(spec);
  std::vector<int> cls_of(static_cast<std::size_t>(spec.producers), 0);
  {
    int p = 0;
    for (std::size_t ti = 0; ti < split.size(); ++ti)
      for (int k = 0; k < split[ti] && p < spec.producers; ++k)
        cls_of[static_cast<std::size_t>(p++)] = static_cast<int>(ti);
  }
  const std::uint64_t per =
      messages_total / static_cast<std::uint64_t>(spec.producers);
  const std::uint64_t rem =
      messages_total % static_cast<std::uint64_t>(spec.producers);

  for (int sh = 0; sh < S; ++sh) {
    ShardCtx& cx = *shards[static_cast<std::size_t>(sh)];
    CoreId core = 0;
    auto next_thread = [&] {
      const CoreId c = core;
      core = (core + 1) % cx.m->num_cores();
      return cx.m->thread_on(c);
    };
    sim::spawn(relay(cx, next_thread()));
    for (int c = 0; c < static_cast<int>(cx.channels.size()); ++c)
      sim::spawn(worker(mesh, cx, next_thread(), c));
    for (int p = sh; p < spec.producers; p += S) {
      const int cls = cls_of[static_cast<std::size_t>(p)];
      // Replay: the per-gpid stream is the budget.
      wire::MessageSource src =
          spec.replay
              ? wire::MessageSource(*spec.replay, p, backend)
              : wire::MessageSource(
                    spec.tenants[static_cast<std::size_t>(cls)], backend,
                    per + (static_cast<std::uint64_t>(p) < rem ? 1 : 0),
                    wire::split_seed(seed, 0x5000 + p),
                    wire::split_seed(seed, 0x6000 + p), /*rotate=*/false);
      if (src.budget())
        sim::spawn(producer(mesh, cx, next_thread(), cls, p, std::move(src)));
      else
        --cx.producers_remaining;
    }
  }

  // Barrier hook: once every producer mesh-wide has finished (their posts
  // were drained by this barrier's exchange), raise each shard's stop flag
  // one lookahead out — deliveries landing on that same tick were
  // scheduled first, so relays always drain payload before poisoning.
  // Until then, optionally rebalance the ring off persistently hot shards.
  bool stop_sent = false;
  std::uint64_t rebalanced = 0;
  std::uint64_t barriers = 0;
  std::vector<std::uint64_t> prev_lat_blocked(static_cast<std::size_t>(S), 0);
  auto hook = [&]() -> bool {
    // Link-fault table first (single-threaded here, shards tick-aligned):
    // each epoch then steps under one immutable table, which keeps fault
    // runs byte-identical between sequential and threaded stepping. Runs
    // before the stop check so partitions lift during the drain phase.
    if (plane)
      plane->apply_links(ssim, shards.front()->m->now(), barrier_tb);
    // Timeline epoch: after the exchange every shard stands at the same
    // tick, so one sample captures a consistent mesh-wide cut. Sampling
    // reads counters only — it never schedules — so the run's (tick, seq)
    // stream is untouched.
    if (tl) tl->sample(shards.front()->m->now());
    // Supervisor control epoch: reads the cut just taken, re-carves the
    // per-class quotas via the epoch-boundary-safe knobs.
    if (sup) sup->on_epoch(*tl);
    if (stop_sent) return true;
    bool producers_done = true;
    for (const auto& cx : shards)
      if (cx->producers_remaining > 0) {
        producers_done = false;
        break;
      }
    if (producers_done) {
      for (auto& cx : shards) {
        ShardCtx* p = cx.get();
        p->m->eq().schedule_at(p->m->now() + spec.sharding.link_latency, [p] {
          p->stop = true;
          p->ingress_wq->wake_one();
        });
      }
      stop_sent = true;
      return true;
    }
    if (spec.sharding.rebalance && ++barriers % kRebalancePeriod == 0) {
      std::vector<std::uint64_t> load;
      load.reserve(shards.size());
      for (std::size_t si = 0; si < shards.size(); ++si) {
        const auto& cx = shards[si];
        std::uint64_t l = cx->ingress.size();
        for (const auto& ch : cx->channels) l += ch->depth();
        if (sup) {
          // SLO-aware pressure: a shard whose latency class spent this
          // window blocked is hotter than its queue depths alone say, so
          // fold the blocked-ticks growth into its load estimate (scaled
          // down to queue-depth units).
          std::uint64_t bl = 0;
          for (const auto& t : cx->classes)
            if (t.qos == QosClass::kLatency) bl += t.blocked_ticks;
          l += (bl - prev_lat_blocked[si]) / 64;
          prev_lat_blocked[si] = bl;
        }
        load.push_back(l);
      }
      rebalanced += router.rebalance(load, population);
    }
    return false;
  };

  ssim.run(hook);

  if (tl) {
    // Final cumulative epoch, taken before the per-shard metrics move out
    // of the contexts: its class.* values equal the merged end-of-run
    // ScenarioMetrics (same counters, same aggregation).
    Tick end = 0;
    for (const auto& cx : shards) end = std::max(end, cx->m->now());
    tl->sample(end);
    tl->detach();
  }
  for (auto& cx : shards) cx->m->eq().set_trace(nullptr);

  // Every queue drained with a worker still waiting is a stranded consumer
  // (lost pill, protocol deadlock): fail loudly rather than merge a
  // partial run.
  std::string stuck;
  for (const auto& cx : shards)
    for (std::size_t c = 0; c < cx->channels.size(); ++c)
      if (!cx->chan_done[c])
        stuck += " sh" + std::to_string(cx->id) + "c" + std::to_string(c);
  if (!stuck.empty())
    throw std::runtime_error("scenario '" + spec.name +
                             "': queues drained with workers still waiting "
                             "on shard channels" + stuck);

  ShardedResult r;
  r.engine.scenario = spec.name;
  r.engine.backend = squeue::to_string(backend);
  r.engine.seed = seed;
  r.engine.scale = scale;
  r.engine.events = ssim.executed();
  r.shards = S;
  r.sim_threads = opts.sim_threads;
  r.epochs = ssim.stats().epochs;
  r.cross_shard = ssim.stats().messages;
  r.window_stalls = ssim.stats().window_stalls;
  r.rebalanced = rebalanced;
  for (auto& cx : shards) {
    ScenarioMetrics sm;
    sm.tenants = std::move(cx->classes);
    sm.ticks = cx->m->now();
    sm.ns = cx->m->ns(sm.ticks);
    r.engine.metrics.merge(sm);
    r.engine.device_stats.merge(cx->m->statset());
    r.shard_digests.push_back(cx->digest);
    r.shard_delivered.push_back(cx->delivered);
  }
  return r;
}

}  // namespace vl::traffic
