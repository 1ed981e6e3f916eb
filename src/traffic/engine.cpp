#include "traffic/engine.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "fault/plane.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "replay/lifecycle.hpp"
#include "runtime/qos_supervisor.hpp"
#include "sim/sharded.hpp"
#include "sim/task.hpp"
#include "traffic/shard_router.hpp"
#include "traffic/sharded_engine.hpp"
#include "traffic/wire.hpp"

namespace vl::traffic {

namespace {

using squeue::Backend;
using squeue::Channel;
using squeue::Msg;
using sim::Co;
using sim::SimThread;
using wire::kPillTenant;
using wire::kTickMask;

/// QoS supervisor control cadence: a few epochs of reaction time stay well
/// inside one bulk burst dwell.
constexpr Tick kSupervisorPeriod = 2500;
constexpr Tick kWindowBackoff = 32;  ///< Retry gap when a link is full.
constexpr std::uint64_t kRebalancePeriod = 64;  ///< Barriers between checks.
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct StageChannel {
  std::unique_ptr<Channel> ch;
  int workers = 1;
  int workers_done = 0;  ///< Workers that reached their drain target.
  std::string label;
  /// Payload messages fed into this channel (producer flushes, upstream
  /// relays, link ingress). Final by the time its termination pill is
  /// built, so the pill can carry the exact drain target for the channel's
  /// sole worker.
  std::uint64_t fed = 0;
};

struct Stage {
  std::vector<StageChannel> channels;
  int workers_remaining = 0;
};

/// A message in flight on an inter-node link, bound for first-stage
/// channel `ch` of the destination node.
struct InMsg {
  Msg msg;
  int ch;
};

/// One modelled node: a machine, its stage channels, the metric rows of
/// its deliveries and a digest of its event stream. Nodes share no state.
struct Node {
  Node(int id, runtime::Machine& m, squeue::ChannelFactory& f)
      : id(id), m(m), f(f), ingress_wq(m.eq()) {}

  int id;
  runtime::Machine& m;
  squeue::ChannelFactory& f;

  std::vector<Stage> stages;
  std::vector<std::unique_ptr<Channel>> acks;  ///< Per producer, closed loop.
  /// One row per spec tenant, indexed by the stamp's tenant byte.
  std::vector<TenantMetrics> tenants;
  int producers_remaining = 0;

  /// Link landing zone, drained by the termination actor.
  std::deque<InMsg> ingress;
  sim::WaitQueue ingress_wq;
  bool stop = false;  ///< No more payload can reach this node.
  /// The termination actor's thread until the last producer starts it.
  std::optional<SimThread> idle_terminator;

  std::uint64_t digest = kFnvBasis;  ///< (tick, stamp) delivery/ingress fold.
  std::uint64_t cross_in = 0;        ///< Messages that arrived over links.
};

/// What a run shares across its nodes: the spec, the route, the stepper,
/// and the fault, lifecycle, trace and supervisor planes (each null when
/// unused).
struct Run {
  Run(const ScenarioSpec& spec, Backend backend, std::uint64_t seed,
      const obs::RunHooks* obs, ShardRouter* router, int sim_threads = 1);

  const ScenarioSpec& spec;
  Backend backend;
  const obs::RunHooks* obs;
  std::vector<std::unique_ptr<Node>> nodes;

  /// The route: producers draw destinations in [0, range); see route().
  std::uint64_t range = 0;
  ShardRouter* router = nullptr;  ///< Set on a mesh only.
  /// Steps the nodes, one shard each, and carries a mesh's link posts.
  sim::ShardedSim ssim;

  std::unique_ptr<fault::FaultPlane> plane;
  replay::TraceRecorder* rec = nullptr;  ///< Send-boundary trace tap.
  std::unique_ptr<replay::LifecyclePlane> lp;
  std::unique_ptr<runtime::QosSupervisor> sup;
};

Run::Run(const ScenarioSpec& spec, Backend backend, std::uint64_t seed,
         const obs::RunHooks* obs, ShardRouter* router, int sim_threads)
    : spec(spec), backend(backend), obs(obs), router(router),
      ssim(router ? spec.sharding.link_latency : sim::ShardedSim::kNoLinks,
           sim_threads) {
  const std::string err = validate(spec);
  if (!err.empty())
    throw std::invalid_argument("invalid scenario '" + spec.name + "': " + err);
  const bool mesh = router != nullptr;
  if (const replay::Trace* t = spec.replay) {
    if (t->sharded != mesh)
      throw std::invalid_argument(
          "replay: trace '" + t->scenario + "' was recorded " +
          (t->sharded ? "on a shard mesh; replay it on shards"
                      : "on a single node; replay it without shards"));
    if (t->producers != static_cast<std::uint32_t>(spec.producers) ||
        t->tenants != spec.tenants.size())
      throw std::invalid_argument(
          "replay: trace shape (producers=" + std::to_string(t->producers) +
          ", tenants=" + std::to_string(t->tenants) +
          ") does not match scenario '" + spec.name + "' (producers=" +
          std::to_string(spec.producers) +
          ", tenants=" + std::to_string(spec.tenants.size()) + ")");
    // A trace is the post-shed, post-churn stream: flash crowds and
    // joins/leaves have already acted on its ticks.
    const auto refuse = [](const std::string& kind) {
      throw std::invalid_argument(
          "replay: " + kind + "@ shapes live arrivals, and a replayed trace "
          "is the post-shed, post-churn stream; drop the clause or record "
          "it into the trace");
    };
    if (spec.faults.has(fault::FaultKind::kFlashCrowd))
      refuse(fault::to_string(fault::FaultKind::kFlashCrowd));
    for (const auto& e : spec.lifecycle.events)
      if (e.kind != replay::LifecycleEvent::Kind::kReconfig)
        refuse(replay::to_string(e.kind));
  }
  rec = obs ? obs->recorder : nullptr;
  if (rec)
    rec->begin(spec.name, squeue::to_string(backend), seed,
               static_cast<std::uint32_t>(spec.producers),
               static_cast<std::uint32_t>(spec.tenants.size()), mesh);
  if (!spec.faults.empty())
    plane = std::make_unique<fault::FaultPlane>(spec.faults,
                                                mesh ? router->shards() : 1);
  if (!spec.lifecycle.empty()) {
    if (spec.lifecycle.has_reconfig() && backend != Backend::kVl &&
        backend != Backend::kVlIdeal)
      throw std::invalid_argument(
          "lifecycle: reconfig@ is SQI re-registration — only the VL "
          "backends have a registration to drop; backend '" +
          std::string(squeue::to_string(backend)) + "' does not");
    std::vector<std::string> names;
    for (const auto& t : spec.tenants) names.push_back(t.name);
    lp = std::make_unique<replay::LifecyclePlane>(spec.lifecycle, names);
  }
  if (spec.supervisor && spec.qos &&
      (backend == Backend::kVl || backend == Backend::kCaf)) {
    bool present[kQosClasses] = {};
    for (const auto& t : spec.tenants)
      present[static_cast<std::size_t>(t.qos)] = true;
    sup = std::make_unique<runtime::QosSupervisor>(
        runtime::QosSupervisor::Config{}, present);
  }
}

/// Add a node on `m`/`f`, hosting `hosted` (the spec as this machine sees
/// it): arm its faults, hand the supervisor its knobs, schedule its churn
/// re-carves, open its metric rows.
Node& add_node(Run& run, runtime::Machine& m, squeue::ChannelFactory& f,
               const ScenarioSpec& hosted) {
  const int id = static_cast<int>(run.nodes.size());
  Node& n = *run.nodes.emplace_back(std::make_unique<Node>(id, m, f));
  run.ssim.add_shard(m.eq());
  if (run.plane) run.plane->arm_machine(m, id);
  const bool vl = run.backend == Backend::kVl;
  if (run.sup)
    run.sup->attach(m.cfg(), channel_demand_for(hosted, run.backend, m.cfg()),
                    vl ? &m.cluster() : nullptr,
                    run.backend == Backend::kCaf ? &f.caf_device() : nullptr);
  // Quota re-carve at every churn boundary: this machine's own demand
  // re-weighted over the classes still active, so its hardware budgets
  // track the live tenant mix (runtime::size_quotas — the same arithmetic
  // as the static carve and the QoS supervisor, so nothing drifts).
  if (run.lp && hosted.qos && (vl || run.backend == Backend::kCaf)) {
    const runtime::ChannelDemand demand =
        channel_demand_for(hosted, run.backend, m.cfg());
    for (const Tick at : run.lp->churn_boundaries())
      m.eq().schedule_at(at, [&run, &m, &f, vl, demand, at] {
        const ScenarioSpec& spec = run.spec;
        bool present[kQosClasses] = {};
        for (std::size_t ti = 0; ti < spec.tenants.size(); ++ti)
          if (run.lp->tenant_active_at(static_cast<int>(ti), at))
            present[static_cast<std::size_t>(spec.tenants[ti].qos)] = true;
        if (std::count(present, present + kQosClasses, true) == 0)
          return;  // everyone gone — leave the carve alone
        runtime::ChannelDemand d = demand;
        runtime::base_weights(d, present);
        const runtime::QuotaPlan plan = runtime::size_quotas(m.cfg(), d);
        for (std::size_t c = 0; c < kQosClasses; ++c) {
          if (vl)
            m.cluster().set_class_quota(static_cast<QosClass>(c),
                                        plan.vl_class_quota[c]);
          else
            f.caf_device().set_class_credit(static_cast<QosClass>(c),
                                            plan.caf_class_credits[c]);
        }
      });
  }
  for (const auto& t : run.spec.tenants) {
    TenantMetrics tm;
    tm.tenant = t.name;
    tm.qos = t.qos;
    tm.slo_p99 = t.slo_p99;
    n.tenants.push_back(std::move(tm));
  }
  return n;
}

/// Channel frame width: the widest tenant or replayed payload. CAF stays at
/// its single-word frame, which replayed widths clamp to (payload_words).
std::uint8_t frame_words(const ScenarioSpec& spec, Backend b) {
  std::uint8_t frame = 1;
  for (const auto& t : spec.tenants)
    frame = std::max(frame, wire::payload_words(b, t.msg_words));
  if (spec.replay && b != Backend::kCaf)
    for (const auto& r : spec.replay->records) frame = std::max(frame, r.words);
  return frame;
}

void add_stage(Node& n, int nchan, int workers, const std::string& prefix,
               std::size_t capacity, std::uint8_t frame) {
  Stage st;
  for (int c = 0; c < nchan; ++c) {
    StageChannel sc;
    sc.label = prefix + "c" + std::to_string(c);
    sc.ch = n.f.make(sc.label, capacity, frame);
    sc.workers = workers;
    st.workers_remaining += workers;
    st.channels.push_back(std::move(sc));
  }
  n.stages.push_back(std::move(st));
}

/// Where a destination is served: a node and one of its first-stage
/// channels. Without a router a destination is node 0's channel index; on
/// a mesh it is a logical tenant, which the ring maps to a node and the
/// tenant hash to one of that node's channels.
struct Dest {
  Node* node;
  int ch;
};

Dest route(Run& run, std::uint64_t dst) {
  if (!run.router) return {run.nodes.front().get(), static_cast<int>(dst)};
  Node* n = run.nodes[static_cast<std::size_t>(run.router->shard_for(dst))]
                .get();
  const auto nch = static_cast<std::uint64_t>(n->stages.front().channels.size());
  return {n, static_cast<int>(ShardRouter::hash(dst) % nch)};
}

/// One pill per worker of each channel. A sole worker's pill carries the
/// channel's exact payload count; a shared channel's workers stop at their
/// first pill, since their payload split is not knowable up front.
Co<void> send_pills(std::vector<StageChannel>& channels, SimThread t) {
  for (auto& sc : channels)
    for (int k = 0; k < sc.workers; ++k)
      co_await sc.ch->send(t, wire::make_pill(sc.workers == 1 ? sc.fed : 0));
}

/// Per-node termination actor: injects link ingress into the first stage
/// as it lands, one send_many per channel touched. Once `stop` is up and
/// the ingress is dry, every payload bound here is fed: send the pills.
Co<void> terminator(Node& n, SimThread t) {
  auto& first = n.stages.front().channels;
  std::vector<std::vector<Msg>> sub(first.size());
  for (;;) {
    const auto gate = n.ingress_wq.epoch();
    if (n.ingress.empty()) {
      if (n.stop) break;
      co_await t.park(n.ingress_wq, gate);
      continue;
    }
    while (!n.ingress.empty()) {
      const InMsg& im = n.ingress.front();
      sub[static_cast<std::size_t>(im.ch)].push_back(im.msg);
      n.ingress.pop_front();
    }
    for (std::size_t c = 0; c < sub.size(); ++c) {
      if (sub[c].empty()) continue;
      co_await first[c].ch->send_many(t, sub[c]);
      first[c].fed += sub[c].size();
      sub[c].clear();
    }
  }
  co_await send_pills(first, t);
}

/// Start a node's waiting termination actor, inline, once its producers
/// are done. No actor waits on a mesh node: the barrier hook raises `stop`
/// there, once every producer mesh-wide is done.
void release(Node& n) {
  if (n.producers_remaining > 0 || !n.idle_terminator) return;
  n.stop = true;
  sim::spawn(terminator(n, *std::exchange(n.idle_terminator, std::nullopt)));
}

/// One producer thread on node `home`, live or replaying — `src` decides
/// where each message comes from. A replayed stream is post-shed and paces
/// no acks, so shedding, produce_compute and the closed-loop window are
/// switched off here, once; a replay never carries flash@ or join/leave
/// (Run rejects them), and the send-boundary loss/dup fate applies to both.
///
/// Every message routes individually: a local one joins its channel's
/// sub-batch, flushed at lap end in ascending channel order (one send_many
/// per channel touched); a remote one posts onto the link at once.
Co<void> producer(Run& run, Node& home, SimThread t, int tenant, int pid,
                  wire::MessageSource src) {
  const ScenarioSpec& spec = run.spec;
  const TenantSpec& ts = spec.tenants[static_cast<std::size_t>(tenant)];
  const bool live = src.live();
  replay::LifecyclePlane* lp =
      run.lp && run.lp->tenant_has_events(tenant) ? run.lp.get() : nullptr;
  fault::FaultPlane* fp = run.plane.get();
  const bool chan_faults = fp && fp->mutates_channels();
  const std::uint64_t drop_depth = live ? ts.drop_depth : 0;
  const Tick compute = live ? spec.produce_compute : 0;
  Channel* ack = live && spec.closed_loop
                     ? home.acks[static_cast<std::size_t>(pid)].get()
                     : nullptr;
  auto& eq = home.m.eq();
  auto& tm = home.tenants[static_cast<std::size_t>(tenant)];
  auto& first = home.stages.front().channels;
  const std::uint64_t target = src.budget();
  // Closed loops cap the effective batch at the window — a producer may
  // never hold more unacked messages than its in-flight budget.
  const std::uint64_t batch =
      ack ? std::min<std::uint64_t>(ts.batch, spec.window)
          : std::max<std::uint32_t>(ts.batch, 1);
  int outstanding = 0;
  std::vector<std::vector<Msg>> sub(first.size());

  for (std::uint64_t i = 0; i < target;) {
    // Assemble up to `batch` messages: each paces on the source and is
    // stamped at its generation instant, so batching adds the
    // producer-side accumulation delay to the measured latency — exactly
    // the trade batched injection makes. Shed messages fill no lap slot.
    std::uint64_t assembled = 0;
    while (assembled < batch && i < target) {
      if (lp) {
        Tick at;
        while ((at = lp->next_active(tenant, eq.now())) != 0) {
          if (at == replay::LifecyclePlane::kNever) {
            // Departed for good: the rest of the budget is forfeited, not
            // dropped — never generated, so conservation stays exact and
            // the count-carrying pills still match what was fed.
            i = target;
            break;
          }
          co_await sim::Delay(eq, at - eq.now());
        }
        if (i >= target) break;
      }
      Tick gap = src.next_gap(eq.now());
      if (fp) gap = fp->scale_gap(home.id, ts.qos, eq.now(), gap);
      if (gap) co_await sim::Delay(eq, gap);
      if (compute) co_await t.compute(compute);

      ++tm.generated;
      // Routed before the shed checks: shed and lost messages advance the
      // route stream too.
      const wire::MessageSource::Draw d = src.take(run.range);
      const Dest to = route(run, d.dst);
      // Shedding reads the depth of a local channel only; a remote
      // destination's backlog belongs to its own node.
      if (drop_depth && to.node == &home &&
          first[static_cast<std::size_t>(to.ch)].ch->depth() >= drop_depth) {
        ++tm.dropped;
        ++i;
        continue;
      }
      // Channel-level fault fate, decided before the message joins a
      // sub-batch or a link: only what is actually sent is counted as fed,
      // so a dropped/duplicated message never desyncs the pill counts.
      int copies = 1;
      if (chan_faults) {
        copies = fp->chan_copies(home.id, eq.now());
        if (copies == 0) {
          ++tm.dropped;
          ++i;
          continue;
        }
      }
      const Msg msg = wire::make_msg(d, tenant, pid, eq.now(), i);
      if (run.rec)
        for (int k = 0; k < copies; ++k)
          run.rec->on_send(static_cast<std::uint16_t>(pid),
                           static_cast<std::uint16_t>(tenant), msg.qos, msg.n,
                           d.dst, eq.now());
      ++i;
      ++assembled;
      if (to.node == &home) {
        for (int k = 0; k < copies; ++k)
          sub[static_cast<std::size_t>(to.ch)].push_back(msg);
        continue;
      }
      // Remote: respect the link's in-flight window, then hand the message
      // to the destination's ingress at now + link latency.
      for (int k = 0; k < copies; ++k) {
        while (!run.ssim.can_post(home.id, to.node->id)) {
          co_await sim::Delay(eq, kWindowBackoff);
          tm.blocked_ticks += kWindowBackoff;
        }
        run.ssim.post(home.id, to.node->id, [to, msg] {
          Node& dst = *to.node;
          dst.digest = fnv1a(dst.digest, dst.m.now());
          dst.digest = fnv1a(dst.digest, msg.w[0]);
          ++dst.cross_in;
          dst.ingress.push_back(InMsg{msg, to.ch});
          dst.ingress_wq.wake_one();
        });
        ++tm.sent;
      }
    }
    // Flush the lap: ascending channel order, closed-loop window re-checked
    // per sub-batch so outstanding never exceeds the in-flight budget.
    for (std::size_t c = 0; c < sub.size(); ++c) {
      auto& b = sub[c];
      if (b.empty()) continue;
      if (ack)
        while (outstanding + static_cast<int>(b.size()) > spec.window) {
          co_await ack->recv1(t);
          --outstanding;
        }
      const Tick send_start = eq.now();
      co_await first[c].ch->send_many(t, b);  // one batched injection
      tm.blocked_ticks += eq.now() - send_start;  // time-in-backpressure
      tm.sent += b.size();
      first[c].fed += b.size();
      if (ack) outstanding += static_cast<int>(b.size());
      b.clear();
    }
  }
  if (ack)
    while (outstanding > 0) {
      co_await ack->recv1(t);
      --outstanding;
    }
  --home.producers_remaining;
  release(home);
}

/// One worker of channel `chan_idx` in stage `stage_idx` of node `n`.
Co<void> worker(Run& run, Node& n, SimThread t, std::size_t stage_idx,
                std::size_t chan_idx) {
  Stage& st = n.stages[stage_idx];
  StageChannel& sc = st.channels[chan_idx];
  Channel& ch = *sc.ch;
  const bool final_stage = stage_idx + 1 == n.stages.size();
  auto& eq = n.m.eq();
  // Flattened channel ordinal (the reconfig@:channel= numbering: stage by
  // stage, channel by channel).
  int flat = static_cast<int>(chan_idx);
  for (std::size_t s = 0; s < stage_idx; ++s)
    flat += static_cast<int>(n.stages[s].channels.size());

  // A channel's sole worker drains opportunistically in batches and
  // terminates on the exact payload count its pill carries — arrival order
  // is not trusted, because VL's injection-retry recovery can surface the
  // pill ahead of a straggling payload line. Shared channels stay on
  // one-message receives and first-pill semantics.
  const std::size_t window = sc.workers == 1 ? std::size_t{8} : 1;
  std::vector<Msg> drained(window);
  std::vector<Msg> relay;
  std::uint64_t expected = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t received = 0;

  while (received < expected) {
    // SQI re-registration (reconfig@): between receive laps the consumer
    // drops its armed demand and re-registers — § III-B migration onto the
    // same thread. Landed frames stay readable, so no message is lost.
    if (run.lp && run.lp->take_reconfig(flat, eq.now())) ch.reconfigure(t);
    const std::size_t got =
        co_await ch.recv_many(t, std::span<Msg>(drained.data(), window), 1);
    relay.clear();
    for (std::size_t k = 0; k < got; ++k) {
      Msg& msg = drained[k];
      const std::uint64_t tenant = msg.w[0] >> 56;
      if (tenant == kPillTenant) {
        if (sc.workers == 1) {
          expected = msg.w[0] & kTickMask;  // drain target; keep going
          continue;
        }
        expected = received;  // shared channel: this pill is ours, stop
        break;
      }
      if (run.spec.consume_compute)
        co_await t.compute(run.spec.consume_compute);
      if (final_stage) {
        auto& tm = n.tenants[static_cast<std::size_t>(tenant)];
        ++tm.delivered;
        tm.latency.record((eq.now() - msg.w[0]) & kTickMask);
        n.digest = fnv1a(n.digest, eq.now());
        n.digest = fnv1a(n.digest, msg.w[0]);
        if (run.spec.closed_loop) {
          const auto pid = static_cast<std::size_t>((msg.w[0] >> 48) & 0xff);
          co_await n.acks[pid]->send1(t, 1);
        }
      } else {
        // Pipeline relay: preserve the stamp so latency stays end-to-end.
        relay.push_back(msg);
      }
      ++received;
    }
    if (!relay.empty()) {
      StageChannel& next = n.stages[stage_idx + 1].channels.front();
      co_await next.ch->send_many(t, relay);  // relay the run as one batch
      next.fed += relay.size();
    }
  }

  ++sc.workers_done;
  if (--st.workers_remaining == 0 && !final_stage) {
    // Last worker of this stage: all payload is already enqueued
    // downstream, so pills sent now arrive after it.
    co_await send_pills(n.stages[stage_idx + 1].channels, t);
  }
}

/// The spec tenant of each global producer id: tenant_producer_split,
/// dealt tenant by tenant.
std::vector<int> producer_tenants(const ScenarioSpec& spec) {
  std::vector<int> out;
  const std::vector<int> split = tenant_producer_split(spec);
  for (std::size_t ti = 0; ti < split.size(); ++ti)
    out.insert(out.end(), static_cast<std::size_t>(split[ti]),
               static_cast<int>(ti));
  return out;
}

/// Round-robin thread placement over one machine's cores, in spawn order.
struct Placer {
  runtime::Machine& m;
  CoreId core = 0;
  SimThread next() {
    const CoreId c = core;
    core = (core + 1) % m.num_cores();
    return m.thread_on(c);
  }
};

void spawn_workers(Run& run, Node& n, Placer& place) {
  for (std::size_t s = 0; s < n.stages.size(); ++s)
    for (std::size_t c = 0; c < n.stages[s].channels.size(); ++c)
      for (int w = 0; w < n.stages[s].channels[c].workers; ++w)
        sim::spawn(worker(run, n, place.next(), s, c));
}

/// Register the per-class cumulative series "class.<cls>.delivered",
/// ".sent", ".blocked_ticks", ".p99", ".slo_within" and ".slo_att_pct" for
/// every class among the run's tenant rows. They aggregate the class's
/// rows over every node exactly the way ScenarioMetrics::by_class() does,
/// so a final epoch equals the end-of-run report.
void register_class_series(obs::Timeline& tl, Run& run) {
  using View = double (*)(const TenantMetrics&);
  // `view` summed over class `cls`'s rows on every node.
  auto fold = [&run](QosClass cls, View view) {
    double acc = 0.0;
    for (const auto& n : run.nodes)
      for (const auto& t : n->tenants)
        if (t.qos == cls) acc += view(t);
    return acc;
  };
  // Cumulative in-SLO deliveries — the raw counter behind slo_att_pct
  // (latency_counters() folds the same counter for the QoS supervisor).
  const View within = [](const TenantMetrics& t) {
    return static_cast<double>(t.slo_within());
  };
  bool present[kQosClasses] = {};
  for (const auto& t : run.spec.tenants)
    present[static_cast<std::size_t>(t.qos)] = true;
  for (std::size_t c = 0; c < kQosClasses; ++c) {
    if (!present[c]) continue;
    const auto cls = static_cast<QosClass>(c);
    const std::string base = std::string("class.") + to_string(cls) + ".";
    const std::pair<const char*, View> sums[] = {
        {"delivered", [](const TenantMetrics& t) { return 1.0 * t.delivered; }},
        {"sent", [](const TenantMetrics& t) { return 1.0 * t.sent; }},
        {"blocked_ticks",
         [](const TenantMetrics& t) { return 1.0 * t.blocked_ticks; }}};
    for (const auto& [name, view] : sums)
      tl.add_series(base + name, [fold, cls, view] { return fold(cls, view); });
    // One histogram per series, refilled so a sample allocates nothing.
    tl.add_series(base + "p99", [&run, cls, h = LogHistogram{}]() mutable {
      h.clear();
      for (const auto& n : run.nodes)
        for (const auto& t : n->tenants)
          if (t.qos == cls) h.merge(t.latency);
      return static_cast<double>(h.percentile(99));
    });
    tl.add_series(base + "slo_within",
                  [fold, cls, within] { return fold(cls, within); });
    tl.add_series(base + "slo_att_pct", [fold, cls, within] {
      // ClassAgg::slo_attained_pct over the class's SLO-carrying tenants.
      const double delivered = fold(cls, [](const TenantMetrics& t) {
        return t.slo_p99 ? static_cast<double>(t.delivered) : 0.0;
      });
      if (!delivered) return 100.0;
      return 100.0 * fold(cls, within) / delivered;
    });
  }
}

/// The supervisor's input: the latency class's cumulative counters summed
/// over every node's rows (the class.latency.* series' values). It reads
/// only run state, so the caller's hooks cannot change what the supervisor
/// decides.
runtime::LatencyCounters latency_counters(const Run& run) {
  runtime::LatencyCounters c;
  for (const auto& n : run.nodes)
    for (const auto& t : n->tenants)
      if (t.qos == QosClass::kLatency) {
        c.delivered += t.delivered;
        c.slo_within += t.slo_within();
        c.blocked_ticks += t.blocked_ticks;
      }
  return c;
}

/// Register the run's timeline series: device and kernel counters summed
/// over every node (chan.depth is the run's one queue-depth signal), a
/// mesh's link signals, the per-class traffic counters, then the fault and
/// supervisor series. Closures read run state in place: step() detaches
/// the timeline before the run goes away.
void register_series(obs::Timeline& tl, Run& run) {
  auto add = [&tl, &run](std::string name,
                         std::function<std::uint64_t(Node&)> view) {
    tl.add_series(std::move(name), [&run, view] {
      std::uint64_t v = 0;
      for (const auto& n : run.nodes) v += view(*n);
      return static_cast<double>(v);
    });
  };
  add("eq.executed", [](Node& n) { return n.m.eq().executed(); });
  add("chan.depth", [](Node& n) {
    std::uint64_t depth = 0;
    for (const auto& st : n.stages)
      for (const auto& sc : st.channels) depth += sc.ch->depth();
    return depth;
  });
  add("vlrd.push_quota_nacks",
      [](Node& n) { return n.m.vlrd_stats().push_quota_nacks; });
  add("vlrd.fetch_nacks", [](Node& n) { return n.m.vlrd_stats().fetch_nacks; });
  if (run.backend == Backend::kCaf)
    for (std::size_t c = 0; c < kQosClasses; ++c) {
      const auto cls = static_cast<QosClass>(c);
      add(std::string("caf.occupancy.") + to_string(cls), [cls](Node& n) {
        return n.f.caf_device().class_occupancy(cls);
      });
    }
  if (run.router) {
    add("cross_shard.ingress", [](Node& n) { return n.cross_in; });
    for (int sh = 0; sh < run.ssim.shards(); ++sh) {
      const std::string p = "shard" + std::to_string(sh);
      tl.add_series(p + ".window_stalls", [&run, sh] {
        return static_cast<double>(run.ssim.shard_window_stalls(sh));
      });
      tl.add_series(p + ".partition_stalls", [&run, sh] {
        return static_cast<double>(run.ssim.shard_partition_stalls(sh));
      });
    }
  }
  register_class_series(tl, run);
  if (run.plane) run.plane->register_series(tl);
  if (run.sup) run.sup->register_series(tl);
}

/// Hook the caller's timeline and tracer (one pid per node, plus a
/// mesh's barrier lane) onto the run, before its first actor spawns.
/// Observation schedules nothing.
void observe(Run& run) {
  if (run.obs && run.obs->timeline) register_series(*run.obs->timeline, run);
  if (run.obs && run.obs->tracer) {
    obs::Tracer& tr = *run.obs->tracer;
    for (const auto& n : run.nodes) {
      const auto pid = static_cast<std::uint32_t>(n->id);
      n->m.eq().set_trace(&tr.buffer(pid));
      tr.set_process_name(pid, run.router ? "shard" + std::to_string(n->id)
                                          : std::string("machine"));
    }
    if (run.router) {
      const auto pid = static_cast<std::uint32_t>(run.nodes.size());
      run.ssim.set_trace(&tr.buffer(pid));
      tr.set_process_name(pid, "barrier");
    }
  }
}

/// Every run's tail, after observe(): the caller's timeline, then the
/// supervisor, as epoch clocks; step until drained; fold the nodes into one
/// result. Throws std::runtime_error when a worker is still waiting (a lost
/// pill or protocol deadlock), rather than reporting a partial run.
EngineResult step(Run& run, sim::ShardedSim::BarrierHook hook,
                  std::uint64_t seed, int scale) {
  obs::Timeline* tl = run.obs ? run.obs->timeline : nullptr;
  if (tl)
    run.ssim.add_clock(std::max<Tick>(run.obs->sample_every, 1),
                        [tl](Tick at) { tl->sample(at); });
  if (run.sup)  // control epoch: read the latency counters, re-carve
    run.ssim.add_clock(kSupervisorPeriod, [&run](Tick) {
      run.sup->on_epoch(latency_counters(run));
    });
  run.ssim.run(std::move(hook));

  if (tl) {
    // Final cumulative sample on the last fired tick (its class series
    // equal the end-of-run ScenarioMetrics), then detach before the run
    // goes away.
    Tick end = 0;
    for (const auto& n : run.nodes) end = std::max(end, n->m.eq().last_fired());
    tl->sample(end);
    tl->detach();
  }
  for (const auto& n : run.nodes) n->m.eq().set_trace(nullptr);

  std::string stuck;
  for (const auto& n : run.nodes)
    for (const Stage& st : n->stages)
      for (const StageChannel& sc : st.channels)
        if (sc.workers_done < sc.workers) stuck += " " + sc.label;
  if (!stuck.empty())
    throw std::runtime_error("scenario '" + run.spec.name +
                             "': queue drained with workers still waiting "
                             "on channels" + stuck);

  EngineResult r;
  r.scenario = run.spec.name;
  r.backend = squeue::to_string(run.backend);
  r.seed = seed;
  r.scale = scale;
  for (std::size_t i = 0; i < run.nodes.size(); ++i) {
    Node& n = *run.nodes[i];
    r.events += n.m.eq().executed();  // machines start fresh, at tick 0
    ScenarioMetrics sm;
    sm.tenants = n.tenants;
    sm.ticks = n.m.eq().last_fired();
    sm.ns = n.m.ns(sm.ticks);
    // The first node's rows are taken as they are (merge() would fold
    // same-named tenants); later nodes merge in by name.
    if (i == 0)
      r.metrics = std::move(sm);
    else
      r.metrics.merge(sm);
    r.device_stats.merge(n.m.statset());
  }
  return r;
}


}  // namespace

EngineResult Engine::run(const ScenarioSpec& raw, std::uint64_t seed,
                         int scale, const obs::RunHooks* obs) {
  const ScenarioSpec spec = scaled(raw, scale);
  const Backend backend = f_.backend();

  Run run(spec, backend, seed, obs, nullptr);  // one shard, no links
  Node& n = add_node(run, m_, f_, spec);

  const std::uint8_t frame = frame_words(spec, backend);
  const int nchan =
      (spec.topology == Topology::kFanOut || spec.topology == Topology::kMesh)
          ? spec.consumers
          : 1;
  const int nstages = spec.topology == Topology::kPipeline ? spec.stages : 1;
  for (int s = 0; s < nstages; ++s)
    add_stage(n, nchan, nchan == 1 ? spec.consumers : 1,
              "s" + std::to_string(s), spec.capacity_hint, frame);
  run.range = static_cast<std::uint64_t>(nchan);
  if (spec.closed_loop)
    for (int p = 0; p < spec.producers; ++p)
      n.acks.push_back(f_.make("ack" + std::to_string(p), 0, 1));

  // Producers, workers, then the termination actor's thread, which the last
  // producer starts. Observed from the first spawn on.
  observe(run);
  const std::vector<int> tenant_of = producer_tenants(spec);
  n.producers_remaining = static_cast<int>(tenant_of.size());
  Placer place{m_};
  for (int pid = 0; pid < static_cast<int>(tenant_of.size()); ++pid) {
    const int ti = tenant_of[static_cast<std::size_t>(pid)];
    const TenantSpec& ts = spec.tenants[static_cast<std::size_t>(ti)];
    wire::MessageSource src =
        spec.replay ? wire::MessageSource(*spec.replay, pid, backend)
                    : wire::MessageSource(
                          ts, backend, ts.messages_per_producer,
                          wire::split_seed(seed, pid),
                          wire::split_seed(seed, 0x4000 + pid),
                          spec.topology == Topology::kFanOut);
    sim::spawn(producer(run, n, place.next(), ti, pid, std::move(src)));
  }
  spawn_workers(run, n, place);
  n.idle_terminator = place.next();
  release(n);
  return step(run, {}, seed, scale);
}

ShardedResult run_sharded(const ScenarioSpec& spec, Backend backend,
                          std::uint64_t seed, const ShardedOptions& opts,
                          int scale) {
  // The mesh scales its global budget, not the per-producer counts.
  const std::uint64_t population =
      opts.population ? opts.population : spec.sharding.population;
  const std::uint64_t messages_total =
      (opts.messages ? opts.messages : spec.sharding.messages_total) *
      static_cast<std::uint64_t>(std::max(scale, 1));
  const int S = opts.shards;
  const std::pair<bool, std::string> unshardable[] = {
      {S < 1, "shards must be >= 1"},
      {population == 0, "scenario '" + spec.name + "' has no sharding population"},
      {messages_total == 0,
       "scenario '" + spec.name + "' has no sharding message budget"},
      {spec.topology != Topology::kFanOut && spec.topology != Topology::kMesh,
       "sharded runs need a fan-out/mesh topology (channel per consumer)"},
      {spec.closed_loop, "sharded runs are open-loop only"},
      {spec.consumers < S,
       "need at least one consumer per shard (consumers >= shards)"},
      {spec.lifecycle.has_reconfig(),
       "reconfig@ needs a single node: its one-shot events are run-wide "
       "state that threaded shards would race on"}};
  for (const auto& [bad, why] : unshardable)
    if (bad) throw std::invalid_argument(why);

  ShardRouter router(S);
  // Declared before the run, so the nodes' channels go first at teardown.
  std::vector<std::unique_ptr<runtime::Machine>> machines;
  std::vector<std::unique_ptr<squeue::ChannelFactory>> factories;
  Run run(spec, backend, seed, opts.obs, &router, opts.sim_threads);
  run.range = population;
  run.ssim.set_link_window(spec.sharding.link_window);

  // Producers and channels are dealt round-robin: global producer p lives
  // on shard p % S, global channel c on shard c % S. Each shard's hardware
  // knobs (QoS quota carve, per-SQI splits) are sized for the channels *it*
  // hosts, exactly as a standalone node's would be.
  std::vector<int> np(static_cast<std::size_t>(S)), nch(np);
  for (int p = 0; p < spec.producers; ++p) ++np[static_cast<std::size_t>(p % S)];
  for (int c = 0; c < spec.consumers; ++c)
    ++nch[static_cast<std::size_t>(c % S)];
  const std::uint8_t frame = frame_words(spec, backend);
  for (int sh = 0; sh < S; ++sh) {
    ScenarioSpec hosted = spec;
    hosted.producers = std::max(np[static_cast<std::size_t>(sh)], 1);
    hosted.consumers = nch[static_cast<std::size_t>(sh)];
    auto& m = *machines.emplace_back(std::make_unique<runtime::Machine>(
        machine_config_for(hosted, backend)));
    auto& f = *factories.emplace_back(
        std::make_unique<squeue::ChannelFactory>(m, backend));
    Node& n = add_node(run, m, f, hosted);
    add_stage(n, hosted.consumers, 1, "sh" + std::to_string(sh),
              spec.capacity_hint, frame);
    n.producers_remaining = np[static_cast<std::size_t>(sh)];
  }
  observe(run);

  // Global message budget over global producer ids (largest remainder),
  // tenants assigned as on a single node — both are shard-count-invariant,
  // which is what makes delivered counts equal across S.
  const std::vector<int> tenant_of = producer_tenants(spec);
  const std::uint64_t per =
      messages_total / static_cast<std::uint64_t>(spec.producers);
  const std::uint64_t rem =
      messages_total % static_cast<std::uint64_t>(spec.producers);

  // Per shard: the termination actor first (it relays link ingress all
  // run long), then the workers, then the producers with a budget.
  for (int sh = 0; sh < S; ++sh) {
    Node& n = *run.nodes[static_cast<std::size_t>(sh)];
    Placer place{n.m};
    sim::spawn(terminator(n, place.next()));
    spawn_workers(run, n, place);
    for (int p = sh; p < spec.producers; p += S) {
      const int ti = tenant_of[static_cast<std::size_t>(p)];
      wire::MessageSource src =
          spec.replay
              ? wire::MessageSource(*spec.replay, p, backend)
              : wire::MessageSource(
                    spec.tenants[static_cast<std::size_t>(ti)], backend,
                    per + (static_cast<std::uint64_t>(p) < rem ? 1 : 0),
                    wire::split_seed(seed, 0x5000 + p),
                    wire::split_seed(seed, 0x6000 + p), /*rotate=*/false);
      if (src.budget())
        sim::spawn(producer(run, n, place.next(), ti, p, std::move(src)));
      else
        --n.producers_remaining;
    }
  }

  // Barrier hook: once every producer mesh-wide has finished (their posts
  // were drained by this barrier's exchange), raise each node's stop flag
  // one lookahead out — deliveries landing on that same tick were
  // scheduled first, so payload always precedes the pills. Until then,
  // optionally rebalance the ring off persistently hot shards. The
  // timeline and supervisor are epoch clocks, not barrier work.
  bool stop_sent = false;
  std::uint64_t rebalanced = 0;
  std::uint64_t barriers = 0;
  std::vector<std::uint64_t> prev_lat_blocked(static_cast<std::size_t>(S), 0);
  auto hook = [&]() -> bool {
    const Tick now = run.nodes.front()->m.now();
    // Link-fault table first (single-threaded here, shards tick-aligned):
    // each epoch then steps under one immutable table, which keeps fault
    // runs byte-identical between sequential and threaded stepping. Runs
    // before the stop check so partitions lift during the drain phase.
    if (run.plane) run.plane->apply_links(run.ssim, now, run.ssim.trace());
    if (stop_sent) return true;
    if (std::all_of(run.nodes.begin(), run.nodes.end(),
                    [](const auto& n) { return n->producers_remaining == 0; })) {
      for (const auto& n : run.nodes) {
        Node* p = n.get();
        p->m.eq().schedule_at(p->m.now() + spec.sharding.link_latency, [p] {
          p->stop = true;
          p->ingress_wq.wake_one();
        });
      }
      stop_sent = true;
      return true;
    }
    if (spec.sharding.rebalance && ++barriers % kRebalancePeriod == 0) {
      std::vector<std::uint64_t> load;
      for (std::size_t si = 0; si < run.nodes.size(); ++si) {
        const Node& n = *run.nodes[si];
        std::uint64_t l = n.ingress.size();
        for (const auto& sc : n.stages.front().channels) l += sc.ch->depth();
        if (run.sup) {
          // SLO-aware pressure: a shard whose latency class spent this
          // window blocked is hotter than its queue depths alone say, so
          // fold the blocked-ticks growth into its load estimate (scaled
          // down to queue-depth units).
          std::uint64_t bl = 0;
          for (const auto& t : n.tenants)
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
  ShardedResult r;
  r.engine = step(run, hook, seed, scale);
  for (const auto& n : run.nodes) {
    r.shard_digests.push_back(n->digest);
    std::uint64_t delivered = 0;
    for (const auto& t : n->tenants) delivered += t.delivered;
    r.shard_delivered.push_back(delivered);
  }
  r.shards = S;
  r.sim_threads = opts.sim_threads;
  r.epochs = run.ssim.stats().epochs;
  r.cross_shard = run.ssim.stats().messages;
  r.window_stalls = run.ssim.stats().window_stalls;
  r.rebalanced = rebalanced;
  return r;
}

std::string EngineResult::csv() const {
  std::vector<std::string> header = {"scenario", "backend", "seed", "scale"};
  for (auto& col : ScenarioMetrics::csv_header()) header.push_back(col);
  CsvWriter w(header);
  for (auto& row : metrics.csv_rows()) {
    std::vector<std::string> full = {scenario, backend, std::to_string(seed),
                                     std::to_string(scale)};
    for (auto& cell : row) full.push_back(cell);
    w.row(std::move(full));
  }
  return w.str();
}

std::string EngineResult::table() const {
  return "scenario=" + scenario + " backend=" + backend +
         " seed=" + std::to_string(seed) + " scale=" + std::to_string(scale) +
         " ticks=" + std::to_string(metrics.ticks) + "\n" + metrics.table();
}

sim::SystemConfig machine_config_for(const ScenarioSpec& spec,
                                     Backend backend) {
  sim::SystemConfig cfg = squeue::config_for(backend);

  // Provision routing devices for wide fan-outs (paper § III-C2: address
  // bits J:N+1 spread virtual queues across VLRDs with zero shared state).
  // One device's prodBuf/consBuf/linkTab saturate around 4-8 heavily
  // consumed SQIs — beyond that, consumer arm-ahead registrations exceed
  // the consBuf and the fetch-retry traffic starves injection into a
  // livelock. Cap at 4 SQIs per device; queue descriptors round-robin
  // across devices, so consecutive channels land on distinct VLRDs.
  const int payload_sqis =
      (spec.topology == Topology::kFanOut || spec.topology == Topology::kMesh)
          ? spec.consumers
          : 1;
  if (backend == Backend::kVl && payload_sqis > 4)
    cfg.vlrd.num_devices = std::min<std::uint32_t>(
        (static_cast<std::uint32_t>(payload_sqis) + 3) / 4,
        1u << vlrd::kVlrdIdBits);

  // Summarize the channel graph into a ChannelDemand and let the one
  // sizing policy (runtime::size_quotas — shared with workloads::run and
  // the online QoS supervisor) carve the budgets. With the base integral
  // weights this reproduces the historic hand-carved tables bit-for-bit.
  const runtime::ChannelDemand d = channel_demand_for(spec, backend, cfg);
  const runtime::QuotaPlan plan = runtime::size_quotas(cfg, d);
  if (backend == Backend::kVl && d.relay_channels > 0)
    cfg.vlrd.per_sqi_quota = plan.per_sqi_quota;
  if (d.qos) {
    for (std::size_t c = 0; c < kQosClasses; ++c) {
      if (backend == Backend::kVl)
        cfg.vlrd.class_quota[c] = plan.vl_class_quota[c];
      else
        cfg.caf.class_credits[c] = plan.caf_class_credits[c];
    }
  }
  return cfg;
}

runtime::ChannelDemand channel_demand_for(const ScenarioSpec& spec,
                                          Backend backend,
                                          const sim::SystemConfig& cfg) {
  runtime::ChannelDemand d;

  // Relay cycles (pipeline stages, closed-loop acks) share one prodBuf
  // while consuming and producing at once — the § V starvation hazard. The
  // per-SQI quota keeps total demand below capacity so chains drain.
  const bool has_relay_cycle =
      spec.topology == Topology::kPipeline || spec.closed_loop;
  if (backend == Backend::kVl && has_relay_cycle) {
    std::uint32_t channels =
        spec.topology == Topology::kPipeline ? static_cast<std::uint32_t>(
                                                   std::max(spec.stages, 1))
        : (spec.topology == Topology::kFanOut ||
           spec.topology == Topology::kMesh)
            ? static_cast<std::uint32_t>(std::max(spec.consumers, 1))
            : 1u;
    if (spec.closed_loop)
      channels += static_cast<std::uint32_t>(std::max(spec.producers, 0));
    d.relay_channels = channels;
  }

  // QoS enforcement: partition the hardware enqueue budget (CAF per-queue
  // credits, VLRD prodBuf share) across the service classes the scenario
  // actually uses, proportionally to qos_weight(). The latency class ends
  // up with 4x the bulk class's share, so a bulk flood is NACKed (and its
  // producers parked) long before it can fill the queue ahead of latency
  // traffic. Classes no tenant uses get a token quota of 1 so stray
  // untagged messages (termination pills) still flow.
  //
  // CAF caps are per device queue, so the weighted split applies as-is
  // (payload_sqis stays 1). VLRD quotas are enforced per SQI but drawn
  // from the one shared prodBuf, so the split is further divided by the
  // number of payload channels (SQIs) the topology opens *per device* —
  // otherwise a class could hold quota x SQIs entries and crowd the shared
  // buffer anyway. (Closed-loop ack channels are not counted: their
  // occupancy is window-bounded and tiny next to payload flows.)
  if (spec.qos && (backend == Backend::kVl || backend == Backend::kCaf)) {
    d.qos = true;
    bool present[kQosClasses] = {};
    for (const auto& t : spec.tenants)
      present[static_cast<std::size_t>(t.qos)] = true;
    runtime::base_weights(d, present);
    if (backend == Backend::kVl) {
      if (spec.topology == Topology::kPipeline)
        d.payload_sqis = static_cast<std::uint32_t>(std::max(spec.stages, 1));
      else if (spec.topology == Topology::kFanOut ||
               spec.topology == Topology::kMesh)
        d.payload_sqis =
            (static_cast<std::uint32_t>(std::max(spec.consumers, 1)) +
             cfg.vlrd.num_devices - 1) /
            cfg.vlrd.num_devices;
    }
  }
  return d;
}

EngineResult run_spec(const ScenarioSpec& spec, Backend backend,
                      std::uint64_t seed, int scale,
                      const obs::RunHooks* obs) {
  runtime::Machine m(machine_config_for(spec, backend));
  squeue::ChannelFactory f(m, backend);
  Engine eng(m, f);
  return eng.run(spec, seed, scale, obs);
}

EngineResult run_scenario(const std::string& name, Backend backend,
                          std::uint64_t seed, int scale,
                          const obs::RunHooks* obs) {
  const ScenarioSpec* spec = find_scenario(name);
  if (!spec) throw std::invalid_argument("unknown scenario: " + name);
  return run_spec(*spec, backend, seed, scale, obs);
}

ScenarioSpec with_batch(const ScenarioSpec& spec, std::uint32_t batch) {
  ScenarioSpec out = spec;
  for (auto& t : out.tenants) t.batch = batch;
  return out;
}

}  // namespace vl::traffic
