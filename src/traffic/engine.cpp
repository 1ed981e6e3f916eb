#include "traffic/engine.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/csv.hpp"
#include "fault/plane.hpp"
#include "replay/lifecycle.hpp"
#include "runtime/qos_supervisor.hpp"
#include "sim/task.hpp"
#include "traffic/wire.hpp"

namespace vl::traffic {

namespace {

using squeue::Channel;
using squeue::Msg;
using sim::Co;
using sim::SimThread;
using wire::kPillTenant;
using wire::kTickMask;

/// QoS supervisor control cadence: a few epochs of reaction time stay well
/// inside one bulk burst dwell.
constexpr Tick kSupervisorPeriod = 2500;

struct StageChannel {
  std::unique_ptr<Channel> ch;
  int workers = 1;
  int workers_done = 0;  ///< Workers that reached their drain target.
  std::string label;
  /// Payload messages fed into this channel (producer flushes + upstream
  /// relays). Final by the time its termination pill is built, so the pill
  /// can carry the exact drain target for the channel's sole worker.
  std::uint64_t fed = 0;
};

struct Stage {
  std::vector<StageChannel> channels;
  int workers_remaining = 0;
};

struct Ctx {
  runtime::Machine& m;
  const ScenarioSpec& spec;
  squeue::Backend backend;

  std::vector<Stage> stages;
  std::vector<std::unique_ptr<Channel>> acks;  // per producer, closed loop
  std::vector<TenantMetrics> tenants;

  int producers_remaining = 0;
  sim::AsyncOp<int> producers_done;

  /// Fault plane (null on clean runs). `chan_faults` pre-gates the
  /// per-message loss/dup hook: spec has loss/dup events AND the backend
  /// is a software one (hardware backends model reliable interconnects).
  fault::FaultPlane* fp = nullptr;
  bool chan_faults = false;

  /// Send-boundary trace tap (null unless the caller's RunHooks carry a
  /// recorder). Recording is a pure observation — no events scheduled.
  replay::TraceRecorder* rec = nullptr;
  /// Lifecycle plane (null on static runs): tenant churn windows and
  /// one-shot SQI reconfig events, consulted by producers and workers.
  replay::LifecyclePlane* lp = nullptr;
};

/// One producer thread, live or replaying — `src` decides where each
/// message comes from. A replayed stream is post-shed and paces no acks, so
/// shedding, fault loss/dup and gap scaling, produce_compute, churn waits
/// and the closed-loop window are all switched off here, once.
Co<void> producer(Ctx& cx, SimThread t, int tenant_id, int pid,
                  wire::MessageSource src) {
  const TenantSpec& ts = cx.spec.tenants[static_cast<std::size_t>(tenant_id)];
  const bool live = src.live();
  replay::LifecyclePlane* lp =
      live && cx.lp && cx.lp->tenant_has_events(tenant_id) ? cx.lp : nullptr;
  fault::FaultPlane* fp = live ? cx.fp : nullptr;
  const bool chan_faults = live && cx.chan_faults;
  const std::uint64_t drop_depth = live ? ts.drop_depth : 0;
  const Tick compute = live ? cx.spec.produce_compute : 0;
  Channel* ack = live && cx.spec.closed_loop
                     ? cx.acks[static_cast<std::size_t>(pid)].get()
                     : nullptr;
  auto& eq = cx.m.eq();
  auto& tm = cx.tenants[static_cast<std::size_t>(tenant_id)];
  Stage& s0 = cx.stages.front();
  const auto nch = static_cast<std::uint64_t>(s0.channels.size());
  const std::uint64_t target = src.budget();
  // Closed loops cap the effective batch at the window — a producer may
  // never hold more unacked messages than its in-flight budget.
  const std::uint64_t batch =
      ack ? std::min<std::uint64_t>(ts.batch, cx.spec.window)
          : std::max<std::uint32_t>(ts.batch, 1);
  int outstanding = 0;
  // Per-channel sub-batches: every message routes individually (fan-out
  // rotates per message, mesh redraws per message) and accumulates into
  // its channel's sub-batch; at lap end the non-empty sub-batches flush in
  // ascending channel order, one send_many per channel touched. This keeps
  // batched injection (the per-lap accumulation trade) without pinning a
  // whole burst to one consumer. With batch == 1 a lap is one message, so
  // the rotation counter and mesh RNG draws replay the historic per-lap
  // routing draw for draw and BENCH baselines are unaffected.
  std::vector<std::vector<Msg>> sub(nch);

  for (std::uint64_t i = 0; i < target;) {
    // Assemble up to `batch` messages: each paces on the source and is
    // stamped at its generation instant, so batching adds the
    // producer-side accumulation delay to the measured latency — exactly
    // the trade batched injection makes.
    std::uint64_t assembled = 0;
    while (assembled < batch && i < target) {
      if (lp) {
        Tick at;
        while ((at = lp->next_active(tenant_id, eq.now())) != 0) {
          if (at == replay::LifecyclePlane::kNever) {
            // Departed for good: the rest of the budget is forfeited, not
            // dropped — never generated, so conservation stays exact and
            // the count-carrying pills still match what was fed.
            lp->note_forfeit(target - i);
            i = target;
            break;
          }
          co_await sim::Delay(eq, at - eq.now());
        }
        if (i >= target) break;
      }
      Tick gap = src.next_gap(eq.now());
      if (fp) gap = fp->scale_gap(0, ts.qos, eq.now(), gap);
      if (gap) co_await sim::Delay(eq, gap);
      if (compute) co_await t.compute(compute);

      ++tm.generated;
      // Routed before the shed checks: dropped messages advance the
      // fan-out rotation and the mesh RNG too.
      const wire::MessageSource::Draw d = src.take(nch);
      Channel& ch = *s0.channels[d.dst].ch;
      if (drop_depth && ch.depth() >= drop_depth) {
        ++tm.dropped;
        ++i;
        continue;
      }
      // Channel-level fault fate, decided before the message joins its
      // sub-batch: a dropped/duplicated message never desyncs the `fed`
      // pill counts, because only what actually lands in the batch is
      // counted at flush time.
      int copies = 1;
      if (chan_faults) {
        copies = fp->chan_copies(0, eq.now());
        if (copies == 0) {
          ++tm.dropped;
          ++i;
          continue;
        }
      }
      const Msg msg = wire::make_msg(d, tenant_id, pid, eq.now(), i);
      for (int k = 0; k < copies; ++k) sub[d.dst].push_back(msg);
      if (cx.rec)
        for (int k = 0; k < copies; ++k)
          cx.rec->on_send(static_cast<std::uint16_t>(pid),
                          static_cast<std::uint16_t>(tenant_id), msg.qos,
                          msg.n, d.dst, eq.now());
      ++i;
      ++assembled;
    }
    // Flush the lap: ascending channel order, closed-loop window re-checked
    // per sub-batch so outstanding never exceeds the in-flight budget.
    for (std::uint64_t c = 0; c < nch; ++c) {
      auto& b = sub[c];
      if (b.empty()) continue;
      if (ack)
        while (outstanding + static_cast<int>(b.size()) > cx.spec.window) {
          co_await ack->recv1(t);
          --outstanding;
        }
      const Tick send_start = eq.now();
      co_await s0.channels[c].ch->send_many(t, b);  // one batched injection
      tm.blocked_ticks += eq.now() - send_start;  // time-in-backpressure
      tm.sent += b.size();
      s0.channels[c].fed += b.size();
      if (ack) outstanding += static_cast<int>(b.size());
      b.clear();
    }
  }
  if (ack)
    while (outstanding > 0) {
      co_await ack->recv1(t);
      --outstanding;
    }
  if (--cx.producers_remaining == 0) cx.producers_done.complete(0);
}

Co<void> worker(Ctx& cx, SimThread t, int stage_idx, int chan_idx) {
  Stage& st = cx.stages[static_cast<std::size_t>(stage_idx)];
  StageChannel& sc = st.channels[static_cast<std::size_t>(chan_idx)];
  Channel& ch = *sc.ch;
  const bool final_stage =
      stage_idx + 1 == static_cast<int>(cx.stages.size());
  auto& eq = cx.m.eq();
  // Flattened channel ordinal (the reconfig@:channel= numbering: stage by
  // stage, channel by channel).
  int flat = chan_idx;
  for (int s = 0; s < stage_idx; ++s)
    flat += static_cast<int>(cx.stages[static_cast<std::size_t>(s)]
                                 .channels.size());

  // A channel's sole worker drains opportunistically in batches and
  // terminates on the exact payload count its pill carries — arrival order
  // is not trusted, because VL's injection-retry recovery can surface the
  // pill ahead of a straggling payload line. Shared channels stay on
  // one-message receives and first-pill semantics: the coordinator sends
  // one pill per worker, and their payload split is not knowable up front.
  const std::size_t window = sc.workers == 1 ? std::size_t{8} : 1;
  std::vector<Msg> drained(window);
  std::vector<Msg> relay;
  std::uint64_t expected = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t received = 0;

  while (received < expected) {
    // SQI re-registration (reconfig@): between receive laps the consumer
    // drops its armed demand and re-registers — § III-B migration onto the
    // same thread. Landed frames stay readable, so no message is lost.
    if (cx.lp && cx.lp->take_reconfig(flat, eq.now()) && ch.reconfigure(t))
      cx.lp->note_reconfig_applied();
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
      if (cx.spec.consume_compute) co_await t.compute(cx.spec.consume_compute);
      if (final_stage) {
        auto& tm = cx.tenants[static_cast<std::size_t>(tenant)];
        ++tm.delivered;
        tm.latency.record((eq.now() - msg.w[0]) & kTickMask);
        if (cx.spec.closed_loop) {
          const auto pid = static_cast<std::size_t>((msg.w[0] >> 48) & 0xff);
          co_await cx.acks[pid]->send1(t, 1);
        }
      } else {
        // Pipeline relay: preserve the stamp so latency stays end-to-end.
        relay.push_back(msg);
      }
      ++received;
    }
    if (!relay.empty()) {
      Stage& next = cx.stages[static_cast<std::size_t>(stage_idx) + 1];
      co_await next.channels.front()
          .ch->send_many(t, relay);  // relay the drained run as one batch
      next.channels.front().fed += relay.size();
    }
  }

  ++sc.workers_done;
  if (--st.workers_remaining == 0 && !final_stage) {
    // Last worker of this stage: all payload is already enqueued
    // downstream, so pills sent now arrive after it.
    Stage& next = cx.stages[static_cast<std::size_t>(stage_idx) + 1];
    for (auto& nc : next.channels)
      for (int k = 0; k < nc.workers; ++k)
        co_await nc.ch->send(t, wire::make_pill(nc.workers == 1 ? nc.fed : 0));
  }
}

Co<void> coordinator(Ctx& cx, SimThread t) {
  co_await cx.producers_done;
  for (auto& sc : cx.stages.front().channels)
    for (int k = 0; k < sc.workers; ++k)
      co_await sc.ch->send(t, wire::make_pill(sc.workers == 1 ? sc.fed : 0));
}

/// Visits every tenant's metrics (the class-series fold source).
TenantVisitor tenants_of(Ctx& cx) {
  return [&cx](const std::function<void(const TenantMetrics&)>& fn) {
    for (const auto& t : cx.tenants) fn(t);
  };
}

/// Register the run's timeline series: the kernel/device counters plus the
/// per-class cumulative traffic counters. Closures read cx/machine state in
/// place — call Timeline::detach() before cx's metrics are moved out.
void register_series(obs::Timeline& tl, Ctx& cx, runtime::Machine& m,
                     squeue::ChannelFactory& f) {
  wire::register_device_series(tl, f.backend(), [&](const auto& fn) {
    std::uint64_t depth = 0;
    for (auto& st : cx.stages)
      for (auto& sc : st.channels) depth += sc.ch->depth();
    fn(m, f, depth);
  });
  register_class_series(tl, tenants_of(cx));
}

/// One epoch clock of run_sampled: `at(boundary)` runs at every multiple
/// of `period` past the start tick.
struct EpochClock {
  Tick period;
  std::function<void(Tick)> at;
  Tick next = 0;
};

/// Drive the queue to completion, running each clock at its epoch
/// boundaries. Replays the exact event sequence m.run() would: events step
/// one at a time, and a boundary is handled *between* events, once every
/// event <= it has fired and the next lies beyond it. now() first advances
/// to the boundary (run_until fires nothing there), so knob writes made at
/// the boundary wake their waiters on the boundary tick itself; now() never
/// passes the last event, so the run's measured ticks do not depend on the
/// clocks. Clocks due on the same tick run in list order.
void run_sampled(sim::EventQueue& eq, std::vector<EpochClock> clocks) {
  if (clocks.empty()) {
    eq.run();
    return;
  }
  for (auto& c : clocks) c.next = eq.now() + c.period;
  for (;;) {
    const auto nt = eq.peek_next_tick();
    if (!nt) break;
    for (;;) {
      EpochClock* due = nullptr;
      for (auto& c : clocks)
        if (c.next < *nt && (!due || c.next < due->next)) due = &c;
      if (!due) break;
      eq.run_until(due->next);
      due->at(due->next);
      due->next += due->period;
    }
    eq.step();
  }
}

}  // namespace

EngineResult Engine::run(const ScenarioSpec& raw, std::uint64_t seed,
                         int scale, const obs::RunHooks* obs) {
  const std::string err = validate(raw);
  if (!err.empty())
    throw std::invalid_argument("invalid scenario '" + raw.name + "': " + err);
  const ScenarioSpec spec = scaled(raw, scale);

  Ctx cx{m_, spec, f_.backend(), {}, {}, {}, 0, {}};

  // Fault plane: armed before any actor is spawned, so its stall events
  // hold fixed positions in the deterministic (tick, seq) stream.
  std::unique_ptr<fault::FaultPlane> plane;
  if (!spec.faults.empty()) {
    plane = std::make_unique<fault::FaultPlane>(spec.faults, 1);
    plane->arm_machine(m_, 0);
    cx.fp = plane.get();
    cx.chan_faults = plane->mutates_channels() &&
                     (f_.backend() == squeue::Backend::kBlfq ||
                      f_.backend() == squeue::Backend::kZmq);
  }

  // --- replay / record / lifecycle hookup -----------------------------------
  // All wired before any actor spawns: the spawn site picks each
  // producer's message source, and the recorder must be live before the
  // first send.
  cx.rec = wire::begin_trace_io(spec, f_.backend(), seed, obs,
                                /*sharded=*/false);
  std::unique_ptr<replay::LifecyclePlane> lplane;
  if (!spec.lifecycle.empty()) {
    if (spec.lifecycle.has_reconfig() &&
        f_.backend() != squeue::Backend::kVl &&
        f_.backend() != squeue::Backend::kVlIdeal)
      throw std::invalid_argument(
          "lifecycle: reconfig@ is SQI re-registration — only the VL "
          "backends have a registration to drop; backend '" +
          std::string(squeue::to_string(f_.backend())) + "' does not");
    std::vector<std::string> names;
    for (const auto& t : spec.tenants) names.push_back(t.name);
    lplane = std::make_unique<replay::LifecyclePlane>(spec.lifecycle, names);
    cx.lp = lplane.get();
    // Quota re-carve at every churn boundary: recompute the per-class
    // carve over the classes still active, so hardware budgets track the
    // live tenant mix (runtime::size_quotas — the same arithmetic as the
    // static carve and the QoS supervisor, so nothing drifts).
    if (spec.qos && (f_.backend() == squeue::Backend::kVl ||
                     f_.backend() == squeue::Backend::kCaf)) {
      for (const Tick at : cx.lp->churn_boundaries()) {
        m_.eq().schedule_at(at, [this, &cx, &spec, at] {
          bool present[kQosClasses] = {};
          bool any = false;
          for (std::size_t ti = 0; ti < spec.tenants.size(); ++ti) {
            if (!cx.lp->tenant_active_at(static_cast<int>(ti), at)) continue;
            present[static_cast<std::size_t>(spec.tenants[ti].qos)] = true;
            any = true;
          }
          if (!any) return;  // everyone gone — leave the carve alone
          runtime::ChannelDemand d =
              channel_demand_for(spec, f_.backend(), m_.cfg());
          runtime::base_weights(d, present);
          const runtime::QuotaPlan plan = runtime::size_quotas(m_.cfg(), d);
          for (std::size_t c = 0; c < kQosClasses; ++c) {
            if (f_.backend() == squeue::Backend::kVl)
              m_.cluster().set_class_quota(static_cast<QosClass>(c),
                                           plan.vl_class_quota[c]);
            else
              f_.caf_device().set_class_credit(static_cast<QosClass>(c),
                                               plan.caf_class_credits[c]);
          }
          cx.lp->note_recarve();
        });
      }
    }
  }

  // --- wire the topology ----------------------------------------------------
  std::uint8_t frame = 1;
  for (const auto& t : spec.tenants)
    frame = std::max(frame, wire::payload_words(cx.backend, t.msg_words));
  // A foreign trace may carry wider payloads than the spec. CAF stays at
  // its single-word frame: replayed record widths clamp to 1 there (see
  // wire::payload_words), so widening the channel would desynchronize the
  // fixed frame length from the messages actually sent.
  if (spec.replay && cx.backend != squeue::Backend::kCaf)
    for (const auto& r : spec.replay->records) frame = std::max(frame, r.words);

  const int nstages = spec.topology == Topology::kPipeline ? spec.stages : 1;
  for (int s = 0; s < nstages; ++s) {
    Stage st;
    const int nchan =
        (spec.topology == Topology::kFanOut || spec.topology == Topology::kMesh)
            ? spec.consumers
            : 1;
    const int workers_per_chan = nchan == 1 ? spec.consumers : 1;
    for (int c = 0; c < nchan; ++c) {
      StageChannel sc;
      sc.label = "s" + std::to_string(s) + "c" + std::to_string(c);
      sc.ch = f_.make(sc.label, spec.capacity_hint, frame);
      sc.workers = workers_per_chan;
      st.workers_remaining += workers_per_chan;
      st.channels.push_back(std::move(sc));
    }
    cx.stages.push_back(std::move(st));
  }

  if (spec.closed_loop)
    for (int p = 0; p < spec.producers; ++p)
      cx.acks.push_back(f_.make("ack" + std::to_string(p), 0, 1));

  for (const auto& t : spec.tenants) {
    TenantMetrics tm;
    tm.tenant = t.name;
    tm.qos = t.qos;
    tm.slo_p99 = t.slo_p99;
    cx.tenants.push_back(std::move(tm));
  }

  // --- spawn the actors -----------------------------------------------------
  const std::vector<int> split = tenant_producer_split(spec);
  cx.producers_remaining = 0;
  for (int n : split) cx.producers_remaining += n;

  CoreId core = 0;
  auto next_thread = [&] {
    const CoreId c = core;
    core = (core + 1) % m_.num_cores();
    return m_.thread_on(c);
  };

  int pid = 0;
  for (std::size_t ti = 0; ti < split.size(); ++ti)
    for (int k = 0; k < split[ti]; ++k, ++pid) {
      const TenantSpec& ts = spec.tenants[ti];
      wire::MessageSource src =
          spec.replay ? wire::MessageSource(*spec.replay, pid, cx.backend)
                      : wire::MessageSource(
                            ts, cx.backend, ts.messages_per_producer,
                            wire::split_seed(seed, pid),
                            wire::split_seed(seed, 0x4000 + pid),
                            spec.topology == Topology::kFanOut);
      sim::spawn(producer(cx, next_thread(), static_cast<int>(ti), pid,
                          std::move(src)));
    }
  for (std::size_t s = 0; s < cx.stages.size(); ++s)
    for (std::size_t c = 0; c < cx.stages[s].channels.size(); ++c)
      for (int w = 0; w < cx.stages[s].channels[c].workers; ++w)
        sim::spawn(worker(cx, next_thread(), static_cast<int>(s),
                          static_cast<int>(c)));
  sim::spawn(coordinator(cx, next_thread()));

  // --- observability and control (neither schedules an event) -------------
  obs::Timeline* tl = obs ? obs->timeline : nullptr;
  std::vector<EpochClock> clocks;
  if (tl) {
    register_series(*tl, cx, m_, f_);
    if (cx.fp) cx.fp->register_series(*tl);
    clocks.push_back({std::max<Tick>(obs->sample_every, 1),
                      [tl](Tick at) { tl->sample(at); }});
  }
  // The supervisor reads its own private timeline on its own fixed clock,
  // so attaching hooks (or changing their cadence) cannot change what it
  // decides. It only reads the latest cut, so one epoch is retained.
  obs::Timeline sup_tl(1);
  std::unique_ptr<runtime::QosSupervisor> sup =
      wire::make_supervisor(spec, f_.backend());
  if (sup) {
    wire::attach_machine(*sup, spec, f_.backend(), m_, f_);
    register_class_series(sup_tl, tenants_of(cx));
    if (tl) sup->register_series(*tl);
    clocks.push_back({kSupervisorPeriod, [&](Tick at) {
                        sup_tl.sample(at);
                        sup->on_epoch(sup_tl);
                      }});
  }
  if (obs && obs->tracer) {
    m_.eq().set_trace(&obs->tracer->buffer(0));
    obs->tracer->set_process_name(0, "machine");
  }

  const Tick t0 = m_.now();
  const std::uint64_t ev0 = m_.eq().executed();
  run_sampled(m_.eq(), std::move(clocks));
  if (tl) {
    // Final cumulative sample: the last epoch's class series equal the
    // end-of-run ScenarioMetrics by construction (same aggregation, same
    // source counters). Then detach — the closures dangle once cx's
    // metrics move into the result.
    tl->sample(m_.now());
    tl->detach();
  }
  m_.eq().set_trace(nullptr);

  // A drained queue with workers still parked is a stranded consumer
  // (lost pill, protocol deadlock): fail loudly rather than report a
  // partial run.
  std::string stuck;
  for (const Stage& st : cx.stages)
    for (const StageChannel& sc : st.channels)
      if (sc.workers_done < sc.workers) stuck += " " + sc.label;
  if (!stuck.empty())
    throw std::runtime_error("scenario '" + spec.name +
                             "': queue drained with workers still waiting "
                             "on stage channels" + stuck);

  // --- collect --------------------------------------------------------------
  EngineResult r;
  r.scenario = spec.name;
  r.backend = squeue::to_string(f_.backend());
  r.seed = seed;
  r.scale = scale;
  r.events = m_.eq().executed() - ev0;
  r.metrics.tenants = std::move(cx.tenants);
  r.metrics.ticks = m_.now() - t0;
  r.metrics.ns = m_.ns(r.metrics.ticks);
  r.device_stats = m_.statset();
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
                                     squeue::Backend backend) {
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
  if (backend == squeue::Backend::kVl && payload_sqis > 4)
    cfg.vlrd.num_devices = std::min<std::uint32_t>(
        (static_cast<std::uint32_t>(payload_sqis) + 3) / 4,
        1u << vlrd::kVlrdIdBits);

  // Summarize the channel graph into a ChannelDemand and let the one
  // sizing policy (runtime::size_quotas — shared with workloads::run and
  // the online QoS supervisor) carve the budgets. With the base integral
  // weights this reproduces the historic hand-carved tables bit-for-bit.
  const runtime::ChannelDemand d = channel_demand_for(spec, backend, cfg);
  const runtime::QuotaPlan plan = runtime::size_quotas(cfg, d);
  if (backend == squeue::Backend::kVl && d.relay_channels > 0)
    cfg.vlrd.per_sqi_quota = plan.per_sqi_quota;
  if (d.qos) {
    for (std::size_t c = 0; c < kQosClasses; ++c) {
      if (backend == squeue::Backend::kVl)
        cfg.vlrd.class_quota[c] = plan.vl_class_quota[c];
      else
        cfg.caf.class_credits[c] = plan.caf_class_credits[c];
    }
  }
  return cfg;
}

runtime::ChannelDemand channel_demand_for(const ScenarioSpec& spec,
                                          squeue::Backend backend,
                                          const sim::SystemConfig& cfg) {
  runtime::ChannelDemand d;

  // Relay cycles (pipeline stages, closed-loop acks) share one prodBuf
  // while consuming and producing at once — the § V starvation hazard. The
  // per-SQI quota keeps total demand below capacity so chains drain.
  const bool has_relay_cycle =
      spec.topology == Topology::kPipeline || spec.closed_loop;
  if (backend == squeue::Backend::kVl && has_relay_cycle) {
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
  if (spec.qos &&
      (backend == squeue::Backend::kVl || backend == squeue::Backend::kCaf)) {
    d.qos = true;
    bool present[kQosClasses] = {};
    for (const auto& t : spec.tenants)
      present[static_cast<std::size_t>(t.qos)] = true;
    runtime::base_weights(d, present);
    if (backend == squeue::Backend::kVl) {
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

EngineResult run_spec(const ScenarioSpec& spec, squeue::Backend backend,
                      std::uint64_t seed, int scale,
                      const obs::RunHooks* obs) {
  runtime::Machine m(machine_config_for(spec, backend));
  squeue::ChannelFactory f(m, backend);
  Engine eng(m, f);
  return eng.run(spec, seed, scale, obs);
}

EngineResult run_scenario(const std::string& name, squeue::Backend backend,
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
