#include "traffic/scenario.hpp"

#include <algorithm>
#include <cmath>

namespace vl::traffic {

const char* to_string(Topology t) {
  switch (t) {
    case Topology::kFanIn: return "fan-in";
    case Topology::kFanOut: return "fan-out";
    case Topology::kMesh: return "mesh";
    case Topology::kPipeline: return "pipeline";
  }
  return "?";
}

std::string validate(const ScenarioSpec& s) {
  if (s.name.empty()) return "scenario name is empty";
  if (s.producers < 1) return "producers must be >= 1";
  if (s.consumers < 1) return "consumers must be >= 1";
  if (s.tenants.empty()) return "scenario has no tenants";
  if (s.producers < static_cast<int>(s.tenants.size()))
    return "fewer producers than tenants (every tenant needs one)";
  if (s.topology == Topology::kPipeline) {
    if (s.stages < 2) return "pipeline needs stages >= 2";
  } else if (s.stages != 1) {
    return "stages != 1 only makes sense for the pipeline topology";
  }
  if (s.closed_loop && s.window < 1) return "closed loop needs window >= 1";
  if (s.replay && s.closed_loop)
    return "replay drives recorded send ticks; closed-loop pacing would "
           "fight them — record an open-loop scenario instead";
  for (const auto& e : s.lifecycle.events) {
    if (e.kind == replay::LifecycleEvent::Kind::kReconfig) continue;
    bool known = false;
    for (const auto& t : s.tenants)
      if (t.name == e.tenant) known = true;
    if (!known)
      return "lifecycle event names unknown tenant '" + e.tenant + "'";
  }
  for (const auto& t : s.tenants) {
    if (t.name.empty()) return "tenant name is empty";
    if (t.share <= 0.0) return "tenant '" + t.name + "': share must be > 0";
    if (t.msg_words < 1 || t.msg_words > 7)
      return "tenant '" + t.name + "': msg_words must be in 1..7";
    if (t.batch < 1 || t.batch > 64)
      return "tenant '" + t.name + "': batch must be in 1..64";
    if (t.messages_per_producer < 1)
      return "tenant '" + t.name + "': messages_per_producer must be >= 1";
    if (t.arrival.mean_gap < 1.0)
      return "tenant '" + t.name + "': mean_gap must be >= 1 tick";
    if (t.arrival.kind == ArrivalKind::kBursty &&
        (t.arrival.idle_gap < 1.0 || t.arrival.burst_dwell < 1.0 ||
         t.arrival.idle_dwell < 1.0))
      return "tenant '" + t.name + "': bursty dwell/idle params must be >= 1";
    if (t.arrival.kind == ArrivalKind::kDiurnal &&
        (t.arrival.cycle < 1.0 || t.arrival.amplitude < 0.0 ||
         t.arrival.amplitude >= 1.0))
      return "tenant '" + t.name + "': diurnal needs cycle >= 1, amplitude in [0,1)";
  }
  return {};
}

ScenarioSpec scaled(const ScenarioSpec& s, int scale) {
  ScenarioSpec out = s;
  if (scale > 1)
    for (auto& t : out.tenants)
      t.messages_per_producer *= static_cast<std::uint64_t>(scale);
  return out;
}

std::vector<int> tenant_producer_split(const ScenarioSpec& s) {
  const int nt = static_cast<int>(s.tenants.size());
  std::vector<int> alloc(nt, 1);
  int extra = s.producers - nt;
  if (extra <= 0) return alloc;

  double total_share = 0.0;
  for (const auto& t : s.tenants) total_share += t.share;
  std::vector<std::pair<double, int>> frac(nt);  // (fractional part, index)
  int assigned = 0;
  for (int i = 0; i < nt; ++i) {
    const double want = extra * s.tenants[i].share / total_share;
    const int whole = static_cast<int>(want);
    alloc[i] += whole;
    assigned += whole;
    frac[i] = {want - whole, i};
  }
  // Largest remainder, ties broken toward the lower tenant index.
  std::stable_sort(frac.begin(), frac.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  for (int k = 0; k < extra - assigned; ++k) ++alloc[frac[k].second];
  return alloc;
}

// --- preset registry ---------------------------------------------------------

namespace {

std::vector<ScenarioSpec> build_registry() {
  std::vector<ScenarioSpec> reg;

  {
    // The paper's incast kernel generalized: a bursty tenant and a steady
    // tenant share an 8:1 channel into one bottleneck consumer.
    ScenarioSpec s;
    s.name = "incast-burst";
    s.summary = "8:1 fan-in, bursty + steady tenants, bottleneck consumer";
    s.topology = Topology::kFanIn;
    s.producers = 8;
    s.consumers = 1;
    s.capacity_hint = 4096;
    s.consume_compute = 40;
    TenantSpec burst;
    burst.name = "burst";
    burst.share = 0.5;
    burst.arrival = ArrivalSpec::bursty(/*burst_gap=*/20, /*idle_gap=*/2000,
                                        /*burst_dwell=*/1500,
                                        /*idle_dwell=*/3000);
    burst.msg_words = 4;
    burst.messages_per_producer = 150;
    TenantSpec steady;
    steady.name = "steady";
    steady.share = 0.5;
    steady.arrival = ArrivalSpec::poisson(150);
    steady.msg_words = 2;
    steady.messages_per_producer = 150;
    s.tenants = {burst, steady};
    reg.push_back(std::move(s));
  }

  {
    // Day/night ramp sprayed across four consumer channels.
    ScenarioSpec s;
    s.name = "diurnal-fanout";
    s.summary = "2 producers spray 4 channels under a sinusoidal load ramp";
    s.topology = Topology::kFanOut;
    s.producers = 2;
    s.consumers = 4;
    TenantSpec web;
    web.name = "web";
    web.arrival = ArrivalSpec::diurnal(/*gap=*/60, /*amplitude=*/0.9,
                                       /*cycle=*/20000);
    web.msg_words = 3;
    web.messages_per_producer = 250;
    s.tenants = {web};
    reg.push_back(std::move(s));
  }

  {
    // Three service classes with different rates and payload sizes over an
    // any-to-any mesh.
    ScenarioSpec s;
    s.name = "multitenant-mesh";
    s.summary = "6x3 mesh, gold/silver/bronze tenants at staggered rates";
    s.topology = Topology::kMesh;
    s.producers = 6;
    s.consumers = 3;
    s.consume_compute = 15;
    TenantSpec gold, silver, bronze;
    gold.name = "gold";
    gold.share = 0.5;
    gold.arrival = ArrivalSpec::poisson(80);
    gold.msg_words = 2;
    gold.messages_per_producer = 120;
    silver.name = "silver";
    silver.share = 0.33;
    silver.arrival = ArrivalSpec::poisson(160);
    silver.msg_words = 4;
    silver.messages_per_producer = 120;
    bronze.name = "bronze";
    bronze.share = 0.17;
    bronze.arrival = ArrivalSpec::poisson(320);
    bronze.msg_words = 7;
    bronze.messages_per_producer = 120;
    s.tenants = {gold, silver, bronze};
    reg.push_back(std::move(s));
  }

  {
    // Four chained stages; latency is measured end-to-end across the chain.
    ScenarioSpec s;
    s.name = "steady-pipeline";
    s.summary = "2 producers through a 4-stage relay pipeline";
    s.topology = Topology::kPipeline;
    s.producers = 2;
    s.consumers = 1;
    s.stages = 4;
    s.produce_compute = 5;
    s.consume_compute = 10;
    TenantSpec feed;
    feed.name = "feed";
    feed.arrival = ArrivalSpec::deterministic(120);
    feed.msg_words = 5;
    feed.messages_per_producer = 150;
    s.tenants = {feed};
    reg.push_back(std::move(s));
  }

  {
    // Closed loop: each producer keeps at most `window` requests in flight,
    // paced by acks from the consumer — a latency-bound RPC client pool.
    ScenarioSpec s;
    s.name = "closed-loop-incast";
    s.summary = "4:1 fan-in, window-4 closed loop with consumer acks";
    s.topology = Topology::kFanIn;
    s.producers = 4;
    s.consumers = 1;
    s.closed_loop = true;
    s.window = 4;
    s.consume_compute = 30;
    TenantSpec rpc;
    rpc.name = "rpc";
    rpc.arrival = ArrivalSpec::poisson(50);
    rpc.messages_per_producer = 150;
    s.tenants = {rpc};
    reg.push_back(std::move(s));
  }

  {
    // Overload with producer-side shedding: generated load far exceeds the
    // consumer's service rate, so producers drop once depth() crosses the
    // bound — exercises Channel::depth() and the conservation accounting.
    ScenarioSpec s;
    s.name = "lossy-incast";
    s.summary = "8:1 overload with depth-triggered producer-side drops";
    s.topology = Topology::kFanIn;
    s.producers = 8;
    s.consumers = 1;
    s.capacity_hint = 4096;
    s.consume_compute = 120;
    TenantSpec flood;
    flood.name = "flood";
    flood.arrival = ArrivalSpec::bursty(/*burst_gap=*/10, /*idle_gap=*/500,
                                        /*burst_dwell=*/4000,
                                        /*idle_dwell=*/1000);
    flood.msg_words = 2;
    flood.messages_per_producer = 120;
    flood.drop_depth = 48;
    s.tenants = {flood};
    reg.push_back(std::move(s));
  }

  {
    // QoS flavour of the incast kernel: a latency-class RPC tenant shares
    // the 8:1 bottleneck with a standard tenant and a bulk flood. With
    // s.qos set, the hardware knobs (CAF class credit caps, VLRD class
    // quotas) bound how much of the queue the flood may occupy, so the
    // latency tenant's messages never sit behind a full buffer of bulk.
    ScenarioSpec s;
    s.name = "qos-incast";
    s.summary = "8:1 fan-in, latency/standard/bulk classes, QoS enforced";
    s.topology = Topology::kFanIn;
    s.producers = 8;
    s.consumers = 1;
    s.capacity_hint = 4096;
    s.consume_compute = 40;
    s.qos = true;
    TenantSpec rt;
    rt.name = "rt";
    rt.qos = QosClass::kLatency;
    rt.share = 0.25;
    rt.arrival = ArrivalSpec::poisson(400);
    rt.msg_words = 2;
    rt.messages_per_producer = 150;
    // Attainable with QoS enforced on both hardware backends (p99 ~1.4k on
    // CAF, ~9k on VL across seeds) and violated on VL without it (~10.5k).
    rt.slo_p99 = 10000;
    TenantSpec web;
    web.name = "web";
    web.qos = QosClass::kStandard;
    web.share = 0.25;
    web.arrival = ArrivalSpec::poisson(250);
    web.msg_words = 2;
    web.messages_per_producer = 150;
    web.slo_p99 = 20000;
    TenantSpec bulk;
    bulk.name = "bulk";
    bulk.qos = QosClass::kBulk;
    bulk.share = 0.5;
    bulk.arrival = ArrivalSpec::bursty(/*burst_gap=*/15, /*idle_gap=*/1500,
                                       /*burst_dwell=*/2500,
                                       /*idle_dwell=*/1500);
    bulk.msg_words = 4;
    bulk.messages_per_producer = 150;
    s.tenants = {rt, web, bulk};
    reg.push_back(std::move(s));
  }

  {
    // Adversarial flavour of qos-incast: the bulk tenant turns hostile —
    // near-saturation bursts in large batched frames, tuned so the static
    // weight carve alone cannot hold the latency tenant's SLO. The preset
    // ships with the closed-loop supervisor on; the PR-8 bench gate pins
    // the supervisor's gain by re-running it with --no-supervisor.
    ScenarioSpec s;
    s.name = "qos-adversarial-bulk";
    s.summary = "8:1 fan-in, hostile batched bulk flood vs latency SLO, "
                "closed-loop supervisor";
    s.topology = Topology::kFanIn;
    s.producers = 8;
    s.consumers = 1;
    s.capacity_hint = 4096;
    s.consume_compute = 90;
    s.qos = true;
    s.supervisor = true;
    TenantSpec rt;
    rt.name = "rt";
    rt.qos = QosClass::kLatency;
    rt.share = 0.25;
    rt.arrival = ArrivalSpec::poisson(400);
    rt.msg_words = 2;
    rt.messages_per_producer = 500;
    rt.slo_p99 = 4000;
    TenantSpec web;
    web.name = "web";
    web.qos = QosClass::kStandard;
    web.share = 0.25;
    web.arrival = ArrivalSpec::poisson(250);
    web.msg_words = 2;
    web.messages_per_producer = 600;
    web.slo_p99 = 20000;
    TenantSpec bulk;
    bulk.name = "bulk";
    bulk.qos = QosClass::kBulk;
    bulk.share = 0.5;
    bulk.arrival = ArrivalSpec::bursty(/*burst_gap=*/5, /*idle_gap=*/400,
                                       /*burst_dwell=*/6000,
                                       /*idle_dwell=*/800);
    bulk.msg_words = 7;
    bulk.batch = 16;
    bulk.messages_per_producer = 250;
    s.tenants = {rt, web, bulk};
    reg.push_back(std::move(s));
  }

  {
    // Class mix under a day/night ramp over an any-to-any mesh: the
    // latency-class API tenant rides the diurnal cycle, a bulk backfill
    // tenant grinds continuously, and QoS keeps the backfill from crowding
    // the API's peak out of the queues.
    ScenarioSpec s;
    s.name = "qos-diurnal-mix";
    s.summary = "6x3 mesh, diurnal latency API over a steady bulk backfill";
    s.topology = Topology::kMesh;
    s.producers = 6;
    s.consumers = 3;
    s.consume_compute = 25;
    s.qos = true;
    TenantSpec api;
    api.name = "api";
    api.qos = QosClass::kLatency;
    api.share = 0.34;
    api.arrival = ArrivalSpec::diurnal(/*gap=*/150, /*amplitude=*/0.8,
                                       /*cycle=*/20000);
    api.msg_words = 2;
    api.messages_per_producer = 150;
    api.slo_p99 = 8000;
    TenantSpec batch;
    batch.name = "batch";
    batch.qos = QosClass::kBulk;
    batch.share = 0.66;
    batch.arrival = ArrivalSpec::poisson(60);
    batch.msg_words = 6;
    batch.messages_per_producer = 200;
    s.tenants = {api, batch};
    reg.push_back(std::move(s));
  }

  {
    // The sharding workhorse (ROADMAP item 2): three service classes under
    // a day/night ramp, fanned out one channel per consumer, designed to
    // run across a shard mesh. A single node runs it too (small —
    // messages_per_producer below — so the every-preset regression stays
    // cheap); run_sharded ignores messages_per_producer and spreads
    // sharding.messages_total over the producers against a
    // sharding.population-sized tenant ring instead.
    ScenarioSpec s;
    s.name = "shard-diurnal";
    s.summary = "32x32 fan-out, 3-class diurnal mix over a 100k-tenant ring";
    s.topology = Topology::kFanOut;
    s.producers = 32;
    s.consumers = 32;
    s.capacity_hint = 4096;
    s.consume_compute = 20;
    s.qos = true;
    s.sharding.population = 100000;
    s.sharding.messages_total = 32768;
    s.sharding.link_latency = 512;
    s.sharding.link_window = 4096;
    TenantSpec web;
    web.name = "web";
    web.qos = QosClass::kLatency;
    web.share = 0.4;
    web.arrival = ArrivalSpec::diurnal(/*gap=*/40, /*amplitude=*/0.8,
                                       /*cycle=*/40000);
    web.msg_words = 2;
    web.messages_per_producer = 20;
    web.batch = 8;
    web.slo_p99 = 20000;
    TenantSpec api;
    api.name = "api";
    api.qos = QosClass::kStandard;
    api.share = 0.3;
    api.arrival = ArrivalSpec::poisson(60);
    api.msg_words = 3;
    api.messages_per_producer = 20;
    api.batch = 8;
    TenantSpec bulk;
    bulk.name = "bulk";
    bulk.qos = QosClass::kBulk;
    bulk.share = 0.3;
    bulk.arrival = ArrivalSpec::bursty(/*burst_gap=*/20, /*idle_gap=*/2000,
                                       /*burst_dwell=*/3000,
                                       /*idle_dwell=*/2000);
    bulk.msg_words = 5;
    bulk.messages_per_producer = 20;
    bulk.batch = 8;
    s.tenants = {web, api, bulk};
    reg.push_back(std::move(s));
  }

  return reg;
}

const std::vector<ScenarioSpec>& registry() {
  static const std::vector<ScenarioSpec> reg = build_registry();
  return reg;
}

}  // namespace

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const auto& s : registry()) names.push_back(s.name);
  return names;
}

const ScenarioSpec* find_scenario(const std::string& name) {
  for (const auto& s : registry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace vl::traffic
