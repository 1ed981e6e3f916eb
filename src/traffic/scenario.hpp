#pragma once
// Declarative traffic scenarios.
//
// A ScenarioSpec describes *what* load to offer — topology, tenants, their
// arrival processes, message sizes, loop mode — independent of *which*
// queue backend carries it. The engine (traffic/engine.hpp) instantiates a
// spec over any squeue::ChannelFactory, so one scenario definition sweeps
// all five paper backends.
//
// A small named-preset registry captures the scenarios the bench CLI and
// tests exercise; new presets are one table entry.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fault/spec.hpp"
#include "replay/lifecycle.hpp"
#include "traffic/arrival.hpp"

namespace vl::replay {
struct Trace;
}

namespace vl::traffic {

/// How producers, channels, and consumers are wired.
enum class Topology {
  kFanIn,     ///< All producers share one channel; `consumers` drain it.
  kFanOut,    ///< `consumers` channels, one consumer each; every producer
              ///< sprays across all of them.
  kMesh,      ///< Like kFanOut but producers pick the target channel
              ///< pseudo-randomly per message (M:N any-to-any).
  kPipeline,  ///< `stages` chained channels; stage workers relay messages
              ///< so latency is end-to-end across the chain.
};

const char* to_string(Topology t);

/// One tenant's contribution to the offered load.
struct TenantSpec {
  std::string name = "t0";
  double share = 1.0;        ///< Fraction of `producers` this tenant gets
                             ///< (largest-remainder split, min 1).
  ArrivalSpec arrival;       ///< Inter-arrival process per producer.
  std::uint8_t msg_words = 1;           ///< Payload words (1..7).
  std::uint64_t messages_per_producer = 200;  ///< At scale 1.
  /// Producer-side injection batch: messages are accumulated (each still
  /// pacing on the arrival process and stamped at generation time) and
  /// injected with one batched Channel::send_many — the backend amortizes
  /// its per-message device cost across the run (VL: one port/quota
  /// acquisition per run of lines; CAF: one multi-frame credit grant;
  /// ZMQ/BLFQ: one lock hold / index CAS per ring run). 1 = per-message
  /// injection (the classic paper shape). Closed-loop runs cap the
  /// effective batch at the window.
  std::uint32_t batch = 1;
  /// Producer-side load shedding: generated messages are dropped (counted,
  /// not sent) while the target channel's depth() is at or above this
  /// bound. 0 disables shedding — every generated message is sent.
  std::uint64_t drop_depth = 0;
  /// Service class. With ScenarioSpec::qos set, the class maps onto the
  /// hardware QoS knobs (CAF per-class credit caps, VLRD per-class prodBuf
  /// quotas) so latency-class tenants keep enqueue headroom while bulk
  /// absorbs the back-pressure; without it the class is still recorded in
  /// the metrics but not enforced anywhere.
  QosClass qos = QosClass::kStandard;
  /// SLO target: the p99 end-to-end latency budget, in ticks (0 = no SLO).
  /// Reported as the percentage of delivered messages within the budget.
  Tick slo_p99 = 0;
};

/// Parameters for sharded runs (traffic/sharded_engine.hpp): a logical
/// tenant population routed over a consistent-hash ring onto S shards,
/// each a full Machine, synchronised by conservative lookahead. A
/// single-node run ignores this block entirely — a preset
/// carrying it still runs (small) on one machine, which is what keeps
/// sharded presets inside the every-preset regression tests.
struct ShardingSpec {
  std::uint64_t population = 0;      ///< Tenant ids on the hash ring.
  std::uint64_t messages_total = 0;  ///< Global message budget at scale 1.
  Tick link_latency = 512;           ///< Inter-shard hop; also the lookahead.
  std::uint32_t link_window = 4096;  ///< Max in-flight posts per link/epoch.
  bool rebalance = false;            ///< Overload-triggered tenant moves.
};

struct ScenarioSpec {
  std::string name;
  std::string summary;       ///< One-line description for --list.
  Topology topology = Topology::kFanIn;
  int producers = 4;         ///< Total producer threads across tenants.
  int consumers = 1;         ///< Consumers (kFanIn) or channels (kFanOut /
                             ///< kMesh, one consumer each).
  int stages = 1;            ///< kPipeline chain length (>= 2 meaningful).
  std::size_t capacity_hint = 0;   ///< Ring sizing for software backends.
  bool closed_loop = false;  ///< Producers cap in-flight messages…
  int window = 4;            ///< …at this many, via per-producer ack
                             ///< channels from the final consumers.
  Tick produce_compute = 0;  ///< Core cycles of work before each send.
  Tick consume_compute = 0;  ///< Core cycles of work per delivery.
  /// Enforce tenant QoS classes in hardware: weighted per-class credit
  /// caps on the CAF device and weighted per-class prodBuf quotas on the
  /// VLRD (see traffic::machine_config_for). Software backends (BLFQ/ZMQ)
  /// have no enforcement knob and ignore it.
  bool qos = false;
  /// Run the closed-loop QoS supervisor (runtime/qos_supervisor.hpp): an
  /// epoch-boundary AIMD controller that re-weights the per-class quotas
  /// from the timeline's latency-class SLO cut. Only meaningful with
  /// `qos` on a hardware backend; CLIs override it with --no-supervisor.
  bool supervisor = false;
  /// Deterministic fault schedule (fault/spec.hpp); empty = no faults.
  /// CLIs override it with --faults.
  fault::FaultSpec faults;
  /// Deterministic lifecycle schedule (replay/lifecycle.hpp): tenant
  /// join/leave churn and SQI re-registration events. Empty = static run.
  /// run_sharded rejects reconfig@ (single node only). CLIs override it
  /// with --churn.
  replay::LifecycleSpec lifecycle;
  /// Replay source (replay/trace.hpp): when set, every producer ignores
  /// its tenant's arrival/size/count parameters and re-offers the trace's
  /// recorded per-producer (tick, class, size, destination) stream
  /// verbatim. The trace must match the spec's shape (producer count,
  /// sharded flag); the engine validates and throws otherwise. Not owned.
  const replay::Trace* replay = nullptr;
  /// Sharded-run parameters; population == 0 means the preset was not
  /// designed for sharding (run_sharded rejects it).
  ShardingSpec sharding;
  std::vector<TenantSpec> tenants;
};

/// Empty string when the spec is runnable; otherwise a description of the
/// first problem found.
std::string validate(const ScenarioSpec& s);

/// Copy of `s` with per-producer message counts multiplied by `scale`.
ScenarioSpec scaled(const ScenarioSpec& s, int scale);

/// Deterministic producer split across tenants (largest remainder, each
/// tenant at least one producer). Sum equals s.producers unless more
/// tenants than producers exist, in which case each tenant still gets one.
std::vector<int> tenant_producer_split(const ScenarioSpec& s);

// --- preset registry ---------------------------------------------------------

/// All registered preset names, in registry order.
std::vector<std::string> scenario_names();

/// Look up a preset; nullptr when unknown.
const ScenarioSpec* find_scenario(const std::string& name);

}  // namespace vl::traffic
