#pragma once
// Sharded runs: one ScenarioSpec over a mesh of S nodes (shards).
//
// Each shard is a complete modelled node — its own sim::EventQueue,
// runtime::Machine (cores, memory, VLRD/CAF devices), channels, and
// consumers — the paper's § III-C2 multi-VLRD partitioning taken to its
// logical end: disjoint virtual queues never share state, so the simulator
// need not share a calendar either. The mesh runs the single-node engine
// (traffic/engine.cpp) on every shard; only its route differs. Producers
// draw a logical destination tenant per message from
// spec.sharding.population, which a consistent-hash ShardRouter maps onto
// a shard. Local messages inject directly; the rest cross a modelled
// inter-shard link (sharding.link_latency hop, sharding.link_window
// in-flight bound) into the destination's termination actor.
//
// Shards advance under sim::ShardedSim's conservative lookahead, so a run
// is deterministic — byte-identical CSV and per-shard event digests for a
// fixed (spec, backend, seed, shards) — in both sequential round-robin and
// `sim_threads > 1` stepping.
//
// Scaling story: at S=1 every producer, consumer, and SQI lands on one
// 16-core machine — heavy run-queue oversubscription, one shared prodBuf,
// one calendar. At S=8 each node runs a handful of threads and SQIs, so
// events-per-message collapses and the (sequential) wall clock with it.

#include <cstdint>
#include <string>
#include <vector>

#include "squeue/factory.hpp"
#include "traffic/engine.hpp"
#include "traffic/metrics.hpp"
#include "traffic/scenario.hpp"

namespace vl::traffic {

struct ShardedOptions {
  int shards = 1;
  /// >1: step each epoch's shards on this many host threads. Results are
  /// byte-identical to sequential stepping (see sim/sharded.hpp).
  int sim_threads = 1;
  std::uint64_t population = 0;  ///< Override spec.sharding.population.
  std::uint64_t messages = 0;    ///< Override spec.sharding.messages_total.
  /// Optional observability (src/obs/): a Timeline is sampled every
  /// obs->sample_every ticks plus a final cumulative epoch; a Tracer gets one
  /// buffer per shard (pid = shard id) and a barrier-epoch lane
  /// (pid = shards). Observation schedules nothing: digests and metrics
  /// are byte-identical with it on or off.
  const obs::RunHooks* obs = nullptr;
};

struct ShardedResult {
  /// Merged per-class metrics + summed kernel events; csv()/table() come
  /// from here and match single-shard column semantics.
  EngineResult engine;
  int shards = 1;
  int sim_threads = 1;
  std::uint64_t cross_shard = 0;    ///< Messages that crossed a link.
  std::uint64_t epochs = 0;         ///< Lookahead windows executed.
  std::uint64_t window_stalls = 0;  ///< Link back-pressure events.
  std::uint64_t rebalanced = 0;     ///< Tenants moved off hot shards.
  /// FNV-1a fold over every shard's delivery/ingress event stream
  /// (tick, stamp) — the determinism witness tests compare.
  std::vector<std::uint64_t> shard_digests;
  std::vector<std::uint64_t> shard_delivered;
};

/// Run `spec` across opts.shards shards. Requires a fan-out/mesh topology
/// (one consumer per channel), open loop, no reconfig@ event (its one-shot
/// state is run-wide, which threaded shards would race on; join/leave
/// churn runs on every shard), and a sharding block with population > 0 and messages_total > 0 (after
/// opts overrides). Shedding (drop_depth) reads local channels only. The
/// global message budget is spread over spec.producers producers
/// regardless of shard count, so delivered counts match across S — the
/// equal-work basis of the 1-vs-8-shard comparison. Throws
/// std::invalid_argument on an unshardable spec, and std::runtime_error
/// naming the stuck shard channels (shNcM) when a worker is stranded.
ShardedResult run_sharded(const ScenarioSpec& spec, squeue::Backend backend,
                          std::uint64_t seed, const ShardedOptions& opts,
                          int scale = 1);

}  // namespace vl::traffic
