#pragma once
// The traffic engine: instantiates a ScenarioSpec over modelled nodes
// (each a Machine with its channels, metric rows and event digest), spawns
// producer / worker / termination-actor SimThreads on each, drives open- or
// closed-loop load, and collects per-tenant latency metrics. Engine::run
// drives one node on the caller's machine, run_sharded
// (traffic/sharded_engine.hpp) a mesh of them, each node one shard of a
// sim::ShardedSim (engine.cpp); they differ only in data, not in stepper.
//
// Message framing (traffic/wire.hpp): word 0 of every payload message
// carries the tenant, producer and send tick, so any final-stage consumer
// can attribute latency and route closed-loop acks with no lookup state.
//
// Termination uses count-carrying pills: once no more payload can reach a
// node, its termination actor enqueues one pill per first-stage worker; a
// pipeline stage's last-to-finish worker forwards pills downstream.

#include <cstdint>
#include <string>

#include "obs/hooks.hpp"
#include "runtime/machine.hpp"
#include "runtime/qos_supervisor.hpp"
#include "squeue/factory.hpp"
#include "traffic/metrics.hpp"
#include "traffic/scenario.hpp"

namespace vl::traffic {

struct EngineResult {
  std::string scenario;
  std::string backend;
  std::uint64_t seed = 0;
  int scale = 1;
  std::uint64_t events = 0;  ///< Kernel events executed during the run.
  ScenarioMetrics metrics;
  /// End-of-run snapshot of the machine's telemetry tables (Machine::obs());
  /// per-shard snapshots merged on sharded runs. Diff/merge/to_string via
  /// the StatSet view.
  StatSet device_stats;

  /// Per-tenant CSV (header + rows). Fully deterministic for a fixed
  /// (scenario, backend, seed, scale): byte-identical across runs.
  std::string csv() const;
  /// Aligned text tables for terminal consumption.
  std::string table() const;
};

class Engine {
 public:
  Engine(runtime::Machine& m, squeue::ChannelFactory& f) : m_(m), f_(f) {}

  /// Run `spec` (already scaled) to completion on this machine. The
  /// machine must be freshly constructed — the engine assumes an empty
  /// event queue and takes over thread placement.
  ///
  /// `obs` (optional) attaches the observability layer: a Timeline gets
  /// per-class delivered/p99/SLO/blocked series plus device counters
  /// sampled every obs->sample_every ticks, a Tracer gets the machine's
  /// event stream (pid 0). Observation is external to the event loop — it
  /// schedules nothing and consumes no (tick, seq) numbers — so results
  /// are byte-identical with and without it. A supervised run's QoS
  /// supervisor samples on its own fixed clock, whatever `obs` carries.
  ///
  /// Throws std::runtime_error when the queue drains with a worker still
  /// waiting (a stranded consumer), naming its channel (sNcM).
  EngineResult run(const ScenarioSpec& spec, std::uint64_t seed,
                   int scale = 1, const obs::RunHooks* obs = nullptr);

 private:
  runtime::Machine& m_;
  squeue::ChannelFactory& f_;
};

/// System configuration for running `spec` on `backend`. Mostly
/// config_for(backend), but scenarios whose threads consume one channel
/// while producing another (pipeline relays, closed-loop acks) get a
/// per-SQI prodBuf quota on the VL backend: with the buffer fully shared,
/// upstream stages can occupy every slot and deadlock the relays, the § V
/// starvation hazard CAF answers with credit partitioning. The quota keeps
/// total per-SQI demand below capacity so chains always drain.
sim::SystemConfig machine_config_for(const ScenarioSpec& spec,
                                     squeue::Backend backend);

/// Summarize `spec`'s channel graph into the quota-sizing inputs
/// (runtime::size_quotas). `cfg` must already carry the provisioned device
/// count (machine_config_for computes it before calling this); the QoS
/// supervisor reuses the same demand to re-carve quotas online, so static
/// and dynamic sizing can never drift apart.
runtime::ChannelDemand channel_demand_for(const ScenarioSpec& spec,
                                          squeue::Backend backend,
                                          const sim::SystemConfig& cfg);

/// Build a fresh machine + factory for `backend` (using machine_config_for,
/// so TenantSpec QoS classes map onto the hardware knobs when spec.qos is
/// set) and run `spec` at `scale`. The spec-level entry point for QoS
/// on/off experiments. Throws std::invalid_argument for an invalid spec.
EngineResult run_spec(const ScenarioSpec& spec, squeue::Backend backend,
                      std::uint64_t seed, int scale = 1,
                      const obs::RunHooks* obs = nullptr);

/// Convenience: run_spec over the named preset. Throws
/// std::invalid_argument for an unknown scenario or invalid spec.
EngineResult run_scenario(const std::string& name, squeue::Backend backend,
                          std::uint64_t seed, int scale = 1,
                          const obs::RunHooks* obs = nullptr);

/// Copy of `spec` with every tenant's injection batch overridden — the
/// bench CLIs' `--batch` knob (TenantSpec::batch).
ScenarioSpec with_batch(const ScenarioSpec& spec, std::uint32_t batch);

}  // namespace vl::traffic
