#pragma once
// Benchmark workloads (paper Table II plus extensions) over the
// backend-agnostic Channel API, dispatched through a self-registering
// registry: each kernel TU registers name -> {kernel fn, channel-count fn,
// default config} and `run("halo", rc)` works by name — no central enum to
// extend, no name->kind maps duplicated across benches. See
// src/workloads/README.md.
//
//   ping-pong  data back and forth between two threads          (1:1) x2
//   halo       exchange with grid neighbours (bsp::World)       48-edge grid
//   sweep      wavefront corner-to-corner (and back)            (1:1) x48
//   incast     15 producers -> 1 master                         (15:1) x1
//   FIR        32-stage filter pipeline, 2 threads/core         (1:1) x31
//   bitonic    master/worker bitonic sort (bsp::World)          16-edge star
//   pipeline   4-stage packet pipeline, 2 KiB payloads          (1:4)+(4:4)+(4:1)+(1:1)
//   allreduce  tree reduce + broadcast (bsp::World)             14-edge tree
//   scatter-gather fork/join rounds (bsp::World)                12-edge star
//   stencil    Jacobi sweep w/ ghost-cell puts (bsp::World)     grid + probe
//   param-server gradient push / weight broadcast (bsp::World)  16-edge star
//
// Every run builds a fresh Table III machine, executes the kernel, and
// reports simulated time plus coherence/DRAM/device counters.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/machine.hpp"
#include "squeue/factory.hpp"
#include "workloads/result.hpp"

namespace vl::workloads {

struct RunConfig {
  squeue::Backend backend = squeue::Backend::kBlfq;
  int scale = 1;            ///< Message-count multiplier (tests use small).
  int bitonic_workers = 15; ///< Worker threads for bitonic (Fig. 12 sweep).
  /// Superstep compute cost per compared element in bitonic (through the
  /// bsp compute hook). 2 matches the seed kernel's per-pair compute; the
  /// Fig. 12 calibration runs at kFig12CompareCost.
  Tick bitonic_compare_cost = 2;
};

/// Per-element compare cost that calibrates bitonic against Fig. 12's
/// *absolute* speedup curve (communication amortized over a realistic
/// comparison, not the seed's token cost). Shared by the fig12 bench and
/// the absolute-speedup test.
inline constexpr Tick kFig12CompareCost = 24;

/// A registered workload: the kernel, how many channels its graph uses
/// (for the VLRD per-SQI quota carve; null when the kernel has no relay
/// cycle), and the config `run(name)` uses when the caller passes none.
struct WorkloadInfo {
  const char* name;
  int order;  ///< Display order: Table II first, extensions after.
  WorkloadResult (*kernel)(runtime::Machine&, squeue::ChannelFactory&,
                           const RunConfig&);
  std::uint32_t (*channel_count)(const RunConfig&);
  RunConfig defaults;
  const char* summary = "";  ///< One-line description for --list output.
};

/// Constructing one of these (namespace-scope static in the kernel's TU)
/// adds the workload to the registry before main().
class WorkloadRegistrar {
 public:
  explicit WorkloadRegistrar(const WorkloadInfo& info);
};

/// All registered workloads, sorted by (order, name).
const std::vector<const WorkloadInfo*>& all_workloads();
/// Lookup by name; nullptr when unknown.
const WorkloadInfo* find_workload(std::string_view name);
/// Registered names, in all_workloads() order.
std::vector<std::string> workload_names();
/// The registry entry's default RunConfig (aborts on unknown name).
RunConfig default_config(std::string_view name);

/// Build a machine for `rc.backend` (applying the kernel's own quota carve
/// on VL when it declares a relay-cycle channel count), run the kernel,
/// return measurements. Aborts on an unknown name.
WorkloadResult run(std::string_view name, const RunConfig& rc);
WorkloadResult run(std::string_view name);  ///< With the registry defaults.

// Individual kernels, composable on an existing machine (fig. 14 needs
// STREAM co-scheduled with ping-pong on one system; ablations re-wire
// machines). These are also the registry's link anchors: referencing them
// pulls each kernel TU — and its registrar — out of the static archive.
WorkloadResult run_pingpong(runtime::Machine& m, squeue::ChannelFactory& f,
                            int scale, int msg_words = 7);
WorkloadResult run_halo(runtime::Machine& m, squeue::ChannelFactory& f,
                        int scale);
WorkloadResult run_sweep(runtime::Machine& m, squeue::ChannelFactory& f,
                         int scale);
WorkloadResult run_incast(runtime::Machine& m, squeue::ChannelFactory& f,
                          int scale);
WorkloadResult run_fir(runtime::Machine& m, squeue::ChannelFactory& f,
                       int scale);
WorkloadResult run_bitonic(runtime::Machine& m, squeue::ChannelFactory& f,
                           int scale, int workers, Tick compare_cost = 2);
WorkloadResult run_pipeline(runtime::Machine& m, squeue::ChannelFactory& f,
                            int scale);
WorkloadResult run_allreduce(runtime::Machine& m, squeue::ChannelFactory& f,
                             int scale);
WorkloadResult run_scatter_gather(runtime::Machine& m,
                                  squeue::ChannelFactory& f, int scale);
WorkloadResult run_stencil(runtime::Machine& m, squeue::ChannelFactory& f,
                           int scale);
WorkloadResult run_param_server(runtime::Machine& m,
                                squeue::ChannelFactory& f, int scale);

/// STREAM triad kernel (no queues): `threads` cores stream three arrays of
/// `lines_per_array` cache lines, `iters` times.
struct StreamParams {
  int threads = 4;
  std::size_t lines_per_array = 8192;  // 3 x 512 KiB: well past the LLC
  int iters = 1;
  CoreId first_core = 2;  // leave cores 0/1 for the ping-pong pair
};
WorkloadResult run_stream(runtime::Machine& m, const StreamParams& p);
/// Spawn STREAM's triad threads over three fresh arrays without running
/// the machine. When the last thread finishes, `*done` turns true and
/// `*end` receives the tick (either may be null) — the hook a co-scheduled
/// workload stops on.
void spawn_stream(runtime::Machine& m, const StreamParams& p,
                  bool* done = nullptr, Tick* end = nullptr);

/// Fig. 14 composite: STREAM co-scheduled with a ping-pong pair using the
/// given backend (or STREAM alone when `with_pingpong` is false).
struct InterferenceResult {
  WorkloadResult stream;
  std::uint64_t pingpong_msgs = 0;
};
InterferenceResult run_stream_interference(squeue::Backend backend,
                                           bool with_pingpong, int scale = 1);

}  // namespace vl::workloads
