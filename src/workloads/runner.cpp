#include "workloads/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "runtime/qos_supervisor.hpp"

namespace vl::workloads {

namespace {

// Construct-on-first-use so registrar statics in other TUs can run in any
// order relative to this TU's own globals.
std::vector<WorkloadInfo>& registry() {
  static std::vector<WorkloadInfo> r;
  return r;
}

// vl_core is a static archive: an object file only joins the link when one
// of its symbols is referenced. Taking every kernel's address here — from
// the TU that defines run() — ties each kernel TU, and therefore its
// namespace-scope WorkloadRegistrar, to any binary that dispatches by
// name. [[gnu::used]] keeps the table (and its relocations) alive.
[[gnu::used]] const void* const kKernelTuAnchors[] = {
    reinterpret_cast<const void*>(&run_pingpong),
    reinterpret_cast<const void*>(&run_halo),
    reinterpret_cast<const void*>(&run_sweep),
    reinterpret_cast<const void*>(&run_incast),
    reinterpret_cast<const void*>(&run_fir),
    reinterpret_cast<const void*>(&run_bitonic),
    reinterpret_cast<const void*>(&run_pipeline),
    reinterpret_cast<const void*>(&run_allreduce),
    reinterpret_cast<const void*>(&run_scatter_gather),
    reinterpret_cast<const void*>(&run_stencil),
    reinterpret_cast<const void*>(&run_param_server),
};

}  // namespace

WorkloadRegistrar::WorkloadRegistrar(const WorkloadInfo& info) {
  registry().push_back(info);
}

const std::vector<const WorkloadInfo*>& all_workloads() {
  static const std::vector<const WorkloadInfo*> sorted = [] {
    std::vector<const WorkloadInfo*> v;
    v.reserve(registry().size());
    for (const WorkloadInfo& w : registry()) v.push_back(&w);
    std::sort(v.begin(), v.end(),
              [](const WorkloadInfo* a, const WorkloadInfo* b) {
                return a->order != b->order
                           ? a->order < b->order
                           : std::string_view(a->name) < b->name;
              });
    return v;
  }();
  return sorted;
}

const WorkloadInfo* find_workload(std::string_view name) {
  for (const WorkloadInfo* w : all_workloads())
    if (name == w->name) return w;
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadInfo* w : all_workloads()) names.emplace_back(w->name);
  return names;
}

namespace {

const WorkloadInfo& find_or_die(std::string_view name) {
  const WorkloadInfo* w = find_workload(name);
  if (!w) {
    std::fprintf(stderr, "workloads::run: unknown workload '%.*s'\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return *w;
}

}  // namespace

RunConfig default_config(std::string_view name) {
  return find_or_die(name).defaults;
}

WorkloadResult run(std::string_view name, const RunConfig& rc) {
  const WorkloadInfo& w = find_or_die(name);
  sim::SystemConfig cfg = squeue::config_for(rc.backend);
  if (rc.backend == squeue::Backend::kVl && w.channel_count) {
    // Kernels that consume one SQI while producing another (chained stages,
    // fork/join relays), all through the one shared prodBuf. Left
    // unbounded, upstream stages fill every slot and the relays' pushes
    // NACK forever — the § V starvation hazard CAF answers with credit
    // partitioning. Bound per-SQI occupancy so total demand stays below
    // capacity (num_channels * quota < prod_entries); quota NACKs then
    // always resolve through the final consumer and the chain cannot
    // deadlock. The channel counts come from the kernels' own graphs (a
    // bsp::World reports its topology's edge count), so a kernel growing a
    // stage — or an edge — re-sizes its own quota.
    runtime::ChannelDemand d;
    d.relay_channels = w.channel_count(rc);
    cfg.vlrd.per_sqi_quota = runtime::size_quotas(cfg, d).per_sqi_quota;
  }
  runtime::Machine m(cfg);
  squeue::ChannelFactory f(m, rc.backend);
  const std::uint64_t ev0 = m.eq().executed();
  WorkloadResult r = w.kernel(m, f, rc);
  r.events = m.eq().executed() - ev0;
  return r;
}

WorkloadResult run(std::string_view name) {
  return run(name, find_or_die(name).defaults);
}

namespace {

using squeue::Channel;
using sim::Co;
using sim::SimThread;

// Fig. 14 ping-pong pair that runs until told to stop (when STREAM ends).
Co<void> interf_ping(Channel& fwd, Channel& bwd, SimThread t,
                     const bool* stop, std::uint64_t* msgs) {
  while (!*stop) {
    co_await fwd.send1(t, 1);
    (void)co_await bwd.recv1(t);
    *msgs += 2;
  }
  co_await fwd.send1(t, ~std::uint64_t{0});  // release the pong side
}

Co<void> interf_pong(Channel& fwd, Channel& bwd, SimThread t) {
  for (;;) {
    const std::uint64_t v = co_await fwd.recv1(t);
    if (v == ~std::uint64_t{0}) co_return;
    co_await bwd.send1(t, v);
  }
}

}  // namespace

InterferenceResult run_stream_interference(squeue::Backend backend,
                                           bool with_pingpong, int scale) {
  runtime::Machine m(squeue::config_for(backend));
  squeue::ChannelFactory f(m, backend);

  StreamParams sp;
  sp.iters = scale;

  InterferenceResult out;
  if (!with_pingpong) {
    out.stream = run_stream(m, sp);
    return out;
  }

  auto fwd = f.make("if_fwd");
  auto bwd = f.make("if_bwd");
  bool stop = false;

  // Spawn the ping-pong pair first; STREAM completion flips the stop flag.
  sim::spawn(interf_ping(*fwd, *bwd, m.thread_on(0), &stop,
                         &out.pingpong_msgs));
  sim::spawn(interf_pong(*fwd, *bwd, m.thread_on(1)));

  const auto mem0 = m.mem().stats();
  const Tick t0 = m.now();
  Tick stream_end = 0;
  spawn_stream(m, sp, &stop, &stream_end);
  m.run();

  out.stream.workload = "STREAM+pingpong";
  out.stream.backend = squeue::to_string(backend);
  out.stream.ticks = stream_end - t0;
  out.stream.ns = m.ns(out.stream.ticks);
  out.stream.mem = m.mem().stats().diff(mem0);
  return out;
}

}  // namespace vl::workloads
