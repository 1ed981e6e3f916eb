// vlbench — end-to-end and per-layer benchmark of the Virtual-Link
// simulator. One invocation measures one workload in one mode:
//
//   bench_vlbench --workload NAME --seed N --seconds S --trace 0 --out F.json
//       Timed mode, tracing off: set-up timing, one untimed warm-up run,
//       then timed repetitions until S seconds have passed (at least
//       kMinReps). Reports the end-to-end metrics.
//   bench_vlbench --workload NAME --seed N --trace 1 --out F.json
//       Traced mode: an untraced reference run, the same run with an
//       obs::Tracer (and Timeline) attached, span aggregation, then the
//       layer probes. Reports the per-layer metrics.
//
// Layers are measured from outside only: timed calls into public entry
// points, the counters those return (EngineResult::device_stats,
// ShardedResult, WorkloadResult), the tracer's span buffers and
// Timeline::last(). Every run is checked — per-tenant conservation, digest
// equality between the warm-up, every repetition and the traced run, the
// Fig. 11 message counts and headline — and the process exits 1 when a
// check fails. run.py builds and drives this binary; README.md documents
// the workloads, the metrics and the layer map.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "obs/hooks.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "runtime/machine.hpp"
#include "sim/event_queue.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "squeue/factory.hpp"
#include "traffic/engine.hpp"
#include "traffic/metrics.hpp"
#include "traffic/scenario.hpp"
#include "traffic/sharded_engine.hpp"
#include "workloads/runner.hpp"

#ifndef VLBENCH_BUILD_TYPE
#define VLBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace vl;
using squeue::Backend;
using Clock = std::chrono::steady_clock;

// --- workloads ---------------------------------------------------------------

enum class Kind { kFig11, kClassic, kSharded };

struct Workload {
  const char* name;
  Kind kind;
  const char* scenario;  ///< Traffic preset (classic and sharded kinds).
  Backend backend;
  int scale;
};

// Sizes are fixed here so every run of a workload does the same work;
// README.md says why each workload and size was chosen.
constexpr Workload kWorkloads[] = {
    {"fig11", Kind::kFig11, "", Backend::kVl, 1},
    {"adv-bulk-vl", Kind::kClassic, "qos-adversarial-bulk", Backend::kVl, 30},
    {"adv-bulk-caf", Kind::kClassic, "qos-adversarial-bulk", Backend::kCaf,
     100},
    {"mesh-s8", Kind::kSharded, "shard-diurnal", Backend::kVl, 2},
};
constexpr int kMeshShards = 8;
constexpr int kMeshThreads = 4;

// Engine::run samples the supervisor every 2500 ticks when no RunHooks are
// attached but every RunHooks::sample_every ticks when some are. The traced
// run pins the hooks' cadence to 2500 so it runs the same program as the
// timed runs (README.md, "Known issues").
constexpr Tick kSupervisorCadence = 2500;

constexpr std::size_t kMinReps = 3;
constexpr int kSetupReps = 11;
constexpr double kSetupBatchS = 0.05;
constexpr int kProbeReps = 5;

// The paper's Table II set in bench_fig11_benchmarks order, on the four
// schemes Fig. 11 compares.
const char* const kFig11Kernels[] = {"ping-pong", "halo",    "sweep",
                                     "incast",    "FIR",     "bitonic",
                                     "pipeline"};
constexpr Backend kFig11Backends[] = {Backend::kBlfq, Backend::kZmq,
                                      Backend::kVl, Backend::kVlIdeal};
constexpr std::size_t kFig11Blfq = 0, kFig11Vl = 2;
constexpr double kPaperSpeedup = 2.09;  // geomean VL speedup over BLFQ
constexpr double kPaperMemRed = 61.0;   // % memory-traffic reduction
// The headline bench_fig11_benchmarks prints at scale 1, as it formats it.
constexpr const char* kFig11SpeedupText = "2.74";
constexpr const char* kFig11MemRedText = "63";

constexpr Backend kAllBackends[] = {Backend::kBlfq, Backend::kZmq, Backend::kVl,
                                    Backend::kVlIdeal, Backend::kCaf};

const char* backend_key(Backend b) {
  switch (b) {
    case Backend::kBlfq: return "blfq";
    case Backend::kZmq: return "zmq";
    case Backend::kVl: return "vl";
    case Backend::kVlIdeal: return "vlideal";
    case Backend::kCaf: return "caf";
  }
  return "?";
}

// --- small helpers -------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- host-speed calibration ------------------------------------------------------
// On a shared machine the CPU speed available to one process drifts by
// +-15% over minutes, so medians of raw timings differ between runs far
// more than a regression bound can tolerate. Each timed sample is therefore
// scaled by a fixed calibration loop timed next to it: end-to-end host
// metrics read as on a machine where calibrate() takes kCalibRefS. The loop
// is benchmark code shaped like the simulator's kernel (a (tick, seq)
// binary heap plus a hash-map update per event, ~3 MiB working set: of the
// sizes tried, the one whose slowdowns track the simulator's best) without
// being the simulator's code, so a change to src/ cannot move it. Its
// structures are built once per thread, so the timed loop allocates nothing
// and its time does not depend on the allocator state a run left behind.
// README.md records how much of the drift it removes.

constexpr double kCalibRefS = 0.032;  // its typical time on a 4-core x86 VM

struct CalibEv {
  std::uint64_t tick, seq;
  std::uint32_t id;
  bool operator>(const CalibEv& o) const {
    return tick != o.tick ? tick > o.tick : seq > o.seq;
  }
};

double calibrate_once() {
  constexpr std::uint32_t kChains = 4096, kKeys = 1u << 16;
  thread_local std::unordered_map<std::uint32_t, std::uint64_t> state = [] {
    std::unordered_map<std::uint32_t, std::uint64_t> m;
    // Insert in a scrambled order so node addresses do not follow the keys.
    for (std::uint32_t k = 0; k < kKeys; ++k) m[(k * 2654435761u) & (kKeys - 1)];
    return m;
  }();
  thread_local std::vector<CalibEv> heap(kChains);
  const std::greater<CalibEv> later;

  const auto t0 = Clock::now();
  std::uint64_t seq = 0, x = 88172645463325252ull;
  for (std::uint32_t c = 0; c < kChains; ++c) heap[c] = {c, seq++, c};
  std::make_heap(heap.begin(), heap.end(), later);
  for (int k = 0; k < 200000; ++k) {
    std::pop_heap(heap.begin(), heap.end(), later);
    CalibEv& e = heap.back();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state.find((e.id * 2654435761u + static_cast<std::uint32_t>(x)) &
               (kKeys - 1))->second += e.tick;
    e = {e.tick + 1 + (x & 63), seq++, e.id};
    std::push_heap(heap.begin(), heap.end(), later);
  }
  return seconds_since(t0);
}

/// The calibration loop on as many host threads as the workload steps on,
/// all at once, averaged (on the 4-thread mesh the mean tracked better than
/// the slowest thread, the median or a single thread).
double calibrate(int threads) {
  if (threads <= 1) return calibrate_once();
  std::vector<double> t(static_cast<std::size_t>(threads));
  {
    std::vector<std::jthread> pool;  // joined on scope exit, throw or not
    for (std::size_t i = 0; i < t.size(); ++i)
      pool.emplace_back([&t, i] { t[i] = calibrate_once(); });
  }
  double sum = 0;
  for (const double s : t) sum += s;
  return sum / static_cast<double>(t.size());
}

/// Host speed relative to the reference (< 1 on a slowed machine), from the
/// calibration loops timed just before and just after a sample.
/// Single-threaded runs slow down in proportion to the loop. The 4-thread
/// mesh slows less than four concurrent loops do: exponent 0.7 minimised
/// the spread of its calibrated medians in three 15-25 minute windows
/// (README.md, "Host-speed calibration").
double host_speed(double calib_before, double calib_after, int threads) {
  const double exponent = threads > 1 ? 0.7 : 1.0;
  return std::pow(kCalibRefS / (0.5 * (calib_before + calib_after)), exponent);
}

// --- one run -------------------------------------------------------------------

struct Cell {
  std::string kernel;
  Backend backend;
  workloads::WorkloadResult r;
  double host_s = 0;
};

struct RunResult {
  double host_s = 0;  ///< Wall time of the simulation call(s).
  double cpu_s = 0;   ///< Process CPU time over the same interval.
  std::uint64_t generated = 0, delivered = 0, events = 0;
  Tick ticks = 0;
  std::uint64_t digest = 0;  ///< FNV-1a of every deterministic output.
  std::vector<std::string> errors;
  /// Device counters under the Machine registry names (eq.*, vlrd.*, mem.*,
  /// core.*), summed over machines / cells.
  StatSet dev;
  std::vector<traffic::ClassAgg> classes;
  // Sharded runs.
  std::uint64_t epochs = 0, cross = 0, window_stalls = 0, rebalanced = 0;
  std::vector<std::uint64_t> shard_delivered;
  // fig11: one cell per (kernel, backend), kernel-major.
  std::vector<Cell> cells;
};

/// Conservation check and totals shared by both traffic engines.
void fold_traffic(const traffic::ScenarioMetrics& m, RunResult& out) {
  for (const traffic::TenantMetrics& t : m.tenants)
    if (t.generated != t.delivered + t.dropped)
      out.errors.push_back("tenant " + t.tenant + ": generated " +
                           std::to_string(t.generated) + " != delivered " +
                           std::to_string(t.delivered) + " + dropped " +
                           std::to_string(t.dropped));
  out.generated = m.total_generated();
  out.delivered = m.total_delivered();
  out.ticks = m.ticks;
  out.classes = m.by_class();
}

RunResult run_classic(const Workload& w, std::uint64_t seed,
                      const obs::RunHooks* hooks) {
  const traffic::ScenarioSpec& spec = *traffic::find_scenario(w.scenario);
  runtime::Machine m(traffic::machine_config_for(spec, w.backend));
  squeue::ChannelFactory f(m, w.backend);
  traffic::Engine engine(m, f);
  RunResult out;
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  const traffic::EngineResult r = engine.run(spec, seed, w.scale, hooks);
  out.host_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - c0;
  out.events = r.events;
  out.dev = r.device_stats;
  fold_traffic(r.metrics, out);
  out.digest = fnv1a(r.csv() + r.device_stats.to_string() +
                     "events=" + std::to_string(r.events) +
                     " ticks=" + std::to_string(r.metrics.ticks));
  return out;
}

traffic::ShardedOptions mesh_options(const obs::RunHooks* hooks) {
  traffic::ShardedOptions o;
  o.shards = kMeshShards;
  o.sim_threads = kMeshThreads;
  o.obs = hooks;
  return o;
}

RunResult run_mesh(const Workload& w, std::uint64_t seed,
                   const obs::RunHooks* hooks) {
  const traffic::ScenarioSpec& spec = *traffic::find_scenario(w.scenario);
  RunResult out;
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  const traffic::ShardedResult r =
      traffic::run_sharded(spec, w.backend, seed, mesh_options(hooks), w.scale);
  out.host_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - c0;
  out.events = r.engine.events;
  out.dev = r.engine.device_stats;
  fold_traffic(r.engine.metrics, out);
  out.epochs = r.epochs;
  out.cross = r.cross_shard;
  out.window_stalls = r.window_stalls;
  out.rebalanced = r.rebalanced;
  out.shard_delivered = r.shard_delivered;
  std::string d = r.engine.csv() + r.engine.device_stats.to_string() +
                  "events=" + std::to_string(r.engine.events) +
                  " ticks=" + std::to_string(r.engine.metrics.ticks) +
                  " epochs=" + std::to_string(r.epochs) +
                  " cross=" + std::to_string(r.cross_shard) +
                  " stalls=" + std::to_string(r.window_stalls) +
                  " rebalanced=" + std::to_string(r.rebalanced) + " shards=";
  for (const std::uint64_t sd : r.shard_digests) d += hex(sd) + ",";
  out.digest = fnv1a(d);
  return out;
}

void add_cell_stats(StatSet& s, const workloads::WorkloadResult& r) {
  s.add("eq.executed", r.events);
  s.add("mem.l1_hits", r.mem.l1_hits);
  s.add("mem.l1_misses", r.mem.l1_misses);
  s.add("mem.snoops", r.mem.snoops);
  s.add("mem.c2c_transfers", r.mem.c2c_transfers);
  s.add("mem.dram_reads", r.mem.dram_reads);
  s.add("mem.dram_writes", r.mem.dram_writes);
  s.add("mem.injections", r.mem.injections);
  s.add("mem.inject_rejects", r.mem.inject_rejects);
  s.add("vlrd.pushes", r.vlrd.pushes);
  s.add("vlrd.push_nacks", r.vlrd.push_nacks);
  s.add("vlrd.push_quota_nacks", r.vlrd.push_quota_nacks);
  s.add("vlrd.fetches", r.vlrd.fetches);
  s.add("vlrd.fetch_nacks", r.vlrd.fetch_nacks);
  s.add("vlrd.inject_ok", r.vlrd.inject_ok);
  s.add("vlrd.inject_retry", r.vlrd.inject_retry);
}

struct Fig11Headline {
  double speedup = 0;  ///< Geomean VL64 speedup over BLFQ.
  double memred = 0;   ///< Mean VL64 memory-traffic reduction, %.
};

Fig11Headline fig11_headline(const std::vector<Cell>& cells) {
  const std::size_t nb = std::size(kFig11Backends);
  std::vector<double> speedups;
  double red = 0;
  int reds = 0;
  for (std::size_t k = 0; k < std::size(kFig11Kernels); ++k) {
    const workloads::WorkloadResult& base = cells[k * nb + kFig11Blfq].r;
    const workloads::WorkloadResult& vl = cells[k * nb + kFig11Vl].r;
    speedups.push_back(base.ns / vl.ns);
    const double bt = static_cast<double>(base.mem.mem_txns());
    if (bt > 0) {
      red += 1.0 - static_cast<double>(vl.mem.mem_txns()) / bt;
      ++reds;
    }
  }
  return {geomean(speedups), reds ? 100.0 * red / reds : 0.0};
}

/// The paper's own evaluation: 7 kernels x 4 schemes, as
/// bench_fig11_benchmarks runs them (scale 1, 15 bitonic workers). The
/// kernels are closed loops with fixed work; they take no seed.
RunResult run_fig11() {
  RunResult out;
  std::string d;
  const double c0 = cpu_seconds();
  for (const char* kernel : kFig11Kernels)
    for (const Backend b : kFig11Backends) {
      workloads::RunConfig rc = workloads::default_config(kernel);
      rc.backend = b;
      rc.scale = 1;
      rc.bitonic_workers = 15;
      const auto t0 = Clock::now();
      Cell c{kernel, b, workloads::run(kernel, rc), 0};
      c.host_s = seconds_since(t0);
      out.host_s += c.host_s;
      out.events += c.r.events;
      out.delivered += c.r.messages;
      out.ticks += c.r.ticks;
      add_cell_stats(out.dev, c.r);
      StatSet cs;
      add_cell_stats(cs, c.r);
      d += c.r.digest() + "\n" + cs.to_string();
      out.cells.push_back(std::move(c));
    }
  out.cpu_s = cpu_seconds() - c0;
  out.digest = fnv1a(d);

  // Every scheme moves the same messages through a kernel; a cell that
  // reports another count than the kernel's BLFQ cell lost or invented some.
  const std::size_t nb = std::size(kFig11Backends);
  for (std::size_t i = 0; i < out.cells.size(); ++i) {
    const Cell& c = out.cells[i];
    const std::uint64_t want = out.cells[i - i % nb].r.messages;
    out.generated += want;
    if (want == 0 || c.r.messages != want)
      out.errors.push_back(c.kernel + "/" + squeue::to_string(c.backend) +
                           ": " + std::to_string(c.r.messages) +
                           " messages, expected " + std::to_string(want));
  }
  const Fig11Headline h = fig11_headline(out.cells);
  char sp[32], mr[32];
  std::snprintf(sp, sizeof sp, "%.2f", h.speedup);
  std::snprintf(mr, sizeof mr, "%.0f", h.memred);
  if (std::strcmp(sp, kFig11SpeedupText) != 0 ||
      std::strcmp(mr, kFig11MemRedText) != 0)
    out.errors.push_back(std::string("fig11 headline ") + sp + "x / " + mr +
                         "% differs from bench_fig11_benchmarks' " +
                         kFig11SpeedupText + "x / " + kFig11MemRedText + "%");
  return out;
}

RunResult run_workload(const Workload& w, std::uint64_t seed,
                       const obs::RunHooks* hooks) {
  switch (w.kind) {
    case Kind::kFig11: return run_fig11();
    case Kind::kClassic: return run_classic(w, seed, hooks);
    case Kind::kSharded: return run_mesh(w, seed, hooks);
  }
  return {};
}

/// Constructors only; the destructors run after the clock is read.
double time_machine(const sim::SystemConfig& cfg, Backend b) {
  const auto t0 = Clock::now();
  runtime::Machine m(cfg);
  squeue::ChannelFactory f(m, b);
  return seconds_since(t0);
}

/// One set-up measurement: what a user pays before the first message.
double setup_once(const Workload& w, std::uint64_t seed) {
  switch (w.kind) {
    case Kind::kFig11: {
      double s = 0;
      for (std::size_t k = 0; k < std::size(kFig11Kernels); ++k)
        for (const Backend b : kFig11Backends)
          s += time_machine(squeue::config_for(b), b);
      return s;
    }
    case Kind::kClassic:
      return time_machine(
          traffic::machine_config_for(*traffic::find_scenario(w.scenario),
                                      w.backend),
          w.backend);
    case Kind::kSharded: {
      // Eight machines and their channels, carrying one message per
      // producer. Stepped sequentially: starting the host-thread pool is
      // OS scheduling jitter on a shared machine, and every timed rep pays
      // it anyway.
      const traffic::ScenarioSpec& spec = *traffic::find_scenario(w.scenario);
      traffic::ShardedOptions o = mesh_options(nullptr);
      o.sim_threads = 1;
      o.messages = static_cast<std::uint64_t>(spec.producers);
      const auto t0 = Clock::now();
      traffic::run_sharded(spec, w.backend, seed, o, 1);
      return seconds_since(t0);
    }
  }
  return 0;
}

// --- span aggregation ------------------------------------------------------------

struct SpanAgg {
  std::uint64_t count = 0;  ///< Completed spans, or instants.
  double total_ticks = 0;
  double self_ticks = 0;  ///< Total minus the time nested spans cover.
};

/// Fold the tracer's B/E pairs into per-"cat.name" totals and self time,
/// lane by lane (spans nest properly within a lane); instants are counted.
std::map<std::string, SpanAgg> aggregate_spans(obs::Tracer& tracer,
                                               std::uint32_t pids) {
  using Key = std::pair<const char*, const char*>;  // literals: compare by address
  std::map<Key, SpanAgg> by_ptr;
  struct Open {
    const obs::TraceEvent* begin;
    Tick child = 0;
  };
  for (std::uint32_t pid = 0; pid < pids; ++pid) {
    std::map<std::uint32_t, std::vector<Open>> lanes;
    for (const obs::TraceEvent& e : tracer.buffer(pid).events()) {
      if (e.ph == 'i') {
        ++by_ptr[{e.cat, e.name}].count;
        continue;
      }
      std::vector<Open>& stack = lanes[e.tid];
      if (e.ph == 'B') {
        stack.push_back({&e});
        continue;
      }
      if (stack.empty()) continue;
      const Open o = stack.back();
      stack.pop_back();
      const Tick dur = e.ts - o.begin->ts;
      SpanAgg& a = by_ptr[{o.begin->cat, o.begin->name}];
      ++a.count;
      a.total_ticks += static_cast<double>(dur);
      a.self_ticks += static_cast<double>(dur - std::min(o.child, dur));
      if (!stack.empty()) stack.back().child += dur;
    }
  }
  std::map<std::string, SpanAgg> out;
  for (const auto& [k, a] : by_ptr) {
    SpanAgg& o = out[std::string(k.first) + "." + k.second];
    o.count += a.count;
    o.total_ticks += a.total_ticks;
    o.self_ticks += a.self_ticks;
  }
  return out;
}

// --- layer probes ------------------------------------------------------------------

/// Kernel: host ns per executed event, 64 self-rescheduling chains.
double probe_event_ns() {
  constexpr std::uint64_t kChains = 64, kHops = 8192;
  struct Hop {
    sim::EventQueue* eq;
    std::uint64_t left;
    void operator()() {
      if (--left) eq->schedule_in(1 + (left & 15), Hop{eq, left});
    }
  };
  sim::EventQueue eq;
  for (std::uint64_t c = 0; c < kChains; ++c) eq.schedule_in(c, Hop{&eq, kHops});
  const auto t0 = Clock::now();
  eq.run();
  return 1e9 * ratio(seconds_since(t0), static_cast<double>(eq.executed()));
}

sim::Co<void> wake_pinger(sim::WaitQueue& mine, sim::WaitQueue& peer,
                          int& turn, int me, std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) {
    for (;;) {
      const std::uint64_t gate = mine.epoch();
      if (turn == me) break;
      co_await mine.park(gate);
    }
    turn = 1 - me;
    peer.wake_one();
  }
}

/// Kernel: host ns per WaitQueue park/wake hand-off between two coroutines.
double probe_wake_ns(std::vector<std::string>& errors) {
  constexpr std::uint64_t kRounds = 100000;
  sim::EventQueue eq;
  sim::WaitQueue a(eq), b(eq);
  int turn = 0;
  const sim::Spawned pa = sim::spawn(wake_pinger(a, b, turn, 0, kRounds));
  const sim::Spawned pb = sim::spawn(wake_pinger(b, a, turn, 1, kRounds));
  const auto t0 = Clock::now();
  eq.run();
  const double s = seconds_since(t0);
  if (!pa.done() || !pb.done()) errors.push_back("probe.sim.wake: stalled");
  return 1e9 * ratio(s, static_cast<double>(a.wakeups() + b.wakeups()));
}

sim::Co<void> line_pass(sim::SimThread t, Addr x, std::uint64_t parity,
                        std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) {
    const std::uint64_t want = 2 * i + parity;
    for (;;) {
      const std::uint64_t v = co_await t.load(x);
      if (v == want) break;
      co_await t.compute(8);
    }
    co_await t.store(x, want + 1);
  }
}

/// Memory: host ns per hand-off of one line between two cores (each
/// hand-off is a coherence transfer plus the spinning loads around it).
double probe_line_xfer_ns(std::vector<std::string>& errors) {
  constexpr std::uint64_t kRounds = 4000;
  runtime::Machine m;
  const Addr x = m.alloc(kLineSize);
  const sim::Spawned a = sim::spawn(line_pass(m.thread_on(0), x, 0, kRounds));
  const sim::Spawned b = sim::spawn(line_pass(m.thread_on(1), x, 1, kRounds));
  const auto t0 = Clock::now();
  m.run();
  const double s = seconds_since(t0);
  if (!a.done() || !b.done()) errors.push_back("probe.mem.line_xfer: stalled");
  return 1e9 * s / static_cast<double>(2 * kRounds);
}

sim::Co<void> probe_sender(squeue::Channel& ch, sim::SimThread t,
                           std::uint64_t n) {
  for (std::uint64_t i = 1; i <= n; ++i) co_await ch.send1(t, i);
}

sim::Co<void> probe_receiver(squeue::Channel& ch, sim::SimThread t,
                             std::uint64_t n, bool* in_order) {
  for (std::uint64_t i = 1; i <= n; ++i) {
    const std::uint64_t v = co_await ch.recv1(t);
    if (v != i) *in_order = false;
  }
}

struct ChanProbe {
  double ns_per_msg = 0;
  double events_per_msg = 0;
};

/// Channel backend: one producer, one consumer, send1/recv1 on a bare
/// Machine for `b`.
ChanProbe probe_chan(Backend b, std::vector<std::string>& errors) {
  constexpr std::uint64_t kMsgs = 2000;
  runtime::Machine m(squeue::config_for(b));
  squeue::ChannelFactory f(m, b);
  std::unique_ptr<squeue::Channel> ch = f.make("probe", 0, 1);
  bool in_order = true;
  const sim::Spawned tx = sim::spawn(probe_sender(*ch, m.thread_on(0), kMsgs));
  const sim::Spawned rx =
      sim::spawn(probe_receiver(*ch, m.thread_on(1), kMsgs, &in_order));
  const std::uint64_t ev0 = m.eq().executed();
  const auto t0 = Clock::now();
  m.run();
  const double s = seconds_since(t0);
  if (!tx.done() || !rx.done() || !in_order)
    errors.push_back(std::string("probe.chan.") + backend_key(b) +
                     ": messages lost, reordered or stalled");
  return {1e9 * s / kMsgs,
          static_cast<double>(m.eq().executed() - ev0) / kMsgs};
}

// --- report --------------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value = 0;
  bool host = false;  ///< Host-measured (noisy) rather than simulated.
  std::vector<double> samples;
  std::vector<double> raw_samples;  ///< Before calibration, when scaled.
};

struct Report {
  std::vector<Metric> metrics;
  std::map<std::string, SpanAgg> spans;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t digest = 0;
  std::size_t runs = 0;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value, false, {}, {}});
  }
  void add_host(std::string name, std::string unit, double value,
                std::vector<double> samples = {},
                std::vector<double> raw_samples = {}) {
    metrics.push_back({std::move(name), std::move(unit), value, true,
                       std::move(samples), std::move(raw_samples)});
  }

  /// Count a run's messages and fold its checks. Every run of a workload
  /// must reproduce the first run's digest; a run failing any check counts
  /// all of its messages as failed.
  void account(const RunResult& r, const std::string& label) {
    if (runs++ == 0) digest = r.digest;
    attempted += r.generated;
    bool bad = !r.errors.empty();
    for (const std::string& e : r.errors) errors.push_back(label + ": " + e);
    if (r.digest != digest) {
      errors.push_back(label + ": digest " + hex(r.digest) +
                       " differs from the first run's " + hex(digest));
      bad = true;
    }
    failed += bad ? r.generated
                  : r.generated - std::min(r.delivered, r.generated);
  }
};

Report timed(const Workload& w, std::uint64_t seed, double seconds) {
  Report rep;
  // Each set-up sample is the mean over a batch of at least kSetupBatchS,
  // so a 50 us machine construction is not lost in timer and page-fault
  // noise.
  std::vector<double> setup, setup_raw;
  double calib = calibrate(1);
  for (int i = 0; i < kSetupReps; ++i) {
    double total = 0;
    int n = 0;
    for (; total < kSetupBatchS; ++n) total += setup_once(w, seed);
    const double next = calibrate(1);
    setup_raw.push_back(total / n);
    setup.push_back(total / n * host_speed(calib, next, 1));
    calib = next;
  }

  const RunResult warm = run_workload(w, seed, nullptr);
  rep.account(warm, "warm-up");
  const int threads = w.kind == Kind::kSharded ? kMeshThreads : 1;
  std::vector<double> tput, tput_raw;
  calib = calibrate(threads);
  const auto t0 = Clock::now();
  while (tput.size() < kMinReps || seconds_since(t0) < seconds) {
    const RunResult r = run_workload(w, seed, nullptr);
    const double next = calibrate(threads);
    rep.account(r, "rep " + std::to_string(tput.size() + 1));
    tput_raw.push_back(ratio(static_cast<double>(r.delivered), r.host_s));
    tput.push_back(tput_raw.back() / host_speed(calib, next, threads));
    calib = next;
  }

  rep.add_host("host_msgs_per_s", "msg/s", median(tput), tput, tput_raw);
  rep.add_host("setup_s", "s", median(setup), setup, setup_raw);
  rep.add_host("peak_rss_mb", "MiB", peak_rss_mib());
  rep.add("events_per_msg", "events/msg",
          ratio(static_cast<double>(warm.events),
                static_cast<double>(warm.delivered)));
  rep.add("sim_msgs_per_mtick", "msg/Mtick",
          1e6 * ratio(static_cast<double>(warm.delivered),
                      static_cast<double>(warm.ticks)));
  return rep;
}

Report traced(const Workload& w, std::uint64_t seed) {
  Report rep;
  const RunResult ref = run_workload(w, seed, nullptr);
  rep.account(ref, "reference run");

  // The traced run. fig11's kernels take no hooks: its traced pass is a
  // second run with every cell timed (run_fig11 always times cells).
  auto tracer = std::make_unique<obs::Tracer>();
  obs::Timeline timeline;
  obs::RunHooks hooks;
  hooks.tracer = tracer.get();
  hooks.timeline = &timeline;
  hooks.sample_every = kSupervisorCadence;
  const bool hooked = w.kind != Kind::kFig11;
  const RunResult tr = run_workload(w, seed, hooked ? &hooks : nullptr);
  rep.account(tr, "traced run");
  const double trace_events = static_cast<double>(tracer->total_events());
  if (hooked)
    rep.spans = aggregate_spans(
        *tracer, w.kind == Kind::kSharded ? kMeshShards + 1 : 1);
  tracer.reset();  // the buffers can be large; free them before the probes

  const double msgs = static_cast<double>(tr.delivered);
  auto dev = [&](const char* k) { return static_cast<double>(tr.dev.get(k)); };
  auto span = [&](const char* k) {
    const auto it = rep.spans.find(k);
    return it == rep.spans.end() ? SpanAgg{} : it->second;
  };
  auto per_msg = [&](double v) { return ratio(v, msgs); };

  // sim kernel
  rep.add_host("sim.host_ns_per_event", "ns/event",
               1e9 * ratio(ref.host_s, static_cast<double>(ref.events)));
  rep.add("sim.yields_per_msg", "yields/msg", per_msg(dev("core.yields")));
  // Waits count their whole span (a CAF credit wait is a park inside a
  // credit_wait span); recv_many counts only its own, unparked time.
  rep.add("sim.park_ticks_per_msg", "ticks/msg",
          per_msg(span("sim.park").total_ticks +
                  span("sim.park_any").total_ticks));
  rep.add("sim.credit_wait_ticks_per_msg", "ticks/msg",
          per_msg(span("sim.credit_wait").total_ticks));

  // sharded stepping
  double imbalance = 0;
  if (!tr.shard_delivered.empty()) {
    double sum = 0, mx = 0;
    for (const std::uint64_t d : tr.shard_delivered) {
      sum += static_cast<double>(d);
      mx = std::max(mx, static_cast<double>(d));
    }
    imbalance = ratio(mx, sum / static_cast<double>(tr.shard_delivered.size()));
  }
  const SpanAgg epoch = span("shard.epoch");
  rep.add("shard.epochs", "count", static_cast<double>(tr.epochs));
  rep.add("shard.msgs_per_epoch", "msg/epoch",
          ratio(msgs, static_cast<double>(tr.epochs)));
  rep.add("shard.cross_frac", "fraction",
          per_msg(static_cast<double>(tr.cross)));
  rep.add("shard.window_stalls", "count",
          static_cast<double>(tr.window_stalls));
  rep.add("shard.rebalanced", "count", static_cast<double>(tr.rebalanced));
  rep.add("shard.imbalance", "ratio", imbalance);
  rep.add("shard.epoch_ticks_mean", "ticks",
          ratio(epoch.total_ticks, static_cast<double>(epoch.count)));
  rep.add_host("shard.cpu_per_wall", "ratio", ratio(ref.cpu_s, ref.host_s));

  // mem
  const double injections = dev("mem.injections");
  rep.add("mem.l1_miss_ratio", "fraction",
          ratio(dev("mem.l1_misses"), dev("mem.l1_hits") + dev("mem.l1_misses")));
  rep.add("mem.snoops_per_msg", "snoops/msg", per_msg(dev("mem.snoops")));
  rep.add("mem.c2c_per_msg", "xfers/msg", per_msg(dev("mem.c2c_transfers")));
  rep.add("mem.dram_per_msg", "txns/msg",
          per_msg(dev("mem.dram_reads") + dev("mem.dram_writes")));
  rep.add("mem.inject_accept_ratio", "fraction",
          ratio(injections, injections + dev("mem.inject_rejects")));

  // vlrd / isa
  const double pushes = dev("vlrd.pushes");
  rep.add("vlrd.pushes_per_msg", "pushes/msg", per_msg(pushes));
  rep.add("vlrd.push_accept_ratio", "fraction",
          ratio(pushes - dev("vlrd.push_nacks"), pushes));
  rep.add("vlrd.fetch_nack_ratio", "fraction",
          ratio(dev("vlrd.fetch_nacks"), dev("vlrd.fetches")));
  rep.add("vlrd.inject_retry_ratio", "fraction",
          ratio(dev("vlrd.inject_retry"),
                dev("vlrd.inject_ok") + dev("vlrd.inject_retry")));

  // squeue (span side; the probes follow below)
  rep.add("chan.recv_many_ticks_per_msg", "ticks/msg",
          per_msg(span("chan.recv_many").self_ticks));
  rep.add("caf.credit_wait_ticks_per_msg", "ticks/msg",
          per_msg(span("caf.credit_wait").total_ticks));

  // traffic: per-class back-pressure, latency-class latency and SLO
  const traffic::ClassAgg* lat = nullptr;
  for (const QosClass c :
       {QosClass::kLatency, QosClass::kStandard, QosClass::kBulk}) {
    double v = 0;
    for (const traffic::ClassAgg& a : tr.classes)
      if (a.cls == c) {
        v = ratio(static_cast<double>(a.agg.blocked_ticks),
                  static_cast<double>(a.agg.delivered));
        if (c == QosClass::kLatency) lat = &a;
      }
    rep.add(std::string("traffic.blocked_ticks_per_msg.") + to_string(c),
            "ticks/msg", v);
  }
  const traffic::LogHistogram none;
  const traffic::LogHistogram& h = lat ? lat->agg.latency : none;
  rep.add("traffic.lat_p50_ticks", "ticks", static_cast<double>(h.percentile(50)));
  rep.add("traffic.lat_p99_ticks", "ticks", static_cast<double>(h.percentile(99)));
  rep.add("traffic.lat_p999_ticks", "ticks",
          static_cast<double>(h.percentile(99.9)));
  rep.add("traffic.lat_samples", "count", static_cast<double>(h.count()));
  rep.add("traffic.slo_attain_pct", "%", lat ? lat->slo_attained_pct() : 0.0);

  // runtime QoS supervisor (its decision series on the traced Timeline)
  rep.add("sup.violations", "count", timeline.last("sup.violations"));
  rep.add("sup.decreases", "count", timeline.last("sup.decreases"));
  rep.add("sup.increases", "count", timeline.last("sup.increases"));

  // workloads / bsp: Fig. 11 cells
  const std::size_t nb = std::size(kFig11Backends);
  const bool fig11 = !tr.cells.empty();
  for (std::size_t k = 0; k < std::size(kFig11Kernels); ++k) {
    double speedup = 0, memratio = 0, host = 0;
    if (fig11) {
      const workloads::WorkloadResult& base = tr.cells[k * nb + kFig11Blfq].r;
      const workloads::WorkloadResult& vl = tr.cells[k * nb + kFig11Vl].r;
      speedup = ratio(base.ns, vl.ns);
      memratio = ratio(static_cast<double>(vl.mem.mem_txns()),
                       static_cast<double>(base.mem.mem_txns()));
      for (std::size_t b = 0; b < nb; ++b) host += tr.cells[k * nb + b].host_s;
    }
    const std::string kn = kFig11Kernels[k];
    rep.add("fig11.speedup." + kn, "x", speedup);
    rep.add("fig11.memratio." + kn, "ratio", memratio);
    rep.add_host("fig11.host_s." + kn, "s", host);
  }
  for (std::size_t b = 0; b < nb; ++b) {
    double host = 0;
    if (fig11)
      for (std::size_t k = 0; k < std::size(kFig11Kernels); ++k)
        host += tr.cells[k * nb + b].host_s;
    rep.add_host(std::string("fig11.host_s.") + backend_key(kFig11Backends[b]),
                 "s", host);
  }
  const Fig11Headline head = fig11 ? fig11_headline(tr.cells) : Fig11Headline{};
  rep.add("fig11.speedup_err_pct", "%",
          fig11 ? 100.0 * std::fabs(head.speedup - kPaperSpeedup) / kPaperSpeedup
                : 0.0);
  rep.add("fig11.memred_err_pts", "points",
          fig11 ? std::fabs(head.memred - kPaperMemRed) : 0.0);

  // obs
  rep.add_host("obs.trace_overhead_pct", "%",
               hooked ? 100.0 * ratio(tr.host_s - ref.host_s, ref.host_s) : 0.0);
  rep.add("obs.trace_events", "count", trace_events);

  // Layer probes: medians of kProbeReps host timings each.
  std::vector<double> ev, wake, xfer;
  for (int i = 0; i < kProbeReps; ++i) {
    ev.push_back(probe_event_ns());
    wake.push_back(probe_wake_ns(rep.errors));
    xfer.push_back(probe_line_xfer_ns(rep.errors));
  }
  rep.add_host("probe.sim.event_ns", "ns/event", median(ev), ev);
  rep.add_host("probe.sim.wake_ns", "ns/wake", median(wake), wake);
  rep.add_host("probe.mem.line_xfer_ns", "ns/xfer", median(xfer), xfer);
  for (const Backend b : kAllBackends) {
    std::vector<double> ns;
    double events = 0;
    for (int i = 0; i < kProbeReps; ++i) {
      const ChanProbe p = probe_chan(b, rep.errors);
      ns.push_back(p.ns_per_msg);
      events = p.events_per_msg;
    }
    const std::string base = std::string("probe.chan.") + backend_key(b);
    rep.add_host(base + ".msg_ns", "ns/msg", median(ns), ns);
    rep.add(base + ".events_per_msg", "events/msg", events);
  }
  return rep;
}

// --- output --------------------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool write_json(const std::string& path, const Workload& w, bool trace,
                std::uint64_t seed, double seconds, const Report& rep) {
  std::string j = "{\n";
  j += "  \"workload\": " + json_str(w.name) + ",\n";
  j += std::string("  \"mode\": \"") + (trace ? "traced" : "timed") + "\",\n";
  j += "  \"seed\": " + std::to_string(seed) + ",\n";
  j += "  \"scale\": " + std::to_string(w.scale) + ",\n";
  j += "  \"seconds\": " + json_num(seconds) + ",\n";
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  j += "  \"env\": {\"nproc\": " +
       std::to_string(std::thread::hardware_concurrency()) +
       ", \"compiler\": " + json_str(__VERSION__) +
       ", \"build_type\": " + json_str(VLBENCH_BUILD_TYPE) +
       ", \"optimized\": " + (optimized ? "true" : "false") + "},\n";
  j += "  \"digest\": \"" + hex(rep.digest) + "\",\n";
  j += "  \"runs\": " + std::to_string(rep.runs) + ",\n";
  j += std::string("  \"correct\": ") + (rep.errors.empty() ? "true" : "false") +
       ",\n";
  j += "  \"attempted\": " + std::to_string(rep.attempted) + ",\n";
  j += "  \"failed\": " + std::to_string(rep.failed) + ",\n";
  j += "  \"errors\": [";
  for (std::size_t i = 0; i < rep.errors.size(); ++i)
    j += (i ? ", " : "") + json_str(rep.errors[i]);
  j += "],\n  \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    j += (i ? ",\n    " : "\n    ") + json_str(m.name) +
         ": {\"value\": " + json_num(m.value) + ", \"unit\": " + json_str(m.unit) +
         ", \"kind\": \"" + (m.host ? "host" : "sim") + "\"";
    for (const auto& [key, xs] : {std::pair{"samples", &m.samples},
                                  std::pair{"raw_samples", &m.raw_samples}}) {
      if (xs->empty()) continue;
      j += std::string(", \"") + key + "\": [";
      for (std::size_t k = 0; k < xs->size(); ++k)
        j += (k ? ", " : "") + json_num((*xs)[k]);
      j += "]";
    }
    j += "}";
  }
  j += "\n  },\n  \"spans\": {";
  std::size_t i = 0;
  for (const auto& [name, a] : rep.spans)
    j += (i++ ? ",\n    " : "\n    ") + json_str(name) +
         ": {\"count\": " + std::to_string(a.count) +
         ", \"total_ticks\": " + json_num(a.total_ticks) +
         ", \"self_ticks\": " + json_num(a.self_ticks) + "}";
  j += "\n  }\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
  return std::fclose(f) == 0 && ok;
}

void print_report(const Workload& w, bool trace, const Report& rep) {
  std::printf("vlbench %s (%s, scale %d, %zu runs)\n", w.name,
              trace ? "traced" : "timed", w.scale, rep.runs);
  for (const Metric& m : rep.metrics) {
    std::printf("  %-36s %18.6g %-11s", m.name.c_str(), m.value, m.unit.c_str());
    if (!m.samples.empty()) std::printf(" median of %zu", m.samples.size());
    std::printf("\n");
  }
  if (!rep.spans.empty()) {
    std::printf("  spans (simulated ticks, self time per lane):\n");
    for (const auto& [name, a] : rep.spans)
      std::printf("    %-28s %12llu spans %16.0f total %16.0f self\n",
                  name.c_str(), static_cast<unsigned long long>(a.count),
                  a.total_ticks, a.self_ticks);
  }
  for (const std::string& e : rep.errors) std::printf("  CHECK FAILED: %s\n", e.c_str());
}

const char* arg(int argc, char** argv, const char* flag, const char* def) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return def;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = arg(argc, argv, "--workload", "");
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads)
    if (name == c.name) w = &c;
  if (!w) {
    std::fprintf(stderr,
                 "usage: bench_vlbench --workload NAME --seed N [--seconds S] "
                 "[--trace 0|1] [--out FILE.json]\nworkloads:");
    for (const Workload& c : kWorkloads) std::fprintf(stderr, " %s", c.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(
      std::strtoull(arg(argc, argv, "--seed", "42"), nullptr, 10));
  const double seconds = std::strtod(arg(argc, argv, "--seconds", "15"), nullptr);
  const bool trace = std::strcmp(arg(argc, argv, "--trace", "0"), "1") == 0;
  const std::string out = arg(argc, argv, "--out", "");

  const Report rep = trace ? traced(*w, seed) : timed(*w, seed, seconds);
  print_report(*w, trace, rep);
  if (!out.empty() && !write_json(out, *w, trace, seed, seconds, rep)) {
    std::fprintf(stderr, "bench_vlbench: cannot write %s\n", out.c_str());
    return 2;
  }
  return rep.errors.empty() ? 0 : 1;
}
