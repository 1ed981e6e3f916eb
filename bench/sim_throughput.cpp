// Simulator kernel ledger: drives traffic-scenario presets across queue
// backends and reports, per run, deterministic figures only —
//
//   * executed kernel events (EventQueue::executed delta) — the cost the
//     park/wake + run-queue overhaul attacks: blocked threads that poll
//     burn O(pollers) events per tick, parked threads burn zero;
//   * simulated ticks to the last fired event, delivered messages and the
//     latency-class (or aggregate) p99;
//   * events per delivered message — the figure of merit for the kernel
//     (lower = less simulation work per unit of useful traffic).
//
// Results are emitted both as an aligned table and as BENCH_sim.json, which
// reproduces bit for bit, so tools/bench_gate.py holds every cell exactly.
// Host timing lives in bench/vlbench, which calibrates and repeats it.
//
//   sim_throughput                         # default preset matrix
//   sim_throughput --list                  # presets + registered workloads
//   sim_throughput --scenario replay-qos-incast --backend vl
//   sim_throughput --scenario incast-burst --backend zmq --scale 2
//   sim_throughput --scenario qos-adversarial-bulk --backend vl
//       --faults 'stall@40000+20000:every=1' --no-supervisor
//   sim_throughput --out build/BENCH_sim.json

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/table.hpp"
#include "fault/spec.hpp"
#include "obs/hooks.hpp"
#include "obs/timeline.hpp"
#include "replay/trace.hpp"
#include "traffic/engine.hpp"
#include "traffic/metrics.hpp"
#include "traffic/sharded_engine.hpp"
#include "workloads/runner.hpp"

namespace {

using vl::bench::arg_value;
using vl::bench::parse_backend;
using vl::squeue::Backend;

struct RunSpec {
  std::string scenario;
  Backend backend;
  std::uint32_t batch = 0;  ///< 0 keeps the preset's per-tenant batches.
  int shards = 0;           ///< 0 = single node; >= 1 = shard mesh.
  bool timeline = false;    ///< Attach an obs::Timeline (overhead guard).
  bool sup = false;         ///< Run the closed-loop QoS supervisor.
};

// Default matrix: the polling-heavy shapes the kernel overhaul targets
// (fan-in over the lock-based ZMQ model is the worst case: every blocked
// consumer used to poll), plus one representative of each other backend
// family for the cross-backend trajectory.
const RunSpec kDefaultMatrix[] = {
    {"incast-burst", Backend::kBlfq},
    {"incast-burst", Backend::kZmq},
    {"incast-burst", Backend::kVl},
    {"incast-burst", Backend::kVlIdeal},
    {"incast-burst", Backend::kCaf},
    {"steady-pipeline", Backend::kZmq},
    {"steady-pipeline", Backend::kVl},
    {"closed-loop-incast", Backend::kZmq},
    {"closed-loop-incast", Backend::kVl},
    // Class-weighted scheduling (quota NACK + per-SQI wake) on both
    // hardware backends, so QoS enforcement stays on the perf trajectory.
    {"qos-incast", Backend::kVl},
    {"qos-incast", Backend::kCaf},
    // Batched injection (Channel API v2 send_many/recv_many fast paths) on
    // both hardware backends: the VL row must hold a >= 20% ev/msg gain
    // over its single-message sibling (bench_gate --expect-gain in CI).
    {"incast-burst", Backend::kVl, 8},
    {"incast-burst", Backend::kCaf, 8},
    // Sharded mesh scaling (consistent-hash tenant routing, per-shard event
    // loops): the same 100k-tenant diurnal workload on 1, 4, and 8 shards.
    // ev/msg must keep collapsing with S — bench_gate --expect-gain pins
    // the s8 row against the single-shard sibling.
    {"shard-diurnal", Backend::kVl, 0, 1},
    {"shard-diurnal", Backend::kVl, 0, 4},
    {"shard-diurnal", Backend::kVl, 0, 8},
    // Observability overhead guard: the same qos-incast/VL cell with an
    // epoch Timeline attached. Sampling lives outside the event loop, so
    // its event count must equal the plain row's exactly; the in-binary
    // assert below fails the bench if ev/msg drifts > 5%.
    {"qos-incast", Backend::kVl, 0, 0, true},
    // Graceful degradation under adversarial bulk: the plain row runs with
    // the QoS supervisor forced off (static quotas), the "(sup)" row with
    // the closed-loop AIMD controller re-carving quotas each epoch. The
    // lat_p99 column is the latency class's p99; bench_gate --expect-gain
    // pins the supervisor's latency win against the static sibling. The CAF
    // "(sup)" row holds the supervisor's credit-cap path exactly as well.
    {"qos-adversarial-bulk", Backend::kVl},
    {"qos-adversarial-bulk", Backend::kVl, 0, 0, false, true},
    {"qos-adversarial-bulk", Backend::kCaf, 0, 0, false, true},
    // Collective workloads on the bsp::World layer ("wl-" prefix drives the
    // workload registry instead of a traffic scenario, at internal scale
    // 4x).
    {"wl-allreduce", Backend::kVl},
    {"wl-halo", Backend::kVl},
    {"wl-scatter-gather", Backend::kVl},
    // Record/replay round trip ("replay-" prefix records the preset's send
    // stream in memory, then re-runs the cell paced by the trace). The row
    // reports the replay run — its ev/msg tracks the TraceArrival
    // scheduling cost — and the in-binary check fails the bench unless the
    // replay reproduces the recorded run's delivered count exactly.
    {"replay-qos-incast", Backend::kVl},
};

/// "wl-<name>" rows bypass the traffic engine and run a registered
/// workload kernel; the row reports the event/tick/message figures in the
/// same columns (delivered = payload messages).
bool is_workload_row(const std::string& scenario) {
  return scenario.rfind("wl-", 0) == 0;
}

/// "replay-<preset>" rows exercise the record/replay plane end to end:
/// record the preset in memory, then replay it on the same cell.
bool is_replay_row(const std::string& scenario) {
  return scenario.rfind("replay-", 0) == 0;
}

struct Row {
  std::string scenario, backend;
  std::uint64_t events = 0, ticks = 0, delivered = 0, lat_p99 = 0;
  double events_per_msg = 0.0;
  std::string digest;  ///< wl- rows: deterministic run digest for CI smoke.
};

// Latency-class p99 (the figure the QoS supervisor defends) when the run
// has latency-class traffic, otherwise the all-tenant aggregate p99.
std::uint64_t latency_p99(const vl::traffic::ScenarioMetrics& m) {
  for (const vl::traffic::ClassAgg& c : m.by_class())
    if (c.cls == vl::QosClass::kLatency) return c.agg.latency.percentile(99);
  vl::traffic::LogHistogram all;
  for (const vl::traffic::TenantMetrics& t : m.tenants) all.merge(t.latency);
  return all.percentile(99);
}

Row finish_row(Row row) {
  row.events_per_msg =
      row.delivered
          ? static_cast<double>(row.events) / static_cast<double>(row.delivered)
          : 0;
  return row;
}

Row run_workload_row(const std::string& scenario, Backend backend,
                     int scale) {
  const std::string name = scenario.substr(3);
  vl::workloads::RunConfig rc = vl::workloads::default_config(name);
  rc.backend = backend;
  rc.scale = 4 * scale;  // baselines were measured at workload scale 4
  const vl::workloads::WorkloadResult r = vl::workloads::run(name, rc);

  Row row;
  row.scenario = scenario;
  row.backend = r.backend;
  row.events = r.events;
  row.ticks = r.ticks;
  row.delivered = r.messages;
  row.lat_p99 = 0;
  row.digest = r.digest();
  return finish_row(row);
}

/// Record the base preset's post-shed send stream in memory, then re-run
/// the same (scenario, backend, seed) cell with every producer paced by
/// the trace. The row reports the *replay* run; `fail` is set when the
/// replay does not reproduce the recorded delivered count exactly (the
/// headline conservation property CI gates on).
Row run_replay_row(const std::string& scenario, Backend backend,
                   std::uint64_t seed, int scale, bool* fail) {
  const std::string base = scenario.substr(7);
  vl::traffic::ScenarioSpec spec = *vl::traffic::find_scenario(base);
  spec.supervisor = false;  // match the plain bench row: static quotas
  vl::replay::TraceRecorder rec;
  vl::obs::RunHooks hooks;
  hooks.recorder = &rec;
  const vl::traffic::EngineResult recorded =
      vl::traffic::run_spec(spec, backend, seed, scale, &hooks);
  const vl::replay::Trace trace = rec.finish();

  vl::traffic::ScenarioSpec rspec = *vl::traffic::find_scenario(base);
  rspec.supervisor = false;
  rspec.replay = &trace;
  const vl::traffic::EngineResult r =
      vl::traffic::run_spec(rspec, backend, seed, scale);
  if (r.metrics.total_delivered() != recorded.metrics.total_delivered()) {
    std::fprintf(
        stderr, "FAIL: %s/%s replay delivered %llu != recorded %llu\n",
        scenario.c_str(), r.backend.c_str(),
        static_cast<unsigned long long>(r.metrics.total_delivered()),
        static_cast<unsigned long long>(recorded.metrics.total_delivered()));
    if (fail) *fail = true;
  }

  Row row;
  row.scenario = scenario;
  row.backend = r.backend;
  row.events = r.events;
  row.ticks = r.metrics.ticks;
  row.delivered = r.metrics.total_delivered();
  row.lat_p99 = latency_p99(r.metrics);
  return finish_row(row);
}

Row run_one(const std::string& scenario, Backend backend, std::uint64_t seed,
            int scale, std::uint32_t batch = 0, int shards = 0,
            bool timeline = false, bool sup = false,
            const std::string& faults = "", bool* replay_fail = nullptr) {
  if (is_workload_row(scenario)) return run_workload_row(scenario, backend, scale);
  if (is_replay_row(scenario))
    return run_replay_row(scenario, backend, seed, scale, replay_fail);
  vl::traffic::ScenarioSpec spec = *vl::traffic::find_scenario(scenario);
  // Benchmark rows control the supervisor explicitly: the plain
  // qos-adversarial-bulk row measures static quotas even though the preset
  // defaults the supervisor on.
  spec.supervisor = sup;
  if (!faults.empty()) spec.faults = vl::fault::FaultSpec::parse(faults);
  if (batch) spec = vl::traffic::with_batch(spec, batch);
  vl::obs::Timeline tl;
  vl::obs::RunHooks hooks;
  hooks.timeline = &tl;
  const vl::obs::RunHooks* obs = timeline ? &hooks : nullptr;
  vl::traffic::EngineResult r;
  if (shards > 0) {
    vl::traffic::ShardedOptions opts;
    opts.shards = shards;
    opts.obs = obs;
    r = vl::traffic::run_sharded(spec, backend, seed, opts, scale).engine;
  } else {
    r = vl::traffic::run_spec(spec, backend, seed, scale, obs);
  }

  Row row;
  // Batched/sharded/timeline cells are their own (scenario, backend) key in
  // BENCH_sim.json, so the perf gate tracks each variant separately; the
  // single-shard mesh keeps the plain name — it is the sibling baseline
  // the "(sN)" rows are gated against, and the plain qos-incast row is the
  // baseline the "(tl)" overhead guard compares against.
  row.scenario = batch        ? scenario + "(b" + std::to_string(batch) + ")"
                 : shards > 1 ? scenario + "(s" + std::to_string(shards) + ")"
                 : timeline   ? scenario + "(tl)"
                 : sup        ? scenario + "(sup)"
                              : scenario;
  row.backend = r.backend;
  row.events = r.events;
  row.ticks = r.metrics.ticks;
  row.delivered = r.metrics.total_delivered();
  row.lat_p99 = latency_p99(r.metrics);
  return finish_row(row);
}

void write_json(const char* path, const std::vector<Row>& rows,
                std::uint64_t seed, int scale) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "sim_throughput: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"sim_throughput\",\n");
  std::fprintf(f, "  \"seed\": %llu,\n  \"scale\": %d,\n",
               static_cast<unsigned long long>(seed), scale);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"backend\": \"%s\", "
        "\"events\": %llu, \"sim_ticks\": %llu, \"delivered\": %llu, "
        "\"lat_p99\": %llu, \"events_per_msg\": %.2f}%s\n",
        r.scenario.c_str(), r.backend.c_str(),
        static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.ticks),
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.lat_p99), r.events_per_msg,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--list") == 0) {
      std::printf("scenario presets (--scenario NAME):\n");
      for (const auto& name : vl::traffic::scenario_names()) {
        const auto* s = vl::traffic::find_scenario(name);
        std::printf("  %-18s %s\n", name.c_str(), s->summary.c_str());
      }
      std::printf("\nregistered workloads (--scenario wl-NAME):\n");
      for (const auto* w : vl::workloads::all_workloads())
        std::printf("  wl-%-15s %s\n", w->name, w->summary);
      std::printf("\nany preset also runs as replay-NAME "
                  "(record in memory, then replay the trace).\n");
      return 0;
    }
  const std::string scenario = arg_value(argc, argv, "--scenario", "");
  const std::string backend_s = arg_value(argc, argv, "--backend", "");
  const auto seed = static_cast<std::uint64_t>(
      std::strtoull(arg_value(argc, argv, "--seed", "42"), nullptr, 10));
  const int scale = vl::bench::arg_scale(argc, argv, 1);
  const auto batch = static_cast<std::uint32_t>(
      std::strtoul(arg_value(argc, argv, "--batch", "0"), nullptr, 10));
  const int shards = static_cast<int>(
      std::strtol(arg_value(argc, argv, "--shards", "0"), nullptr, 10));
  const char* out = arg_value(argc, argv, "--out", "BENCH_sim.json");
  const std::string digest_path = arg_value(argc, argv, "--digest", "");
  const std::string faults = arg_value(argc, argv, "--faults", "");
  bool no_supervisor = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--no-supervisor") == 0) no_supervisor = true;
  if (!faults.empty()) {
    try {
      const auto fs = vl::fault::FaultSpec::parse(faults);
      std::fprintf(stderr, "faults: %s\n", fs.summary().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --faults spec: %s\n", e.what());
      return 2;
    }
  }

  std::vector<RunSpec> matrix;
  if (!scenario.empty() || !backend_s.empty()) {
    const std::string sc = scenario.empty() ? "incast-burst" : scenario;
    if (is_workload_row(sc)) {
      if (!vl::workloads::find_workload(sc.substr(3))) {
        std::fprintf(stderr, "unknown workload '%s'\n", sc.c_str() + 3);
        return 2;
      }
    } else if (is_replay_row(sc)) {
      if (!vl::traffic::find_scenario(sc.substr(7))) {
        std::fprintf(stderr, "unknown scenario '%s' (for replay row '%s')\n",
                     sc.c_str() + 7, sc.c_str());
        return 2;
      }
      if (batch || shards > 0) {
        std::fprintf(stderr,
                     "replay rows record and re-run the plain cell; they do "
                     "not combine with --batch/--shards\n");
        return 2;
      }
    } else if (!vl::traffic::find_scenario(sc)) {
      std::fprintf(stderr, "unknown scenario '%s'\n", sc.c_str());
      return 2;
    }
    std::vector<Backend> bs;
    if (backend_s.empty() || backend_s == "all") {
      bs = {Backend::kBlfq, Backend::kZmq, Backend::kVl, Backend::kVlIdeal,
            Backend::kCaf};
    } else if (auto b = parse_backend(backend_s)) {
      bs = {*b};
    } else {
      std::fprintf(stderr, "unknown backend '%s'\n", backend_s.c_str());
      return 2;
    }
    // CLI cells honor the preset's supervisor default unless --no-supervisor
    // (replay rows always run static quotas so record and replay match).
    const bool sup = !is_workload_row(sc) && !is_replay_row(sc) &&
                     vl::traffic::find_scenario(sc)->supervisor &&
                     !no_supervisor;
    for (Backend b : bs) matrix.push_back({sc, b, batch, shards, false, sup});
  } else {
    matrix.assign(std::begin(kDefaultMatrix), std::end(kDefaultMatrix));
  }

  vl::bench::print_header("sim_throughput",
                          "kernel events per scenario (deterministic)");
  std::vector<Row> rows;
  bool replay_fail = false;
  for (const RunSpec& rs : matrix)
    rows.push_back(run_one(rs.scenario, rs.backend, seed, scale, rs.batch,
                           rs.shards, rs.timeline, rs.sup, faults,
                           &replay_fail));

  vl::TextTable tt({"scenario", "backend", "events", "sim_ticks", "delivered",
                    "lat_p99", "ev/msg"});
  for (const Row& r : rows)
    tt.add_row({r.scenario, r.backend, std::to_string(r.events),
                std::to_string(r.ticks), std::to_string(r.delivered),
                std::to_string(r.lat_p99),
                vl::TextTable::num(r.events_per_msg, 1)});
  std::printf("%s\n", tt.render().c_str());

  write_json(out, rows, seed, scale);

  // Deterministic digest lines for the wl- rows (CI runs this twice and
  // cmps the files: identical simulations must produce identical digests).
  if (!digest_path.empty()) {
    std::FILE* df = std::fopen(digest_path.c_str(), "w");
    if (!df) {
      std::fprintf(stderr, "sim_throughput: cannot write %s\n",
                   digest_path.c_str());
      return 2;
    }
    for (const Row& r : rows)
      if (!r.digest.empty()) std::fprintf(df, "%s\n", r.digest.c_str());
    std::fclose(df);
    std::fprintf(stderr, "wrote %s\n", digest_path.c_str());
  }

  // Observability overhead guard: every "(tl)" row must stay within 5% of
  // its plain sibling's ev/msg. Timeline sampling runs outside the event
  // loop, so the expected delta is exactly zero — a violation means
  // someone made observation schedule events.
  int rc = replay_fail ? 1 : 0;
  for (const Row& r : rows) {
    const std::string suffix = "(tl)";
    if (r.scenario.size() <= suffix.size() ||
        r.scenario.compare(r.scenario.size() - suffix.size(), suffix.size(),
                           suffix) != 0)
      continue;
    const std::string base = r.scenario.substr(0, r.scenario.size() - 4);
    for (const Row& b : rows) {
      if (b.scenario != base || b.backend != r.backend) continue;
      const double delta =
          b.events_per_msg > 0
              ? (r.events_per_msg - b.events_per_msg) / b.events_per_msg
              : 0.0;
      if (delta > 0.05) {
        std::fprintf(stderr,
                     "FAIL: %s/%s ev/msg %.2f exceeds plain %.2f by %.1f%% "
                     "(budget 5%%)\n",
                     r.scenario.c_str(), r.backend.c_str(), r.events_per_msg,
                     b.events_per_msg, delta * 100.0);
        rc = 1;
      } else {
        std::fprintf(stderr, "obs overhead guard: %s/%s ev/msg %.2f vs %.2f "
                     "(%+.2f%%) within 5%% budget\n",
                     r.scenario.c_str(), r.backend.c_str(), r.events_per_msg,
                     b.events_per_msg, delta * 100.0);
      }
    }
  }
  return rc;
}
