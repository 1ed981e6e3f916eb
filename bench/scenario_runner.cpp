// Scenario runner CLI: drive any registered traffic scenario over any (or
// every) queue backend and emit per-tenant percentile metrics.
//
//   scenario_runner --scenario incast-burst --backend vl --seed 42
//   scenario_runner --scenario all --backend all --scale 2
//   scenario_runner --scenario qos-incast --backend caf --no-qos
//   scenario_runner --scenario incast-burst --backend vl --batch 8
//   scenario_runner --sweep --scales 1,2,4 --batches 1,8
//   scenario_runner --list
//   scenario_runner --scenario qos-incast --backend vl --timeline tl.csv
//       --sample-every 5000 --trace trace.json --metrics-json metrics.json
//
// CSV goes to stdout (byte-identical across runs for fixed arguments —
// the simulation is fully deterministic); human-readable tables go to
// stderr so redirecting stdout yields a clean data file.
//
// --sweep runs the selected scenarios over every (backend, scale) cell and
// prints a geomean summary table: per cell, the geometric mean across
// scenarios of delivered Mmsgs/s and of simulated ticks — the Fig.-style
// scaling view over the whole preset suite.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/hooks.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "replay/lifecycle.hpp"
#include "replay/trace.hpp"
#include "replay/warm_restart.hpp"
#include "traffic/engine.hpp"
#include "traffic/sharded_engine.hpp"
#include "workloads/runner.hpp"

namespace {

using vl::bench::arg_value;
using vl::bench::parse_backend;
using vl::squeue::Backend;

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

void print_usage() {
  std::fprintf(stderr,
               "usage: scenario_runner [--scenario NAME|all] [--backend "
               "blfq|zmq|vl|vlideal|caf|all]\n"
               "                       [--seed N] [--scale N] [--batch N] "
               "[--list] [--quiet] [--no-qos]\n"
               "                       [--sweep [--scales N,N,..] "
               "[--batches N,N,..]]\n"
               "                       [--shards N [--sim-threads N] "
               "[--tenants N]]\n"
               "  --no-qos  run with tenant QoS classes recorded but not\n"
               "            enforced in hardware (ablation baseline)\n"
               "  --batch   override every tenant's injection batch\n"
               "            (TenantSpec::batch; 0 keeps preset values)\n"
               "  --shards  run the scenario on a mesh of N shards\n"
               "            (needs a preset with a sharding block)\n"
               "  --sim-threads  step shards on N host threads; output is\n"
               "            byte-identical to sequential stepping\n"
               "  --tenants override the sharded tenant population\n"
               "  --timeline FILE  sample an epoch time-series into FILE\n"
               "            (.json for JSON, anything else long-form CSV);\n"
               "            single (scenario, backend) cell only\n"
               "  --sample-every N  timeline sampling period in sim ticks\n"
               "            (default 10000; single node and shard mesh\n"
               "            alike)\n"
               "  --trace FILE  write a Chrome-trace JSON of the run\n"
               "            (load in Perfetto / chrome://tracing);\n"
               "            single cell only\n"
               "  --metrics-json FILE  dump end-of-run ScenarioMetrics\n"
               "            (incl. per-class rows) as a JSON runs array\n"
               "  --faults SPEC  deterministic fault schedule (see\n"
               "            fault/spec.hpp grammar), e.g.\n"
               "            'stall@20000+30000;spike@10000+5000:extra=256'\n"
               "            or 'rand:7' — overrides the preset's schedule;\n"
               "            loss/dup apply at the send boundary on every\n"
               "            backend, replayed streams included\n"
               "  --no-supervisor  disable the closed-loop QoS supervisor\n"
               "            on presets that enable it (ablation baseline)\n"
               "  --assert-slo CLASS=PCT  exit 3 unless CLASS's SLO\n"
               "            attainment is >= PCT in every cell that has it\n"
               "            and some cell has it (CI gate); an unknown class\n"
               "            or a PCT outside [0, 100] exits 2,\n"
               "            e.g. --assert-slo latency=90\n"
               "  --record FILE  tap the engine send boundary and save the\n"
               "            per-message trace (.csv or binary by extension);\n"
               "            single cell only\n"
               "  --replay FILE  drive the run from a recorded trace instead\n"
               "            of the preset's arrival processes; single cell,\n"
               "            shape (scenario/producers/tenants) must match;\n"
               "            flash@ and join/leave are rejected (a trace is\n"
               "            the post-shed, post-churn stream)\n"
               "  --churn SPEC  lifecycle events (replay/lifecycle.hpp\n"
               "            grammar), e.g.\n"
               "            'leave@30000:tenant=bulk;join@45000:tenant=bulk'\n"
               "            (single node or --shards) or 'reconfig@20000'\n"
               "            (VL backends, single node only). Exit 4 on a\n"
               "            conservation violation\n"
               "  --warm-restart  run the snapshot/rebuild/restore drill on\n"
               "            the selected device backend (vl|vlideal|caf)\n"
               "            and print its one-line report\n");
}

/// Run one (scenario, backend) cell, honouring the --no-qos ablation and
/// the --batch override (0 = keep the preset's per-tenant batches). With
/// shards > 0 the cell runs on a shard mesh instead (the merged
/// EngineResult keeps the single-node CSV/table shape), with --tenants
/// overriding the preset's logical population.
vl::traffic::EngineResult run_cell(const std::string& name, Backend b,
                                   std::uint64_t seed, int scale,
                                   bool no_qos, std::uint32_t batch,
                                   int shards = 0, int sim_threads = 1,
                                   std::uint64_t tenants = 0,
                                   const vl::obs::RunHooks* obs = nullptr,
                                   bool no_supervisor = false,
                                   const std::string& faults = "",
                                   const std::string& churn = "",
                                   const vl::replay::Trace* replay = nullptr) {
  const vl::traffic::ScenarioSpec* spec = vl::traffic::find_scenario(name);
  if (!spec) throw std::invalid_argument("unknown scenario: " + name);
  vl::traffic::ScenarioSpec run = *spec;
  if (no_qos && run.qos) run.qos = false;
  if (no_supervisor) run.supervisor = false;
  if (!faults.empty()) run.faults = vl::fault::FaultSpec::parse(faults);
  if (!churn.empty()) run.lifecycle = vl::replay::LifecycleSpec::parse(churn);
  run.replay = replay;
  if (batch) run = vl::traffic::with_batch(run, batch);
  if (shards > 0) {
    vl::traffic::ShardedOptions opts;
    opts.shards = shards;
    opts.sim_threads = sim_threads;
    opts.population = tenants;
    opts.obs = obs;
    const vl::traffic::ShardedResult r =
        vl::traffic::run_sharded(run, b, seed, opts, scale);
    std::fprintf(stderr,
                 "sharded: shards=%d sim_threads=%d cross_shard=%llu "
                 "epochs=%llu window_stalls=%llu rebalanced=%llu\n",
                 r.shards, r.sim_threads,
                 static_cast<unsigned long long>(r.cross_shard),
                 static_cast<unsigned long long>(r.epochs),
                 static_cast<unsigned long long>(r.window_stalls),
                 static_cast<unsigned long long>(r.rebalanced));
    return r.engine;
  }
  return vl::traffic::run_spec(run, b, seed, scale, obs);
}

/// Write `text` to `path`; exits the process on I/O failure so a silently
/// missing artifact can't pass CI.
void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

std::vector<int> parse_scales(const char* s) {
  std::vector<int> out;
  int cur = 0;
  bool have = false;
  for (const char* p = s;; ++p) {
    if (*p >= '0' && *p <= '9') {
      cur = cur * 10 + (*p - '0');
      have = true;
    } else if (*p == ',' || *p == '\0') {
      if (have && cur > 0) out.push_back(cur);
      cur = 0;
      have = false;
      if (*p == '\0') break;
    } else {
      return {};
    }
  }
  return out;
}

int run_sweep(const std::vector<std::string>& scenarios,
              const std::vector<Backend>& backends,
              const std::vector<int>& scales, const std::vector<int>& batches,
              std::uint64_t seed, bool no_qos, bool no_supervisor,
              const std::string& faults) {
  vl::TextTable tt({"backend", "scale", "batch", "scenarios",
                    "geomean_Mmsg/s", "geomean_ticks", "geomean_ev/msg",
                    "geomean_p99_lat", "slo_att_%"});
  for (Backend b : backends) {
    for (int scale : scales) {
      for (int batch : batches) {
      std::vector<double> rates, ticks, evpm, lat_p99s;
      std::uint64_t slo_delivered = 0, slo_within = 0;
      for (const auto& name : scenarios) {
        const vl::traffic::EngineResult r = run_cell(
            name, b, seed, scale, no_qos, static_cast<std::uint32_t>(batch),
            0, 1, 0, nullptr, no_supervisor, faults);
        const double secs = r.metrics.ns * 1e-9;
        const auto delivered = r.metrics.total_delivered();
        rates.push_back(secs > 0
                            ? static_cast<double>(delivered) / secs / 1e6
                            : 0.0);
        ticks.push_back(static_cast<double>(r.metrics.ticks));
        evpm.push_back(delivered ? static_cast<double>(r.events) /
                                       static_cast<double>(delivered)
                                 : 0.0);
        // Per-class view: the latency class's p99 across the scenarios that
        // define one, and overall SLO attainment across SLO-carrying
        // tenants — the sweep-level QoS figures of merit.
        for (const auto& c : r.metrics.by_class()) {
          if (c.cls == vl::QosClass::kLatency && c.agg.delivered)
            lat_p99s.push_back(
                static_cast<double>(c.agg.latency.percentile(99)));
          slo_delivered += c.slo_delivered;
          slo_within += c.slo_within;
        }
        std::fprintf(stderr,
                     "sweep: %s backend=%s scale=%d batch=%d ticks=%llu\n",
                     name.c_str(), r.backend.c_str(), scale, batch,
                     static_cast<unsigned long long>(r.metrics.ticks));
      }
      tt.add_row({to_string(b), std::to_string(scale), std::to_string(batch),
                  std::to_string(scenarios.size()),
                  vl::TextTable::num(vl::geomean(rates), 3),
                  vl::TextTable::num(vl::geomean(ticks), 0),
                  vl::TextTable::num(vl::geomean(evpm), 1),
                  lat_p99s.empty()
                      ? std::string("-")
                      : vl::TextTable::num(vl::geomean(lat_p99s), 0),
                  slo_delivered
                      ? vl::TextTable::num(100.0 *
                                               static_cast<double>(slo_within) /
                                               static_cast<double>(
                                                   slo_delivered),
                                           1)
                      : std::string("-")});
      }
    }
  }
  std::printf("%s", tt.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--help") || has_flag(argc, argv, "-h")) {
    print_usage();
    return 0;
  }
  if (has_flag(argc, argv, "--list")) {
    std::printf("scenario presets (--scenario NAME):\n");
    for (const auto& name : vl::traffic::scenario_names()) {
      const auto* s = vl::traffic::find_scenario(name);
      std::printf("  %-18s %s (%s, %d producers, %zu tenants)\n", name.c_str(),
                  s->summary.c_str(), to_string(s->topology), s->producers,
                  s->tenants.size());
    }
    std::printf("\nregistered workloads (bench_sim_throughput --scenario "
                "wl-NAME):\n");
    for (const auto* w : vl::workloads::all_workloads())
      std::printf("  %-18s %s\n", w->name, w->summary);
    return 0;
  }

  const std::string scenario = arg_value(argc, argv, "--scenario", "all");
  const std::string backend_s = arg_value(argc, argv, "--backend", "all");
  const auto seed = static_cast<std::uint64_t>(
      std::strtoull(arg_value(argc, argv, "--seed", "42"), nullptr, 10));
  const int scale = vl::bench::arg_scale(argc, argv, 1);
  const auto batch = static_cast<std::uint32_t>(
      std::strtoul(arg_value(argc, argv, "--batch", "0"), nullptr, 10));
  const bool quiet = has_flag(argc, argv, "--quiet");
  const bool no_qos = has_flag(argc, argv, "--no-qos");
  const int shards = static_cast<int>(
      std::strtol(arg_value(argc, argv, "--shards", "0"), nullptr, 10));
  const int sim_threads = static_cast<int>(
      std::strtol(arg_value(argc, argv, "--sim-threads", "1"), nullptr, 10));
  const auto tenants = static_cast<std::uint64_t>(
      std::strtoull(arg_value(argc, argv, "--tenants", "0"), nullptr, 10));
  const std::string timeline_path = arg_value(argc, argv, "--timeline", "");
  const std::string trace_path = arg_value(argc, argv, "--trace", "");
  const std::string metrics_json_path =
      arg_value(argc, argv, "--metrics-json", "");
  const auto sample_every = static_cast<vl::Tick>(
      std::strtoull(arg_value(argc, argv, "--sample-every", "10000"), nullptr,
                    10));
  const bool no_supervisor = has_flag(argc, argv, "--no-supervisor");
  const std::string faults = arg_value(argc, argv, "--faults", "");
  if (!faults.empty()) {
    try {
      std::fprintf(stderr, "faults: %s\n",
                   vl::fault::FaultSpec::parse(faults).summary().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  const std::string record_path = arg_value(argc, argv, "--record", "");
  const std::string replay_path = arg_value(argc, argv, "--replay", "");
  const std::string churn = arg_value(argc, argv, "--churn", "");
  const bool warm_restart = has_flag(argc, argv, "--warm-restart");
  if (!churn.empty()) {
    try {
      std::fprintf(stderr, "churn: %s\n",
                   vl::replay::LifecycleSpec::parse(churn).summary().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  // --assert-slo CLASS=PCT: the CI chaos-smoke gate.
  const std::string assert_slo = arg_value(argc, argv, "--assert-slo", "");
  std::string slo_class;
  double slo_threshold = 0.0;
  if (!assert_slo.empty()) {
    const auto eq = assert_slo.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "--assert-slo needs CLASS=PCT\n");
      return 2;
    }
    slo_class = assert_slo.substr(0, eq);
    bool known = false;
    for (std::size_t c = 0; c < vl::kQosClasses; ++c)
      known |= slo_class == to_string(static_cast<vl::QosClass>(c));
    if (!known) {
      std::fprintf(stderr,
                   "--assert-slo: unknown class '%s' (standard, latency, "
                   "bulk)\n",
                   slo_class.c_str());
      return 2;
    }
    const char* pct = assert_slo.c_str() + eq + 1;
    char* end = nullptr;
    slo_threshold = std::strtod(pct, &end);
    if (end == pct || *end != '\0' || !std::isfinite(slo_threshold) ||
        slo_threshold < 0.0 || slo_threshold > 100.0) {
      std::fprintf(stderr,
                   "--assert-slo: threshold '%s' is not a percentage in "
                   "[0, 100]\n",
                   pct);
      return 2;
    }
  }

  std::vector<std::string> scenarios;
  if (scenario == "all") {
    scenarios = vl::traffic::scenario_names();
  } else if (vl::traffic::find_scenario(scenario)) {
    scenarios.push_back(scenario);
  } else {
    std::fprintf(stderr, "unknown scenario '%s'; --list shows presets\n",
                 scenario.c_str());
    return 2;
  }

  std::vector<Backend> backends;
  if (backend_s == "all") {
    backends = {Backend::kBlfq, Backend::kZmq, Backend::kVl,
                Backend::kVlIdeal, Backend::kCaf};
  } else if (auto b = parse_backend(backend_s)) {
    backends.push_back(*b);
  } else {
    std::fprintf(stderr, "unknown backend '%s'\n", backend_s.c_str());
    print_usage();
    return 2;
  }

  if (warm_restart) {
    for (Backend b : backends) {
      vl::replay::WarmRestartReport rep;
      try {
        rep = vl::replay::run_warm_restart(b, seed);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
      std::printf("%s\n", rep.text().c_str());
      if (!rep.conserved()) {
        std::fprintf(stderr, "warm-restart: conservation FAILED\n");
        return 4;
      }
    }
    return 0;
  }

  if (has_flag(argc, argv, "--sweep")) {
    if (!slo_class.empty()) {
      std::fprintf(stderr, "--assert-slo checks single runs, not --sweep\n");
      return 2;
    }
    const std::vector<int> scales =
        parse_scales(arg_value(argc, argv, "--scales", "1,2"));
    if (scales.empty()) {
      std::fprintf(stderr, "bad --scales list\n");
      print_usage();
      return 2;
    }
    // The batch sweep dimension: 0 keeps each preset's per-tenant batches.
    const std::string batches_def = batch ? std::to_string(batch) : "1";
    const std::vector<int> batches = parse_scales(
        arg_value(argc, argv, "--batches", batches_def.c_str()));
    if (batches.empty()) {
      std::fprintf(stderr, "bad --batches list\n");
      print_usage();
      return 2;
    }
    return run_sweep(scenarios, backends, scales, batches, seed, no_qos,
                     no_supervisor, faults);
  }

  // Timeline/trace/record capture one run's time axis; a multi-cell sweep
  // would interleave unrelated runs into one file, so require a single
  // cell. Replay likewise targets exactly one recorded run.
  const bool want_obs = !timeline_path.empty() || !trace_path.empty() ||
                        !record_path.empty();
  if ((want_obs || !replay_path.empty()) &&
      scenarios.size() * backends.size() != 1) {
    std::fprintf(stderr,
                 "--timeline/--trace/--record/--replay need a single "
                 "(scenario, backend) cell; pick --scenario NAME and "
                 "--backend NAME\n");
    return 2;
  }

  std::optional<vl::replay::Trace> replay_trace;
  if (!replay_path.empty()) {
    try {
      replay_trace = vl::replay::Trace::load(replay_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--replay %s: %s\n", replay_path.c_str(),
                   e.what());
      return 2;
    }
    std::fprintf(stderr,
                 "replay: %zu records from %s (scenario=%s backend=%s "
                 "seed=%llu)\n",
                 replay_trace->records.size(), replay_path.c_str(),
                 replay_trace->scenario.c_str(),
                 replay_trace->backend.c_str(),
                 static_cast<unsigned long long>(replay_trace->seed));
  }

  vl::obs::Timeline timeline;
  // On overflow, coarsen (halve history, keeping full-run coverage) rather
  // than silently evicting the oldest epochs.
  timeline.set_auto_coarsen(true);
  vl::obs::Tracer tracer;
  vl::replay::TraceRecorder recorder;
  vl::obs::RunHooks hooks;
  hooks.sample_every = sample_every;
  if (!timeline_path.empty()) hooks.timeline = &timeline;
  if (!trace_path.empty()) hooks.tracer = &tracer;
  if (!record_path.empty()) hooks.recorder = &recorder;

  bool slo_ok = true;
  bool slo_seen = false;  // Some cell reported the asserted class.
  bool conserved = true;  // --churn zero-loss check
  std::string metrics_json;  // Accumulated `runs` array body.
  bool header_done = false;
  for (const auto& name : scenarios) {
    for (Backend b : backends) {
      vl::traffic::EngineResult r;
      try {
        r = run_cell(name, b, seed, scale, no_qos, batch, shards,
                     sim_threads, tenants, hooks.any() ? &hooks : nullptr,
                     no_supervisor, faults, churn,
                     replay_trace ? &*replay_trace : nullptr);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
      // Churn conservation: a tenant leaving/rejoining must strand nothing
      // — every generated message is delivered or accounted as dropped.
      if (!churn.empty()) {
        for (const auto& t : r.metrics.tenants) {
          if (t.generated == t.delivered + t.dropped) continue;
          std::fprintf(stderr,
                       "churn: conservation VIOLATED for tenant %s: "
                       "generated=%llu delivered=%llu dropped=%llu\n",
                       t.tenant.c_str(),
                       static_cast<unsigned long long>(t.generated),
                       static_cast<unsigned long long>(t.delivered),
                       static_cast<unsigned long long>(t.dropped));
          conserved = false;
        }
      }
      if (!slo_class.empty()) {
        for (const auto& c : r.metrics.by_class()) {
          if (to_string(c.cls) != slo_class || !c.slo_delivered) continue;
          slo_seen = true;
          const double att = 100.0 * static_cast<double>(c.slo_within) /
                             static_cast<double>(c.slo_delivered);
          std::fprintf(stderr, "assert-slo: %s %s %s=%.2f%% (need %.2f%%)\n",
                       name.c_str(), r.backend.c_str(), slo_class.c_str(),
                       att, slo_threshold);
          if (att < slo_threshold) slo_ok = false;
        }
      }
      // One shared CSV header across the whole sweep.
      const std::string csv = r.csv();
      const std::size_t nl = csv.find('\n');
      std::fputs(header_done ? csv.c_str() + nl + 1 : csv.c_str(), stdout);
      header_done = true;
      if (!quiet) std::fprintf(stderr, "%s\n", r.table().c_str());
      if (!metrics_json_path.empty()) {
        if (!metrics_json.empty()) metrics_json += ",\n";
        metrics_json += "{\"scenario\":\"" + r.scenario + "\",\"backend\":\"" +
                        r.backend + "\",\"seed\":" + std::to_string(r.seed) +
                        ",\"scale\":" + std::to_string(r.scale) +
                        ",\"events\":" + std::to_string(r.events) +
                        ",\"metrics\":" + r.metrics.json() + "}";
      }
    }
  }
  if (!timeline_path.empty()) {
    // Surface ring-capacity losses: with auto-coarsen the file still
    // covers the whole run, but at a coarser effective cadence the reader
    // should know about; dropped() > 0 would mean truncated history.
    if (timeline.coarsenings() > 0)
      std::fprintf(stderr,
                   "timeline: ring filled %llu time(s); auto-coarsened to an "
                   "effective --sample-every of ~%llu ticks\n",
                   static_cast<unsigned long long>(timeline.coarsenings()),
                   static_cast<unsigned long long>(
                       sample_every << timeline.coarsenings()));
    if (timeline.dropped() > 0)
      std::fprintf(stderr,
                   "timeline: warning: %llu oldest epochs evicted by the "
                   "ring cap; raise --sample-every to keep full coverage\n",
                   static_cast<unsigned long long>(timeline.dropped()));
    if (!timeline.write(timeline_path)) {
      std::fprintf(stderr, "cannot write %s\n", timeline_path.c_str());
      return 1;
    }
  }
  if (!trace_path.empty()) write_file(trace_path, tracer.json());
  if (!metrics_json_path.empty())
    write_file(metrics_json_path, "{\"runs\":[\n" + metrics_json + "\n]}\n");
  if (!record_path.empty()) {
    const vl::replay::Trace tr = recorder.finish();
    if (!tr.save(record_path)) {
      std::fprintf(stderr, "cannot write %s\n", record_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "recorded %zu messages to %s\n", tr.records.size(),
                 record_path.c_str());
  }
  if (!slo_ok) {
    std::fprintf(stderr, "assert-slo: FAILED (attainment below %.2f%%)\n",
                 slo_threshold);
    return 3;
  }
  if (!slo_class.empty() && !slo_seen) {
    std::fprintf(stderr,
                 "assert-slo: FAILED (no cell delivered SLO traffic of class "
                 "%s)\n",
                 slo_class.c_str());
    return 3;
  }
  if (!conserved) {
    std::fprintf(stderr, "churn: conservation FAILED\n");
    return 4;
  }
  return 0;
}
