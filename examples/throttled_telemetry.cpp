// Throttled telemetry: the § II back-pressure story end to end.
//
// Twelve sensor threads push readings to one aggregator over a single VL
// queue whose routing-device buffer is deliberately small. A naive sensor
// retries failed pushes in a tight loop, burning device round trips on
// NACKs; an AIMD-throttled sensor (runtime::Throttle) converges on its
// fair share of the aggregator's service rate. Each reading carries its
// send tick, so the aggregator reports end-to-end latency percentiles.
//
//   $ ./examples/throttled_telemetry

#include <cstdio>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "runtime/machine.hpp"
#include "runtime/throttle.hpp"
#include "runtime/vl_queue.hpp"

using namespace vl;

namespace {
constexpr int kSensors = 12;
constexpr int kPerSensor = 40;

struct RunResult {
  std::uint64_t nacks = 0;
  double p50 = 0, p99 = 0;
  double total_us = 0;
};

RunResult run(bool throttled) {
  sim::SystemConfig cfg;
  cfg.vlrd.prod_entries = 8;  // small device buffer: pressure is real
  runtime::Machine machine(cfg);
  runtime::VlQueueLib lib(machine);
  const auto q = lib.open("telemetry");

  std::vector<runtime::Producer> sensors;
  for (int s = 0; s < kSensors; ++s)
    sensors.push_back(
        lib.make_producer(q, machine.thread_on(static_cast<CoreId>(s))));
  auto aggregator = lib.make_consumer(q, machine.thread_on(13));

  for (int s = 0; s < kSensors; ++s) {
    sim::spawn([](runtime::Producer& p, runtime::Machine& m, int id,
                  bool use_throttle) -> sim::Co<void> {
      runtime::Throttle th;
      for (int i = 0; i < kPerSensor; ++i) {
        for (;;) {
          if (use_throttle) co_await th.pace(p.thread());
          const std::uint64_t words[3] = {
              static_cast<std::uint64_t>(id), static_cast<std::uint64_t>(i),
              m.now()};  // reading carries its send tick
          const bool ok = co_await p.try_enqueue(
              std::span<const std::uint64_t>(words, 3));
          th.on_result(ok);
          if (ok) break;
          if (!use_throttle) co_await p.thread().compute(8);  // hot retry
        }
        co_await p.thread().compute(150);  // sensor sampling interval
      }
    }(sensors[s], machine, s, throttled));
  }

  Samples latencies;
  sim::spawn([](runtime::Consumer& c, runtime::Machine& m,
                Samples* lat) -> sim::Co<void> {
    for (int i = 0; i < kSensors * kPerSensor; ++i) {
      const auto msg = co_await c.dequeue();
      lat->record(m.ns(m.now() - msg.elems[2]));
      co_await c.thread().compute(400);  // aggregation work per reading
    }
  }(aggregator, machine, &latencies));
  machine.run();

  RunResult r;
  r.nacks = machine.vlrd_stats().push_nacks;
  r.p50 = latencies.percentile(50);
  r.p99 = latencies.percentile(99);
  r.total_us = machine.ns(machine.now()) / 1000.0;
  return r;
}
}  // namespace

int main() {
  const RunResult naive = run(false);
  const RunResult paced = run(true);
  std::printf("%-22s %12s %12s\n", "", "naive retry", "AIMD-paced");
  std::printf("%-22s %12llu %12llu\n", "device push NACKs",
              static_cast<unsigned long long>(naive.nacks),
              static_cast<unsigned long long>(paced.nacks));
  std::printf("%-22s %9.0f ns %9.0f ns\n", "latency P50", naive.p50,
              paced.p50);
  std::printf("%-22s %9.0f ns %9.0f ns\n", "latency P99", naive.p99,
              paced.p99);
  std::printf("%-22s %9.1f us %9.1f us\n", "total run", naive.total_us,
              paced.total_us);
  const bool pass = paced.nacks < naive.nacks;
  std::printf("\nThe consumer is the bottleneck either way, so total time "
              "barely moves;\nwhat pacing buys is the wasted device traffic "
              "(NACKs) and the tail.\n%s\n", pass ? "OK" : "FAILED");
  return pass ? 0 : 1;
}
