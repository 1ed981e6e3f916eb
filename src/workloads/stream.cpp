// STREAM triad (McCalpin): a[i] = b[i] + s*c[i] over arrays sized well past
// the LLC, used by Fig. 14 to measure how much each message-channel
// implementation perturbs a memory-bound bystander.

#include <memory>

#include "workloads/runner.hpp"

namespace vl::workloads {

namespace {

using sim::Co;
using sim::SimThread;

// Completion state shared by one STREAM run's threads.
struct Finish {
  int remaining;
  bool* done;
  Tick* end;
};

Co<void> triad(SimThread t, Addr a, Addr b, Addr c, std::size_t lines,
               int iters, std::shared_ptr<Finish> fin) {
  for (int it = 0; it < iters; ++it) {
    for (std::size_t i = 0; i < lines; ++i) {
      const Addr off = i * kLineSize;
      const std::uint64_t vb = co_await t.load(b + off, 8);
      const std::uint64_t vc = co_await t.load(c + off, 8);
      co_await t.compute(1);
      co_await t.store(a + off, vb + 3 * vc, 8);
    }
  }
  if (--fin->remaining == 0) {
    if (fin->done) *fin->done = true;
    if (fin->end) *fin->end = t.core->eq().now();
  }
}

}  // namespace

void spawn_stream(runtime::Machine& m, const StreamParams& p, bool* done,
                  Tick* end) {
  const std::size_t per_thread = p.lines_per_array / p.threads;
  const Addr a = m.alloc(p.lines_per_array * kLineSize);
  const Addr b = m.alloc(p.lines_per_array * kLineSize);
  const Addr c = m.alloc(p.lines_per_array * kLineSize);
  auto fin = std::make_shared<Finish>(Finish{p.threads, done, end});
  for (int th = 0; th < p.threads; ++th) {
    const Addr off = th * per_thread * kLineSize;
    sim::spawn(triad(m.thread_on(p.first_core + static_cast<CoreId>(th)),
                     a + off, b + off, c + off, per_thread, p.iters, fin));
  }
}

WorkloadResult run_stream(runtime::Machine& m, const StreamParams& p) {
  const auto mem0 = m.mem().stats();
  const Tick t0 = m.now();
  spawn_stream(m, p);
  m.run();

  WorkloadResult r;
  r.workload = "STREAM";
  r.backend = "-";
  r.ticks = m.now() - t0;
  r.ns = m.ns(r.ticks);
  r.messages = 0;
  r.mem = m.mem().stats().diff(mem0);
  return r;
}

}  // namespace vl::workloads
