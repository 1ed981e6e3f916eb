#pragma once
// Per-message latency instrumentation for any Channel backend.
//
// § II motivates VL with queueing behaviour — transient rate mismatches,
// bursty occupancy, Little's-law pressure on buffers — all of which show up
// in the *distribution* of message latencies, not just aggregate runtime.
// LatencyChannel wraps a backend and timestamps every message: the send
// side appends the current tick as an extra payload word; the receive side
// strips it and records (now - sent) in an exact sample store.
// `bench/latency_tail` prints mean/P50/P99 per backend from this wrapper.
//
// The timestamp occupies one payload word, so wrapped messages may carry at
// most 6 user dwords (the Fig. 10 line fits 7).
//
// The wrapper interposes on the batched attempts and the blocking
// send_many/recv/recv_many (single sends and try_recv reach it as
// one-element batches): every call is forwarded to the inner backend with
// stamped copies, so the backend's batching fast paths and blocking
// (park/poll) policies stay in force. Blocking sends stamp at call start,
// so producer-side blocking counts toward the recorded latency —
// Little's-law pressure includes the time a message waits for enqueue
// headroom.

#include <algorithm>
#include <array>

#include "common/stats.hpp"
#include "squeue/channel.hpp"

namespace vl::squeue {

class LatencyChannel : public Channel {
 public:
  /// `ns_per_tick` scales recorded latencies into nanoseconds
  /// (SystemConfig::ns_per_tick); pass 1.0 to record raw ticks.
  LatencyChannel(Channel& inner, sim::EventQueue& eq, double ns_per_tick)
      : inner_(inner), eq_(eq), ns_per_tick_(ns_per_tick) {}

  sim::Co<SendManyResult> try_send_many(sim::SimThread t,
                                        std::span<const Msg> msgs) override {
    // Stamp into a frame-local chunk (no heap per call; a shared member
    // scratch would race between senders suspended mid-batch). Chunking
    // caps the copy at the backends' own run length.
    SendManyResult out;
    while (out.sent < msgs.size()) {
      std::array<Msg, kChunk> chunk;
      const std::size_t n =
          std::min<std::size_t>(kChunk, msgs.size() - out.sent);
      for (std::size_t i = 0; i < n; ++i)
        chunk[i] = stamped(msgs[out.sent + i]);
      const SendManyResult r = co_await inner_.try_send_many(
          t, std::span<const Msg>(chunk.data(), n));
      out.sent += r.sent;
      out.status = r.status;
      if (r.sent < n) break;
    }
    co_return out;
  }

  sim::Co<std::size_t> try_recv_many(sim::SimThread t,
                                     std::span<Msg> out) override {
    const std::size_t got = co_await inner_.try_recv_many(t, out);
    for (std::size_t i = 0; i < got; ++i) unstamp(out[i]);
    co_return got;
  }

  sim::Co<Msg> recv(sim::SimThread t) override {
    Msg m = co_await inner_.recv(t);
    unstamp(m);
    co_return m;
  }

  sim::Co<void> send_many(sim::SimThread t, std::span<const Msg> msgs) override {
    for (std::size_t at = 0; at < msgs.size(); at += kChunk) {
      std::array<Msg, kChunk> chunk;
      const std::size_t n = std::min<std::size_t>(kChunk, msgs.size() - at);
      for (std::size_t i = 0; i < n; ++i) chunk[i] = stamped(msgs[at + i]);
      co_await inner_.send_many(t, std::span<const Msg>(chunk.data(), n));
    }
  }

  sim::Co<std::size_t> recv_many(sim::SimThread t, std::span<Msg> out,
                                 std::size_t min_n = 1) override {
    const std::size_t got = co_await inner_.recv_many(t, out, min_n);
    for (std::size_t i = 0; i < got; ++i) unstamp(out[i]);
    co_return got;
  }

  std::uint64_t depth() const override { return inner_.depth(); }
  sim::WaitQueue* recv_wq() override { return inner_.recv_wq(); }

  /// Recorded end-to-end latencies (enqueue call to dequeue completion).
  const Samples& latencies() const { return latencies_; }
  Samples& latencies() { return latencies_; }

 private:
  /// Batch-stamping chunk size — matches the backends' run length (kMaxRun
  /// / endpoint ring), so chunking never shortens an inner fast-path run.
  static constexpr std::size_t kChunk = 8;

  Msg stamped(Msg m) const {
    assert(m.n < 7 && "latency stamping needs one free payload word");
    m.w[m.n++] = eq_.now();
    return m;
  }
  void unstamp(Msg& m) {
    assert(m.n >= 1);
    const Tick sent = m.w[--m.n];
    latencies_.record(static_cast<double>(eq_.now() - sent) * ns_per_tick_);
  }

  Channel& inner_;
  sim::EventQueue& eq_;
  double ns_per_tick_;
  Samples latencies_;
};

}  // namespace vl::squeue
