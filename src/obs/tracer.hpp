#pragma once
// Chrome-trace (chrome://tracing / Perfetto "Trace Event Format") tracer.
//
// Event model: duration begin/end pairs (ph "B"/"E") and instants (ph "i"),
// mapped onto the simulator as
//     pid = shard id (0 for a single-node run; a sharded run adds one
//           synthetic pid past the last shard for barrier
//           epochs, named "barrier"),
//     tid = actor lane: core_id * kTidStride + sim-thread id for SimThreads
//           (unique per coroutine, so B/E spans nest correctly per lane),
//           or kDeviceTid for device-side events (VLRD pipeline),
//     ts  = simulated tick (1 "us" in the viewer = 1 tick).
//
// Determinism and threading: events are appended to per-shard TraceBuffers
// hung off each shard's EventQueue, written only while that shard steps —
// under ShardedSim's host-thread stepping each buffer stays single-writer,
// and within a shard events land in (tick, seq) execution order, so the
// serialized output is identical run-to-run and identical sequential vs
// threaded. The barrier buffer is written only at the single-threaded
// barrier. No locks, no sorting pass, no timestamps from the host clock.
//
// Overhead: hooks test a TraceBuffer* that is nullptr unless --trace is
// given; configuring with -DVL_OBS_NO_TRACE=ON compiles the pointer away
// entirely (EventQueue::trace() becomes constexpr nullptr and every hook
// folds to nothing).
//
// Strings: cat/name/arg_name are const char* and must be string literals
// (or otherwise outlive the tracer) — events store the pointer, not a copy,
// keeping the record trivially copyable and the hot path free of
// allocation.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace vl::obs {

inline constexpr std::uint32_t kTidStride = 4096;  // tids per core lane block
inline constexpr std::uint32_t kDeviceTid = 0xD000;  // device-side events

/// Viewer lane for SimThread `tid` on core `core_id`.
inline std::uint32_t thread_tid(int core_id, int tid) {
  return static_cast<std::uint32_t>(core_id) * kTidStride +
         static_cast<std::uint32_t>(tid);
}

struct TraceEvent {
  Tick ts;
  std::uint32_t tid;
  char ph;               // 'B', 'E', or 'i'
  const char* cat;       // literal
  const char* name;      // literal
  const char* arg_name;  // literal or nullptr (no args)
  std::uint64_t arg;
};

/// Single-writer append-only event sink for one pid (shard).
class TraceBuffer {
 public:
  void begin(Tick ts, std::uint32_t tid, const char* cat, const char* name,
             const char* arg_name = nullptr, std::uint64_t arg = 0) {
    ev_.push_back({ts, tid, 'B', cat, name, arg_name, arg});
  }
  void end(Tick ts, std::uint32_t tid, const char* cat, const char* name) {
    ev_.push_back({ts, tid, 'E', cat, name, nullptr, 0});
  }
  void instant(Tick ts, std::uint32_t tid, const char* cat, const char* name,
               const char* arg_name = nullptr, std::uint64_t arg = 0) {
    ev_.push_back({ts, tid, 'i', cat, name, arg_name, arg});
  }

  std::size_t size() const { return ev_.size(); }
  const std::vector<TraceEvent>& events() const { return ev_; }

 private:
  std::vector<TraceEvent> ev_;
};

/// Owns one TraceBuffer per pid and serializes the whole set as Trace
/// Event Format JSON. All buffers must be created (buffer(pid) called)
/// before threaded stepping starts; after that, growth of the deque never
/// invalidates handed-out references and each buffer has one writer.
class Tracer {
 public:
  /// Buffer for `pid`, created on first use (with any intermediate pids).
  TraceBuffer& buffer(std::uint32_t pid);

  /// Viewer label for `pid` (emitted as a process_name metadata event).
  void set_process_name(std::uint32_t pid, std::string name);

  std::size_t total_events() const;

  /// Full trace document: {"traceEvents": [...], "displayTimeUnit": "ns"}.
  /// Events serialize buffer-by-buffer (pid order), each buffer already in
  /// execution order — the viewer sorts by ts itself; run-to-run output is
  /// byte-identical.
  std::string json() const;
  bool write(const std::string& path) const;

 private:
  std::deque<TraceBuffer> bufs_;  // deque: reference-stable growth
  std::vector<std::string> proc_names_;
};

}  // namespace vl::obs
