#pragma once
// Observability hook bundle passed into the traffic engines. Every pointer
// is optional; a default-constructed RunHooks (or nullptr) means "observe
// nothing" and the engine behaves byte-identically to a build without obs.

#include "common/types.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"

namespace vl::replay {
class TraceRecorder;
}

namespace vl::obs {

struct RunHooks {
  /// Sampled every `sample_every` ticks (an epoch clock, on one node or a
  /// shard mesh), plus one final cumulative sample on the last fired
  /// tick. Series are registered by the engine.
  Timeline* timeline = nullptr;
  Tick sample_every = 10000;

  /// Flag-gated Chrome-trace sink. The engine wires per-shard buffers into
  /// each EventQueue; hooks in sim/squeue/vlrd test the queue's pointer.
  Tracer* tracer = nullptr;

  /// Send-boundary trace tap (src/replay/): the engine calls begin() with
  /// the run's shape and on_send() per message copy. Recording schedules
  /// nothing — runs stay byte-identical with it on or off.
  replay::TraceRecorder* recorder = nullptr;

  bool any() const { return timeline || tracer || recorder; }
};

}  // namespace vl::obs
