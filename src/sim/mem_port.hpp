#pragma once
// Abstract memory interface between the core model and the cache hierarchy.
//
// The core issues a request and is notified through its MemDone at the tick
// the operation commits. Functional effects (the actual data update) happen
// at commit time inside the hierarchy, which — because the event loop is
// single-threaded — gives exact sequential-consistency semantics across
// simulated cores while the MESI model provides the timing and the
// coherence-event counters.

#include <cstdint>

#include "common/types.hpp"

namespace vl::sim {

enum class MemOp : std::uint8_t {
  kLoad,       ///< Load `size` bytes, result in MemResult::value.
  kStore,      ///< Store `size` bytes of `arg0`.
  kCas64,      ///< Compare-and-swap 8 B: expected=arg0, desired=arg1.
  kFetchAdd64, ///< Atomic fetch-add 8 B: delta=arg0, returns old value.
  kSwap64,     ///< Atomic exchange 8 B: new=arg0, returns old value.
  kLoadLine,   ///< Copy a whole 64 B line into `buf`.
  kStoreLine,  ///< Copy a whole 64 B line from `buf`.
};

struct MemRequest {
  MemOp op;
  Addr addr = 0;
  unsigned size = 8;          // 1/2/4/8 for scalar ops
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  void* buf = nullptr;        // for line ops
  CoreId core = 0;
};

struct MemResult {
  std::uint64_t value = 0;  ///< Loaded / old value for RMW ops.
  bool ok = true;           ///< CAS success flag.
};

/// Completion of an issued request. The issuer owns it and keeps it alive
/// until mem_done() runs, so the port stores a pointer, not a functor.
class MemDone {
 public:
  virtual void mem_done(MemResult r) = 0;

 protected:
  ~MemDone() = default;
};

class MemoryPort {
 public:
  virtual ~MemoryPort() = default;
  /// Issue a request; `done.mem_done()` runs exactly once, from the event
  /// at the commit tick (never inside issue()).
  virtual void issue(const MemRequest& req, MemDone& done) = 0;
};

}  // namespace vl::sim
