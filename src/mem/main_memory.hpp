#pragma once
// Functional backing store for the simulated flat physical address space.
//
// All committed data lives here; caches carry only tags/states for timing
// and coherence-event accounting (see README.md, "Functional/timing
// split"). Lines are allocated lazily and zero-initialized, mirroring fresh
// pages: 4 KiB pages of 64 lines behind an open-addressing page table, each
// page with a mask of the lines written so far. Reads allocate nothing.

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace vl::mem {

using Line = std::array<std::uint8_t, kLineSize>;

class MainMemory {
 public:
  /// Mutable access to a whole line (lazily created, zeroed).
  Line& line(Addr a);

  /// Scalar access; must not cross a line boundary. size in {1,2,4,8}.
  std::uint64_t read(Addr a, unsigned size) const;
  void write(Addr a, std::uint64_t v, unsigned size);

  void read_line(Addr a, void* out) const;
  void write_line(Addr a, const void* in);
  void zero_line(Addr a);

  /// Lines created so far (written, zeroed or handed out by line()).
  std::size_t resident_lines() const;

 private:
  static constexpr unsigned kPageShift = 12;
  static constexpr std::size_t kPageLines = (1u << kPageShift) / kLineSize;
  using Page = std::array<Line, kPageLines>;

  struct Slot {
    Addr key = 0;  ///< Page number + 1; 0 marks an empty slot.
    std::uint64_t resident = 0;  ///< Bit i: line i of the page exists.
    std::unique_ptr<Page> page;
  };

  /// The line holding `a`, or nullptr if its page was never created.
  const Line* find(Addr a) const;
  /// Index of the slot for `key`, or of the empty slot where it belongs.
  std::size_t probe(Addr key) const;
  void grow();

  static const Line kZeroLine;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::size_t pages_ = 0;
};

}  // namespace vl::mem
