#pragma once
// Set-associative LRU tag store for `banks` identical caches: all private
// L1s in one store (one bank per core), the LLC as the one-bank case. Holds
// MESI state plus the "pushable" tag bit VL's ISA extension adds (§ III-B).
// A struct of arrays laid out (set, bank, way); all zero is an empty cache
// (README.md, "Tag store").

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/types.hpp"

namespace vl::mem {

/// Coherence states. kOwned exists only under the MOESI protocol variant
/// (CacheConfig::protocol): a dirty line that is being shared, with this
/// cache responsible for sourcing it — read-snoops of Modified lines then
/// skip the LLC writeback MESI pays.
enum class Mesi : std::uint8_t {
  kInvalid,
  kShared,
  kExclusive,
  kModified,
  kOwned,
};

inline const char* to_string(Mesi s) {
  switch (s) {
    case Mesi::kInvalid: return "I";
    case Mesi::kShared: return "S";
    case Mesi::kExclusive: return "E";
    case Mesi::kModified: return "M";
    case Mesi::kOwned: return "O";
  }
  return "?";
}

/// States whose data must be written back when the line leaves the cache.
inline bool holds_dirty(Mesi s) {
  return s == Mesi::kModified || s == Mesi::kOwned;
}

/// Index of one (set, bank, way) frame.
using Frame = std::uint32_t;
inline constexpr Frame kNoFrame = ~Frame{0};

/// A frame's state byte; all-zero is an invalid frame.
struct Meta {
  Mesi state : 3 = Mesi::kInvalid;
  bool pushable : 1 = false;  ///< VL injection permission bit (L1 only).
  bool dirty : 1 = false;     ///< LLC only: needs DRAM writeback on eviction.
};

class TagStore {
 public:
  /// `banks` caches of size_bytes/assoc bytes/ways each; line size fixed at
  /// kLineSize. Ranks are bytes, so assoc must be in [1, 256].
  TagStore(std::uint32_t size_bytes, std::uint32_t assoc,
           std::uint32_t banks = 1);

  /// The frame holding `line_addr` in `bank`, or kNoFrame.
  Frame find(Addr line_addr, std::uint32_t bank = 0) const {
    const Frame row = row_of(line_addr, bank);
    for (Frame f = row; f < row + assoc_; ++f)
      if (key_[f] == (line_addr | 1)) return f;
    return kNoFrame;
  }

  /// The victim frame for `line_addr` in `bank`: the first invalid way,
  /// else the least recently used. Does not modify the frame.
  Frame victim(Addr line_addr, std::uint32_t bank = 0) const;

  /// Install `line_addr` in frame `f` (from victim()) as its row's most
  /// recently used; pushable starts clear.
  void fill(Frame f, Addr line_addr, Mesi state, bool dirty = false);

  /// Mark recently used: rank 0, and every more recent frame ages by one.
  void touch(Frame f) {
    const Frame row = f - f % assoc_;
    const std::uint8_t r = rank_[f];
    for (Frame v = row; v < row + assoc_; ++v) rank_[v] += rank_[v] < r;
    rank_[f] = 0;
  }

  void invalidate(Frame f) {
    key_[f] = 0;
    meta_[f] = Meta{};
  }

  bool valid(Frame f) const { return key_[f] != 0; }
  Addr line(Frame f) const { return key_[f] & ~Addr{1}; }
  Meta& meta(Frame f) { return meta_[f]; }
  const Meta& meta(Frame f) const { return meta_[f]; }

  std::uint32_t num_sets() const { return sets_; }
  std::uint32_t assoc() const { return assoc_; }
  std::uint32_t banks() const { return banks_; }

  /// Visit every bank other than `self` that holds `line_addr`, in
  /// ascending bank order: fn(bank, frame). The set's key row is compared
  /// into a hit mask 64 frames at a time; fn may change only its frame.
  template <class Fn>
  void for_each_peer(Addr line_addr, std::uint32_t self, Fn&& fn) {
    const Frame row = row_of(line_addr, 0);
    const Frame end = row + banks_ * assoc_;
    for (Frame base = row; base < end; base += 64) {
      std::uint64_t hits = 0;
      for (Frame f = base; f < end && f < base + 64; ++f)
        hits |= std::uint64_t{key_[f] == (line_addr | 1)} << (f - base);
      for (; hits; hits &= hits - 1) {
        const Frame f = base + static_cast<Frame>(std::countr_zero(hits));
        if (const std::uint32_t bank = (f - row) / assoc_; bank != self)
          fn(bank, f);
      }
    }
  }

  /// Visit every valid frame of `bank`.
  template <class Fn>
  void for_each_valid(std::uint32_t bank, Fn&& fn) {
    for (std::uint32_t s = 0; s < sets_; ++s)
      for (Frame f = (s * banks_ + bank) * assoc_, e = f + assoc_; f < e; ++f)
        if (valid(f)) fn(f);
  }

 private:
  Frame row_of(Addr line_addr, std::uint32_t bank) const {
    const auto set =
        static_cast<std::uint32_t>((line_addr >> kLineShift) % sets_);
    return (set * banks_ + bank) * assoc_;
  }

  std::uint32_t sets_;
  std::uint32_t assoc_;
  std::uint32_t banks_;
  // One calloc'd block holding key_, meta_ and rank_: untouched pages of an
  // unused set cost nothing.
  std::unique_ptr<void, decltype(&std::free)> mem_{nullptr, &std::free};
  Addr* key_;
  Meta* meta_;
  std::uint8_t* rank_;
};

}  // namespace vl::mem
