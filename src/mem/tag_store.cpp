#include "mem/tag_store.hpp"

#include <new>
#include <stdexcept>
#include <string>

namespace vl::mem {

namespace {
std::uint32_t num_sets_for(std::uint32_t size_bytes, std::uint32_t assoc) {
  const std::uint32_t lines = size_bytes / kLineSize;
  if (assoc < 1 || assoc > 256 || lines < assoc || lines % assoc != 0)
    throw std::invalid_argument("TagStore: " + std::to_string(lines) +
                                " lines do not form sets of " +
                                std::to_string(assoc) + " ways (1 to 256)");
  return lines / assoc;
}
}  // namespace

TagStore::TagStore(std::uint32_t size_bytes, std::uint32_t assoc,
                   std::uint32_t banks)
    : sets_(num_sets_for(size_bytes, assoc)), assoc_(assoc), banks_(banks) {
  static_assert(sizeof(Meta) == 1);
  const std::size_t n = std::size_t{sets_} * banks_ * assoc_;
  mem_.reset(std::calloc(n, sizeof(Addr) + sizeof(Meta) + 1));
  if (!mem_) throw std::bad_alloc();
  key_ = static_cast<Addr*>(mem_.get());
  meta_ = reinterpret_cast<Meta*>(key_ + n);
  rank_ = reinterpret_cast<std::uint8_t*>(meta_ + n);
}

Frame TagStore::victim(Addr line_addr, std::uint32_t bank) const {
  const Frame row = row_of(line_addr, bank);
  Frame lru = row;
  for (Frame f = row; f < row + assoc_; ++f) {
    if (!valid(f)) return f;
    if (rank_[f] > rank_[lru]) lru = f;
  }
  return lru;
}

void TagStore::fill(Frame f, Addr line_addr, Mesi state, bool dirty) {
  // A row's ranks are a permutation of [0, assoc) that touch() keeps in use
  // order; a row never filled still reads all zero, so give it way order.
  // The line enters at f's rank (the oldest if the row was full) and moves
  // to the front.
  const Frame row = f - f % assoc_;
  if (assoc_ > 1 && rank_[row] == rank_[row + 1])
    for (Frame v = row; v < row + assoc_; ++v)
      rank_[v] = static_cast<std::uint8_t>(v - row);
  key_[f] = line_addr | 1;
  meta_[f] = Meta{state, false, dirty};
  touch(f);
}

}  // namespace vl::mem
