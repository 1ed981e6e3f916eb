#include "mem/main_memory.hpp"

#include <bit>
#include <cassert>

namespace vl::mem {

const Line MainMemory::kZeroLine{};

std::size_t MainMemory::probe(Addr key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = (key * 0x9e3779b97f4a7c15ull) >> 32 & mask;
  while (slots_[i].key != 0 && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

void MainMemory::grow() {
  std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
  old.swap(slots_);
  for (Slot& s : old)
    if (s.key) slots_[probe(s.key)] = std::move(s);
}

const Line* MainMemory::find(Addr a) const {
  if (slots_.empty()) return nullptr;
  // A line of a resident page that was never written is still zero.
  const Slot& s = slots_[probe((a >> kPageShift) + 1)];
  return s.key ? &(*s.page)[(a >> kLineShift) % kPageLines] : nullptr;
}

Line& MainMemory::line(Addr a) {
  if (2 * (pages_ + 1) > slots_.size()) grow();
  const Addr key = (a >> kPageShift) + 1;
  Slot& s = slots_[probe(key)];
  if (!s.key) {
    s.key = key;
    s.page = std::make_unique<Page>();
    ++pages_;
  }
  const std::size_t i = (a >> kLineShift) % kPageLines;
  s.resident |= std::uint64_t{1} << i;
  return (*s.page)[i];
}

std::size_t MainMemory::resident_lines() const {
  std::size_t n = 0;
  for (const Slot& s : slots_)
    n += static_cast<std::size_t>(std::popcount(s.resident));
  return n;
}

std::uint64_t MainMemory::read(Addr a, unsigned size) const {
  assert(size == 1 || size == 2 || size == 4 || size == 8);
  assert(line_offset(a) + size <= kLineSize && "access crosses line");
  const Line* l = find(a);
  std::uint64_t v = 0;
  std::memcpy(&v, (l ? *l : kZeroLine).data() + line_offset(a), size);
  return v;
}

void MainMemory::write(Addr a, std::uint64_t v, unsigned size) {
  assert(size == 1 || size == 2 || size == 4 || size == 8);
  assert(line_offset(a) + size <= kLineSize && "access crosses line");
  std::memcpy(line(a).data() + line_offset(a), &v, size);
}

void MainMemory::read_line(Addr a, void* out) const {
  const Line* l = find(a);
  std::memcpy(out, (l ? *l : kZeroLine).data(), kLineSize);
}

void MainMemory::write_line(Addr a, const void* in) {
  std::memcpy(line(a).data(), in, kLineSize);
}

void MainMemory::zero_line(Addr a) { line(a).fill(0); }

}  // namespace vl::mem
