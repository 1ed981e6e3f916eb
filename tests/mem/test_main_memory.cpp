#include "mem/main_memory.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

// Every global operator new in this test binary, counted so a test can
// assert that reads allocate nothing. Each non-aligned form is replaced, so
// every pointer they return is freed by a matching replacement. Out of
// line, so GCC does not pair an inlined free() with a new-expression
// (-Wmismatched-new-delete).
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

[[gnu::noinline]] void* counted_alloc(std::size_t n) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
[[gnu::noinline]] void* counted_new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace vl::mem {
namespace {

TEST(MainMemory, FreshLinesReadZero) {
  MainMemory m;
  EXPECT_EQ(m.read(0x1234, 8), 0u);
  EXPECT_EQ(m.resident_lines(), 0u);  // reads don't allocate
}

TEST(MainMemory, ReadsAllocateNothing) {
  MainMemory m;
  Line out{};
  const std::uint64_t before = g_heap_allocs.load();
  EXPECT_EQ(m.read(0x1234, 8), 0u);  // empty page table
  m.read_line(0x5000, out.data());
  EXPECT_EQ(g_heap_allocs.load(), before);
  m.write(0x2000, 7, 8);
  const std::uint64_t after_write = g_heap_allocs.load();
  EXPECT_EQ(m.read(0x2040, 8), 0u);  // unwritten line of a resident page
  EXPECT_EQ(m.read(0x9000, 8), 0u);  // page never written
  m.read_line(0x2000, out.data());
  EXPECT_EQ(g_heap_allocs.load(), after_write);
  EXPECT_EQ(m.resident_lines(), 1u);
}

TEST(MainMemory, ResidentLinesSpanPagesAndDistantPages) {
  MainMemory m;
  m.write(0x0fc0, 1, 8);  // last line of page 0
  m.write(0x1000, 2, 8);  // first line of page 1
  m.zero_line(0x7fff'0000'0000);  // a distant page
  m.write_line(0x7fff'0000'0040, Line{}.data());
  m.write(0x1008, 3, 8);  // same line again
  EXPECT_EQ(m.resident_lines(), 4u);
  EXPECT_EQ(m.read(0x0fc0, 8), 1u);
  EXPECT_EQ(m.read(0x1000, 8), 2u);
  EXPECT_EQ(m.read(0x1008, 8), 3u);
}

TEST(MainMemory, ManyPagesSurviveTableGrowth) {
  MainMemory m;
  for (Addr p = 0; p < 1000; ++p) m.write(p * 0x11000 + 8, p, 8);
  for (Addr p = 0; p < 1000; ++p) ASSERT_EQ(m.read(p * 0x11000 + 8, 8), p);
  EXPECT_EQ(m.resident_lines(), 1000u);
}

TEST(MainMemory, ScalarRoundTrip) {
  MainMemory m;
  m.write(0x100, 0xa5, 1);
  m.write(0x108, 0xbeef, 2);
  m.write(0x110, 0x12345678, 4);
  m.write(0x118, 0xdeadbeefcafebabe, 8);
  EXPECT_EQ(m.read(0x100, 1), 0xa5u);
  EXPECT_EQ(m.read(0x108, 2), 0xbeefu);
  EXPECT_EQ(m.read(0x110, 4), 0x12345678u);
  EXPECT_EQ(m.read(0x118, 8), 0xdeadbeefcafebabeull);
}

TEST(MainMemory, WritesWithinOneLineShareStorage) {
  MainMemory m;
  m.write(0x200, 0xff, 1);
  m.write(0x23f, 0xee, 1);  // last byte of same line
  EXPECT_EQ(m.resident_lines(), 1u);
}

TEST(MainMemory, LineRoundTrip) {
  MainMemory m;
  Line in{}, out{};
  for (int i = 0; i < 64; ++i) in[i] = static_cast<std::uint8_t>(255 - i);
  m.write_line(0x310, in.data());  // unaligned addr maps to its line
  m.read_line(0x300, out.data());
  EXPECT_EQ(in, out);
}

TEST(MainMemory, ZeroLineClears) {
  MainMemory m;
  m.write(0x400, 0xffffffffffffffff, 8);
  m.zero_line(0x400);
  EXPECT_EQ(m.read(0x400, 8), 0u);
}

TEST(MainMemory, SmallWriteDoesNotClobberNeighbors) {
  MainMemory m;
  m.write(0x500, 0x1111111111111111, 8);
  m.write(0x502, 0xab, 1);
  EXPECT_EQ(m.read(0x500, 8), 0x11111111'11ab1111ull);
}

}  // namespace
}  // namespace vl::mem
