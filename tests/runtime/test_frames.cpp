// Fig. 10 control-region frame tests across all four element-size codes:
// byte / half / word / doubleword messages must round-trip through a VL
// queue with values truncated to the element width and the data region
// filled from higher addresses toward the LSB.

#include <gtest/gtest.h>

#include <vector>

#include "runtime/machine.hpp"
#include "runtime/vl_queue.hpp"

namespace vl::runtime {
namespace {

using sim::Co;
using sim::SimThread;
using sim::spawn;

TEST(Fig10Codec, ElemGeometry) {
  EXPECT_EQ(elem_bytes(ElemSize::kByte), 1u);
  EXPECT_EQ(elem_bytes(ElemSize::kHalf), 2u);
  EXPECT_EQ(elem_bytes(ElemSize::kWord), 4u);
  EXPECT_EQ(elem_bytes(ElemSize::kDword), 8u);
  EXPECT_EQ(max_elems(ElemSize::kByte), 62u);
  EXPECT_EQ(max_elems(ElemSize::kHalf), 31u);
  EXPECT_EQ(max_elems(ElemSize::kWord), 15u);
  EXPECT_EQ(max_elems(ElemSize::kDword), 7u);
}

TEST(Fig10Codec, PackUnpackAllSizes) {
  for (auto sz : {ElemSize::kByte, ElemSize::kHalf, ElemSize::kWord,
                  ElemSize::kDword}) {
    for (std::uint8_t n = 1; n <= max_elems(sz) && n < 64; ++n) {
      for (auto qos : {QosClass::kStandard, QosClass::kLatency,
                       QosClass::kBulk}) {
        const std::uint16_t c = pack_ctrl(sz, n, qos);
        EXPECT_NE(c, 0u);  // a valid frame is never "clean"
        EXPECT_EQ(ctrl_size(c), sz);
        EXPECT_EQ(ctrl_count(c), n);
        EXPECT_EQ(ctrl_qos(c), qos);  // reserved byte carries the class
      }
    }
  }
  // Untagged (two-arg) packs read back as the default class.
  EXPECT_EQ(ctrl_qos(pack_ctrl(ElemSize::kDword, 1)), QosClass::kStandard);
}

TEST(Fig10Codec, DataFillsHighToLow) {
  // The n used slots occupy the top of the data region; a 1-element frame
  // sits just below the control word.
  EXPECT_EQ(elem_offset(ElemSize::kDword, 0, 1), 48u);
  EXPECT_EQ(elem_offset(ElemSize::kDword, 0, 7), 0u);
  EXPECT_EQ(elem_offset(ElemSize::kDword, 6, 7), 48u);
  EXPECT_EQ(elem_offset(ElemSize::kByte, 0, 1), 61u);
  EXPECT_EQ(elem_offset(ElemSize::kByte, 61, 62), 61u);
  // No element overlaps the 2 B control region at offset 62.
  for (auto sz : {ElemSize::kByte, ElemSize::kHalf, ElemSize::kWord,
                  ElemSize::kDword}) {
    const std::uint8_t n = max_elems(sz);
    EXPECT_LE(elem_offset(sz, n - 1, n) + elem_bytes(sz), kCtrlOffset);
  }
}

class FrameSizes : public ::testing::TestWithParam<ElemSize> {};

TEST_P(FrameSizes, FullFrameRoundTrip) {
  const ElemSize sz = GetParam();
  Machine m;
  VlQueueLib lib(m);
  const auto q = lib.open("frames");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(1));
  const std::uint8_t n = max_elems(sz);
  const std::uint64_t mask =
      elem_bytes(sz) == 8 ? ~0ull : (1ull << (8 * elem_bytes(sz))) - 1;
  std::vector<std::uint64_t> elems;
  for (std::uint8_t i = 0; i < n; ++i)
    elems.push_back((0x0123'4567'89ab'cdefull * (i + 1)) & mask);
  // Ensure at least one element is nonzero in its low byte (frame validity
  // is carried by the control word, not the data, so zeros are fine too).
  Frame got;
  spawn([](Producer& p, ElemSize sz,
           const std::vector<std::uint64_t>* e) -> Co<void> {
    co_await p.enqueue(*e, sz);
  }(prod, sz, &elems));
  spawn([](Consumer& c, Frame* out) -> Co<void> {
    *out = co_await c.dequeue();
  }(cons, &got));
  m.run();
  EXPECT_EQ(got.size, sz);
  ASSERT_EQ(got.elems.size(), elems.size());
  for (std::size_t i = 0; i < elems.size(); ++i)
    EXPECT_EQ(got.elems[i], elems[i]) << "element " << i;
}

TEST_P(FrameSizes, SingleElementRoundTrip) {
  const ElemSize sz = GetParam();
  Machine m;
  VlQueueLib lib(m);
  const auto q = lib.open("frames1");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(1));
  const std::uint64_t mask =
      elem_bytes(sz) == 8 ? ~0ull : (1ull << (8 * elem_bytes(sz))) - 1;
  const std::uint64_t v = 0xfedc'ba98'7654'3210ull & mask;
  Frame got;
  spawn([](Producer& p, ElemSize sz, std::uint64_t v) -> Co<void> {
    const std::uint64_t one[1] = {v};
    co_await p.enqueue(std::span<const std::uint64_t>(one, 1), sz);
  }(prod, sz, v));
  spawn([](Consumer& c, Frame* out) -> Co<void> {
    *out = co_await c.dequeue();
  }(cons, &got));
  m.run();
  EXPECT_EQ(got.size, sz);
  ASSERT_EQ(got.elems.size(), 1u);
  EXPECT_EQ(got.elems[0], v);
}

TEST_P(FrameSizes, BackPressuredStreamDecodes) {
  // Frames of every length under a 4-entry prodBuf and a late, slow
  // consumer: NACKed lines keep their staged data (elements at their size
  // code's offsets and width) until the re-push lands them.
  const ElemSize sz = GetParam();
  sim::SystemConfig cfg;
  cfg.vlrd.prod_entries = 4;
  Machine m(cfg);
  VlQueueLib lib(m);
  const auto q = lib.open("frames-bp");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(1));
  const std::uint64_t mask =
      elem_bytes(sz) == 8 ? ~0ull : (1ull << (8 * elem_bytes(sz))) - 1;
  std::vector<std::vector<std::uint64_t>> sent;
  for (int f = 0; f < 24; ++f) {
    const std::size_t n = 1 + static_cast<std::size_t>(f) % max_elems(sz);
    std::vector<std::uint64_t> e;
    for (std::size_t i = 0; i < n; ++i)
      e.push_back((0x0123'4567'89ab'cdefull * (f + 1) + i) & mask);
    sent.push_back(std::move(e));
  }
  std::vector<Frame> got;
  spawn([](Producer& p, ElemSize sz,
           const std::vector<std::vector<std::uint64_t>>* in) -> Co<void> {
    for (const auto& e : *in) co_await p.enqueue(e, sz);
  }(prod, sz, &sent));
  spawn([](Consumer& c, std::size_t n, std::vector<Frame>* out) -> Co<void> {
    co_await c.thread().compute(20000);  // the device buffer fills first
    for (std::size_t i = 0; i < n; ++i) {
      out->push_back(co_await c.dequeue());
      co_await c.thread().compute(300);
    }
  }(cons, sent.size(), &got));
  m.run();
  EXPECT_GT(prod.retries(), 0u);
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t f = 0; f < sent.size(); ++f) {
    EXPECT_EQ(got[f].size, sz) << "frame " << f;
    EXPECT_EQ(got[f].elems, sent[f]) << "frame " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, FrameSizes,
                         ::testing::Values(ElemSize::kByte, ElemSize::kHalf,
                                           ElemSize::kWord, ElemSize::kDword),
                         [](const auto& info) {
                           switch (info.param) {
                             case ElemSize::kByte: return "byte";
                             case ElemSize::kHalf: return "half";
                             case ElemSize::kWord: return "word";
                             case ElemSize::kDword: return "dword";
                           }
                           return "?";
                         });

TEST(Fig10Codec, MixedSizeStreamDecodes) {
  // A producer interleaving frame sizes; the consumer's dequeue must
  // decode each frame with its own size code.
  Machine m;
  VlQueueLib lib(m);
  const auto q = lib.open("mixed");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(1));
  std::vector<Frame> got;
  spawn([](Producer& p) -> Co<void> {
    const std::uint64_t bytes[3] = {0x11, 0x22, 0x33};
    const std::uint64_t halves[2] = {0xaaaa, 0xbbbb};
    const std::uint64_t words[2] = {0xdeadbeef, 0xcafef00d};
    const std::uint64_t dwords[1] = {0x0123456789abcdefull};
    co_await p.enqueue({bytes, 3}, ElemSize::kByte);
    co_await p.enqueue({halves, 2}, ElemSize::kHalf);
    co_await p.enqueue({words, 2}, ElemSize::kWord);
    co_await p.enqueue({dwords, 1}, ElemSize::kDword);
  }(prod));
  spawn([](Consumer& c, std::vector<Frame>* out) -> Co<void> {
    for (int i = 0; i < 4; ++i) out->push_back(co_await c.dequeue());
  }(cons, &got));
  m.run();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].size, ElemSize::kByte);
  EXPECT_EQ(got[0].elems, (std::vector<std::uint64_t>{0x11, 0x22, 0x33}));
  EXPECT_EQ(got[1].size, ElemSize::kHalf);
  EXPECT_EQ(got[1].elems, (std::vector<std::uint64_t>{0xaaaa, 0xbbbb}));
  EXPECT_EQ(got[2].size, ElemSize::kWord);
  EXPECT_EQ(got[2].elems, (std::vector<std::uint64_t>{0xdeadbeef, 0xcafef00d}));
  EXPECT_EQ(got[3].size, ElemSize::kDword);
  EXPECT_EQ(got[3].elems, (std::vector<std::uint64_t>{0x0123456789abcdefull}));
}

TEST(Fig10Codec, ValuesTruncateToElementWidth) {
  Machine m;
  VlQueueLib lib(m);
  const auto q = lib.open("trunc");
  auto prod = lib.make_producer(q, m.thread_on(0));
  auto cons = lib.make_consumer(q, m.thread_on(1));
  Frame got;
  spawn([](Producer& p) -> Co<void> {
    const std::uint64_t big[1] = {0x1234'5678'9abc'deffull};
    co_await p.enqueue({big, 1}, ElemSize::kByte);
  }(prod));
  spawn([](Consumer& c, Frame* out) -> Co<void> {
    *out = co_await c.dequeue();
  }(cons, &got));
  m.run();
  ASSERT_EQ(got.elems.size(), 1u);
  EXPECT_EQ(got.elems[0], 0xffu);  // low byte survives
}

}  // namespace
}  // namespace vl::runtime
