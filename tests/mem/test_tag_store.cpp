#include "mem/tag_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace vl::mem {
namespace {

TEST(TagStore, GeometryFromSizeAndAssoc) {
  TagStore t(32 * 1024, 2);  // paper L1: 32 KiB, 2-way
  EXPECT_EQ(t.num_sets(), 256u);
  EXPECT_EQ(t.assoc(), 2u);
  EXPECT_EQ(t.banks(), 1u);
  TagStore llc(1024 * 1024, 16);  // paper LLC: 1 MiB, 16-way
  EXPECT_EQ(llc.num_sets(), 1024u);
  TagStore l1s(32 * 1024, 2, 16);  // sixteen private L1s in one store
  EXPECT_EQ(l1s.num_sets(), 256u);
  EXPECT_EQ(l1s.banks(), 16u);
}

TEST(TagStore, RejectsGeometriesItCannotRank) {
  EXPECT_NO_THROW(TagStore(256 * 64, 256));  // one set of 256 ways
  EXPECT_THROW(TagStore(512 * 64, 512), std::invalid_argument);  // rank > 255
  EXPECT_THROW(TagStore(4096, 0), std::invalid_argument);
  EXPECT_THROW(TagStore(3 * 64, 2), std::invalid_argument);  // 1.5 sets
}

TEST(TagStore, FindMissesOnEmpty) {
  TagStore t(4096, 2);
  EXPECT_EQ(t.find(0x1000), kNoFrame);
  TagStore banked(4096, 2, 4);
  for (std::uint32_t b = 0; b < 4; ++b)
    EXPECT_EQ(banked.find(0x1000, b), kNoFrame);
}

TEST(TagStore, InsertAndFind) {
  TagStore t(4096, 2);
  const Frame v = t.victim(0x1000);
  t.fill(v, 0x1000, Mesi::kExclusive);
  const Frame f = t.find(0x1000);
  ASSERT_NE(f, kNoFrame);
  EXPECT_EQ(f, v);
  EXPECT_TRUE(t.valid(f));
  EXPECT_EQ(t.line(f), 0x1000u);
  EXPECT_EQ(t.meta(f).state, Mesi::kExclusive);
  EXPECT_FALSE(t.meta(f).pushable);
  EXPECT_FALSE(t.meta(f).dirty);
}

TEST(TagStore, BanksAreSeparateCaches) {
  TagStore t(4096, 2, 4);
  t.fill(t.victim(0x1000, 2), 0x1000, Mesi::kShared);
  EXPECT_NE(t.find(0x1000, 2), kNoFrame);
  EXPECT_EQ(t.find(0x1000, 1), kNoFrame);
  EXPECT_EQ(t.find(0x1000, 3), kNoFrame);
}

TEST(TagStore, VictimPrefersInvalidWay) {
  TagStore t(4096, 2);  // 32 sets
  // Fill one way of set for line 0x0.
  t.fill(t.victim(0x0), 0x0, Mesi::kModified);
  // Same set: line 32 sets * 64 B later.
  const Addr same_set = 32 * 64;
  const Frame b = t.victim(same_set);
  EXPECT_FALSE(t.valid(b));  // picked the empty way, not the valid one
}

TEST(TagStore, VictimEvictsLru) {
  TagStore t(4096, 2);
  const Addr s = 0x0, conflict1 = 32 * 64, conflict2 = 64 * 64;
  auto insert = [&](Addr line) { t.fill(t.victim(line), line, Mesi::kShared); };
  insert(s);
  insert(conflict1);
  // Touch s so conflict1 is LRU.
  t.touch(t.find(s));
  const Frame v = t.victim(conflict2);
  EXPECT_EQ(t.line(v), conflict1);
}

TEST(TagStore, ForEachValidVisitsAll) {
  TagStore t(4096, 2, 3);
  for (Addr a = 0; a < 10 * 64; a += 64)
    t.fill(t.victim(a, 1), a, Mesi::kShared);
  t.fill(t.victim(0, 2), 0, Mesi::kShared);  // another bank: not visited
  int n = 0;
  t.for_each_valid(1, [&](Frame) { ++n; });
  EXPECT_EQ(n, 10);
}

TEST(TagStore, InvalidateEmptiesTheFrame) {
  TagStore t(4096, 2);
  const Frame f = t.victim(0x40);
  t.fill(f, 0x40, Mesi::kModified, /*dirty=*/true);
  t.meta(f).pushable = true;
  t.invalidate(f);
  EXPECT_FALSE(t.valid(f));
  EXPECT_EQ(t.meta(f).state, Mesi::kInvalid);
  EXPECT_FALSE(t.meta(f).pushable);
  EXPECT_FALSE(t.meta(f).dirty);
  EXPECT_EQ(t.find(0x40), kNoFrame);
}

TEST(TagStore, ForEachPeerVisitsAscendingBanksAndSkipsSelf) {
  // 40 banks x 2 ways = 80 frames per set row: the hit mask spans two
  // 64-frame chunks.
  TagStore t(4096, 2, 40);
  const Addr line = 0x1c0;
  const std::vector<std::uint32_t> holders = {0, 3, 7, 31, 32, 33, 39};
  for (std::uint32_t b : holders) {
    t.fill(t.victim(0x1c0 + 32 * 64, b), 0x1c0 + 32 * 64, Mesi::kShared);
    t.fill(t.victim(line, b), line, Mesi::kShared);  // lands in way 1
  }
  std::vector<std::uint32_t> seen;
  t.for_each_peer(line, 7, [&](std::uint32_t bank, Frame f) {
    EXPECT_EQ(t.line(f), line);
    EXPECT_EQ(f, t.find(line, bank));
    seen.push_back(bank);
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 3, 31, 32, 33, 39}));
  seen.clear();
  t.for_each_peer(0x2000, 0,
                  [&](std::uint32_t bank, Frame) { seen.push_back(bank); });
  EXPECT_TRUE(seen.empty());
}

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The replacement the ranks replace: a u64 use clock per frame, victim =
/// first invalid way, else the smallest clock.
struct ClockLru {
  struct Way {
    Addr line = 0;
    bool valid = false;
    std::uint64_t lru = 0;
  };
  std::uint32_t sets, assoc;
  std::uint64_t clock = 0;
  std::vector<Way> ways;
  ClockLru(std::uint32_t s, std::uint32_t a) : sets(s), assoc(a), ways(s * a) {}
  Way* row(Addr line) { return &ways[((line >> kLineShift) % sets) * assoc]; }
  Way* find(Addr line) {
    for (Way* w = row(line); w < row(line) + assoc; ++w)
      if (w->valid && w->line == line) return w;
    return nullptr;
  }
  Way* victim(Addr line) {
    Way* lru = row(line);
    for (Way* w = row(line); w < row(line) + assoc; ++w) {
      if (!w->valid) return w;
      if (w->lru < lru->lru) lru = w;
    }
    return lru;
  }
};

void check_ranks_match_clock_lru(std::uint32_t assoc, std::uint64_t seed) {
  const std::uint32_t sets = 8;
  TagStore t(sets * assoc * kLineSize, assoc, 3);
  const std::uint32_t bank = 1;
  ClockLru ref(sets, assoc);
  // 3 * assoc distinct lines per set keeps every set under pressure.
  const Addr pool = static_cast<Addr>(sets) * assoc * 3;
  std::uint64_t s = seed;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t r = splitmix(s);
    const Addr line = (r % pool) * kLineSize;
    ClockLru::Way* w = ref.find(line);
    const Frame f = t.find(line, bank);
    ASSERT_EQ(w != nullptr, f != kNoFrame) << "step " << i;
    switch ((r >> 32) % 8) {
      case 0:  // invalidate (a snoop)
        if (w) {
          w->valid = false;
          t.invalidate(f);
        }
        break;
      case 1:
      case 2:
      case 3:  // touch (a hit)
        if (w) {
          w->lru = ++ref.clock;
          t.touch(f);
        }
        break;
      default: {  // fill on a miss
        if (w) break;
        ClockLru::Way* rv = ref.victim(line);
        const Frame tv = t.victim(line, bank);
        ASSERT_EQ(rv->valid, t.valid(tv)) << "step " << i;
        if (rv->valid) {
          ASSERT_EQ(rv->line, t.line(tv)) << "step " << i;
        }
        ASSERT_EQ(static_cast<Frame>(rv - ref.row(line)),
                  tv % assoc) << "step " << i;
        *rv = {line, true, ++ref.clock};
        t.fill(tv, line, Mesi::kShared);
      }
    }
  }
}

TEST(TagStore, RanksPickTheClockLruVictimAt2Ways) {
  check_ranks_match_clock_lru(2, 1);
}

TEST(TagStore, RanksPickTheClockLruVictimAt16Ways) {
  check_ranks_match_clock_lru(16, 2);
}

TEST(TagStore, RanksPickTheClockLruVictimAt12Ways) {
  check_ranks_match_clock_lru(12, 3);  // not a power of two
}

TEST(TagStore, MesiToString) {
  EXPECT_STREQ(to_string(Mesi::kInvalid), "I");
  EXPECT_STREQ(to_string(Mesi::kShared), "S");
  EXPECT_STREQ(to_string(Mesi::kExclusive), "E");
  EXPECT_STREQ(to_string(Mesi::kModified), "M");
  EXPECT_STREQ(to_string(Mesi::kOwned), "O");
}

}  // namespace
}  // namespace vl::mem
