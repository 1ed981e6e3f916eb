// FaultSpec grammar coverage: clause parsing, window semantics, the
// summary() round-trip, deterministic rand: expansion, and the
// rejection of malformed input with the offending clause named.

#include "fault/spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace vl::fault {
namespace {

TEST(FaultSpec, ParsesEveryClauseKind) {
  const FaultSpec s = FaultSpec::parse(
      "spike@100+50:extra=7,src=1,dst=2;"
      "partition@200+30:src=0,dst=3;"
      "stall@400+25:shard=1;"
      "loss@500+100:every=4,shard=0;"
      "dup@700+10:every=3;"
      "flash@900+60:factor=0.25,class=2");
  ASSERT_EQ(s.events.size(), 6u);

  const FaultEvent& spike = s.events[0];
  EXPECT_EQ(spike.kind, FaultKind::kLinkSpike);
  EXPECT_EQ(spike.start, 100u);
  EXPECT_EQ(spike.duration, 50u);
  EXPECT_EQ(spike.extra, 7u);
  EXPECT_EQ(spike.src, 1);
  EXPECT_EQ(spike.dst, 2);

  EXPECT_EQ(s.events[1].kind, FaultKind::kPartition);
  EXPECT_EQ(s.events[2].kind, FaultKind::kDeviceStall);
  EXPECT_EQ(s.events[2].shard, 1);
  EXPECT_EQ(s.events[3].kind, FaultKind::kChanLoss);
  EXPECT_EQ(s.events[3].every, 4u);
  EXPECT_EQ(s.events[4].kind, FaultKind::kChanDup);
  EXPECT_EQ(s.events[5].kind, FaultKind::kFlashCrowd);
  EXPECT_DOUBLE_EQ(s.events[5].factor, 0.25);
  EXPECT_EQ(s.events[5].cls, 2);

  EXPECT_TRUE(s.has(FaultKind::kLinkSpike));
  EXPECT_TRUE(s.has(FaultKind::kFlashCrowd));
}

TEST(FaultSpec, ActiveWindowIsClosedOpen) {
  const FaultSpec s = FaultSpec::parse("stall@100+50");
  const FaultEvent& e = s.events.at(0);
  EXPECT_FALSE(e.active_at(99));
  EXPECT_TRUE(e.active_at(100));
  EXPECT_TRUE(e.active_at(149));
  EXPECT_FALSE(e.active_at(150));
  EXPECT_EQ(s.end_tick(), 150u);
  EXPECT_EQ(FaultSpec{}.end_tick(), 0u);
}

TEST(FaultSpec, SummaryRoundTripsThroughParse) {
  const FaultSpec a = FaultSpec::parse(
      "spike@100+50:extra=7,src=1;stall@400+25;"
      "loss@500+100:every=4;flash@900+60:factor=0.5");
  const FaultSpec b = FaultSpec::parse(a.summary());
  EXPECT_EQ(a.summary(), b.summary());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].start, b.events[i].start);
    EXPECT_EQ(a.events[i].duration, b.events[i].duration);
  }
}

TEST(FaultSpec, RandomExpansionIsDeterministic) {
  const FaultSpec a = FaultSpec::random(7);
  const FaultSpec b = FaultSpec::random(7);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_FALSE(a.empty());

  const FaultSpec c = FaultSpec::random(8);
  EXPECT_NE(a.summary(), c.summary());  // the seed matters

  // A rand: clause is expanded at parse time into the same schedule —
  // the expansion is part of the spec's value.
  EXPECT_EQ(FaultSpec::parse("rand:7").summary(), a.summary());
  EXPECT_EQ(FaultSpec::parse("rand:7,4,100000").events.size(), 4u);
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(FaultSpec::parse("nonsense@1+2"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("stall@"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("stall@100"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("spike@1+2"), std::invalid_argument);  // extra
  EXPECT_THROW(FaultSpec::parse("loss@1+2"), std::invalid_argument);   // every
  EXPECT_THROW(FaultSpec::parse("stall@1+2:bogus=3"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("flash@1+2:factor=x"), std::invalid_argument);
}

// The error must come from the clause grammar and quote the clause.
void expect_rejected(const std::string& text, const std::string& clause) {
  try {
    FaultSpec::parse(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + clause + "'"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultSpec, RejectsOutOfRangeIntegersNamingTheClause) {
  // Used to throw a bare std::stoull error without the clause.
  expect_rejected("stall@99999999999999999999999+1",
                  "stall@99999999999999999999999+1");
  // Used to wrap to src=0.
  expect_rejected("stall@1+2; partition@100+10:src=4294967296,dst=1",
                  "partition@100+10:src=4294967296,dst=1");
  // Used to ask for 2e9 events with no bound.
  expect_rejected("rand:1,2000000000", "rand:1,2000000000");
  expect_rejected("loss@0+10:every=4294967296", "loss@0+10:every=4294967296");
  expect_rejected("flash@0+10:factor=nan", "flash@0+10:factor=nan");
  expect_rejected("flash@0+10:factor=1,class=3", "flash@0+10:factor=1,class=3");
  // The bounds themselves are accepted.
  const FaultSpec ok = FaultSpec::parse(
      "stall@281474976710655+1;partition@1+2:src=2147483647;rand:1,4096");
  EXPECT_EQ(ok.events.size(), 2u + 4096u);
  EXPECT_EQ(ok.events[1].src, 2147483647);
}

}  // namespace
}  // namespace vl::fault
