// Reproduction of paper Table I: the 3-stage address-mapping pipeline's
// cycle-by-cycle behaviour on the worked example.
//
// Scenario (colors from Fig. 7 / Table I):
//   consBuf[0] <- blue consumer request   (SQI "blue")
//   consBuf[1] <- orange consumer request (SQI "orange")
//   prodBuf[0] <- blue data
//   prodBuf[1] <- green data              (SQI "green", no consumer)
//   prodBuf[2] <- blue data
// All five packets are buffered before the pipeline starts (burst buffering,
// § III-A trade-off 1). Expected per-cycle behaviour, translated from
// Table I (the paper's example uses 1-based buffer indices; ours are
// 0-based):
//   cyc 1: S1 reads linkTab[blue]   for consBuf[0] -> prodHead=NULL
//   cyc 2: S1 reads linkTab[orange] for consBuf[1] -> prodHead=NULL
//          S2 miss for consBuf[0] (no blue data yet)
//   cyc 3: S1 reads linkTab[blue]   for prodBuf[0] -> consHead=0 *via RAW
//          forwarding from S3's same-cycle append of consBuf[0]*
//          S2 miss for consBuf[1]; S3 appends blue consumer
//   cyc 4: S1 reads linkTab[green]  for prodBuf[1] -> consHead=NULL
//          S2 HIT for prodBuf[0] (blue data matches waiting blue request)
//          S3 appends orange consumer
//   cyc 5: S1 reads linkTab[blue]   for prodBuf[2] -> consHead=NULL (the
//          blue request was consumed this same cycle - forwarded)
//          S2 miss for prodBuf[1] (no green request)
//          S3 maps prodBuf[0] -> OUT (POHR/POTR now track it)

#include <gtest/gtest.h>

#include <vector>

#include "mem/hierarchy.hpp"
#include "vlrd/vlrd.hpp"

namespace vl::vlrd {
namespace {

constexpr Sqi kBlue = 1, kOrange = 0, kGreen = 2;

class PipelineTraceTest : public ::testing::Test {
 protected:
  sim::EventQueue eq;
  sim::CacheConfig ccfg;
  mem::Hierarchy hier{eq, 2, ccfg};
  sim::VlrdConfig vcfg;
  std::vector<PipeTraceRow> rows;

  void run_scenario() {
    Vlrd dev(eq, hier, vcfg);
    dev.set_pipe_trace([this](const PipeTraceRow& r) { rows.push_back(r); });

    mem::Line blue{}, green{};
    blue.fill(0xb1);
    green.fill(0x91);

    // Consumer targets must be armed for the eventual injection.
    hier.select_line(1, 0x8000);
    hier.set_pushable(1, 0x8000, true);
    hier.select_line(1, 0x8040);
    hier.set_pushable(1, 0x8040, true);

    // Burst-buffer all packets before any pipeline cycle runs (all calls at
    // tick 0; the first cycle fires at tick 1).
    ASSERT_TRUE(dev.fetch(kBlue, 0x8000, 1));    // consBuf[0]
    ASSERT_TRUE(dev.fetch(kOrange, 0x8040, 1));  // consBuf[1]
    ASSERT_TRUE(dev.push(kBlue, blue));          // prodBuf[0]
    ASSERT_TRUE(dev.push(kGreen, green));        // prodBuf[1]
    ASSERT_TRUE(dev.push(kBlue, blue));          // prodBuf[2]

    eq.run();
    stats = dev.stats();
    blue_waiting = dev.queued_data(kBlue);
    green_waiting = dev.queued_data(kGreen);
    orange_reqs = dev.queued_requests(kOrange);
  }

  VlrdStats stats;
  std::uint32_t blue_waiting = 0, green_waiting = 0, orange_reqs = 0;
};

TEST_F(PipelineTraceTest, TableOneCycleByCycle) {
  run_scenario();
  ASSERT_GE(rows.size(), 5u);

  // Cycle 1: stage 1 latches consBuf[0] (blue); linkTab read gives NULL.
  EXPECT_TRUE(rows[0].s1_valid);
  EXPECT_TRUE(rows[0].s1_consumer);
  EXPECT_EQ(rows[0].s1_idx, 0);
  EXPECT_EQ(rows[0].s1_sqi, kBlue);
  EXPECT_EQ(rows[0].s1_head, kNil);  // prodHead = NULL
  EXPECT_EQ(rows[0].s1_tail, kNil);  // consTail = NULL
  EXPECT_FALSE(rows[0].s2_valid);
  EXPECT_FALSE(rows[0].s3_valid);

  // Cycle 2: stage 1 latches consBuf[1] (orange); stage 2 misses for blue.
  EXPECT_TRUE(rows[1].s1_valid);
  EXPECT_TRUE(rows[1].s1_consumer);
  EXPECT_EQ(rows[1].s1_idx, 1);
  EXPECT_EQ(rows[1].s1_sqi, kOrange);
  EXPECT_EQ(rows[1].s1_head, kNil);
  EXPECT_TRUE(rows[1].s2_valid);
  EXPECT_FALSE(rows[1].s2_hit);  // miss: no blue data yet

  // Cycle 3: stage 3 appends the blue request; stage 1 reads linkTab[blue]
  // for prodBuf[0] and must see consHead=0 via same-cycle RAW forwarding.
  EXPECT_TRUE(rows[2].s3_valid);
  EXPECT_TRUE(rows[2].s3_consumer);
  EXPECT_FALSE(rows[2].s3_hit);  // the append (miss) commits
  EXPECT_TRUE(rows[2].s1_valid);
  EXPECT_FALSE(rows[2].s1_consumer);
  EXPECT_EQ(rows[2].s1_idx, 0);    // prodBuf[0]
  EXPECT_EQ(rows[2].s1_sqi, kBlue);
  EXPECT_EQ(rows[2].s1_head, 0);   // RAW: consHead just written = consBuf[0]
  EXPECT_TRUE(rows[2].s2_valid);
  EXPECT_FALSE(rows[2].s2_hit);    // orange request misses

  // Cycle 4: stage 2 HIT for blue data against the waiting blue request;
  // stage 3 appends the orange request; stage 1 reads green -> NULL.
  EXPECT_TRUE(rows[3].s2_valid);
  EXPECT_TRUE(rows[3].s2_hit);
  EXPECT_TRUE(rows[3].s3_valid);
  EXPECT_TRUE(rows[3].s3_consumer);
  EXPECT_TRUE(rows[3].s1_valid);
  EXPECT_EQ(rows[3].s1_sqi, kGreen);
  EXPECT_EQ(rows[3].s1_head, kNil);  // no green consumer

  // Cycle 5: stage 3 commits the blue mapping (prodBuf[0] -> OUT); stage 1
  // reads linkTab[blue] for prodBuf[2] and sees consHead=NULL again
  // (forwarded: the request was consumed this cycle). Stage 2 misses for
  // green data.
  EXPECT_TRUE(rows[4].s3_valid);
  EXPECT_TRUE(rows[4].s3_hit);
  EXPECT_FALSE(rows[4].s3_consumer);  // producer entry retired the mapping
  EXPECT_EQ(rows[4].s3_idx, 0);       // prodBuf[0]
  EXPECT_TRUE(rows[4].s1_valid);
  EXPECT_EQ(rows[4].s1_sqi, kBlue);
  EXPECT_EQ(rows[4].s1_head, kNil);   // RAW-forwarded NULL
  EXPECT_TRUE(rows[4].s2_valid);
  EXPECT_FALSE(rows[4].s2_hit);       // green miss
}

TEST_F(PipelineTraceTest, EndStateMatchesTableOne) {
  run_scenario();
  // One blue message mapped+injected; the second blue datum waits (its
  // request was already consumed); green data waits with no consumer; the
  // orange request waits with no data.
  EXPECT_EQ(stats.matches, 1u);
  EXPECT_EQ(stats.inject_ok, 1u);
  EXPECT_EQ(blue_waiting, 1u);
  EXPECT_EQ(green_waiting, 1u);
  EXPECT_EQ(orange_reqs, 1u);
  EXPECT_EQ(hier.backing().read(0x8000, 1), 0xb1u);  // blue payload landed
}

TEST_F(PipelineTraceTest, TraceStringsMentionLinkTabReads) {
  run_scenario();
  EXPECT_NE(rows[0].stage1.find("prodHead,consTail"), std::string::npos);
  EXPECT_NE(rows[1].stage2.find("miss"), std::string::npos);
  EXPECT_NE(rows[3].stage2.find("hit"), std::string::npos);
  // Stage 3 text: the blue request's append (a miss) and the blue
  // mapping's commit (a producer-side hit).
  EXPECT_NE(rows[2].stage3.find("linkTab[" + std::to_string(kBlue) +
                                "].cons{Head,Tail} <- 0,0"),
            std::string::npos);
  EXPECT_NE(rows[4].stage3.find("set prodBuf[0].OUT POHR,POTR"),
            std::string::npos);
}

}  // namespace
}  // namespace vl::vlrd
