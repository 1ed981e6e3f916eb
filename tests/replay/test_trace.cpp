// Trace value-type coverage: CSV and binary round trips are lossless and
// byte-identical, the recorder merges per-producer streams into one
// deterministic order, TraceArrival reconstructs absolute recorded ticks,
// and malformed inputs throw instead of yielding garbage traces.

#include "replay/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

namespace vl::replay {
namespace {

Trace sample_trace() {
  Trace t;
  t.scenario = "qos-incast";
  t.backend = "VL64";
  t.seed = 42;
  t.producers = 2;
  t.tenants = 3;
  t.sharded = false;
  t.records = {
      {100, 0, 0, QosClass::kLatency, 1, 0},
      {100, 1, 1, QosClass::kBulk, 7, 3},
      {250, 0, 0, QosClass::kStandard, 3, 1},
      {900, 2, 1, QosClass::kLatency, 1, 2},
  };
  return t;
}

TEST(Trace, CsvRoundTripIsLossless) {
  const Trace t = sample_trace();
  const Trace back = Trace::parse_csv(t.csv());
  EXPECT_EQ(back.scenario, t.scenario);
  EXPECT_EQ(back.backend, t.backend);
  EXPECT_EQ(back.seed, t.seed);
  EXPECT_EQ(back.producers, t.producers);
  EXPECT_EQ(back.tenants, t.tenants);
  EXPECT_EQ(back.sharded, t.sharded);
  EXPECT_EQ(back.records, t.records);
  // Render -> parse -> render is byte-identical (CI diffs trace files).
  EXPECT_EQ(back.csv(), t.csv());
}

TEST(Trace, BinaryRoundTripIsLossless) {
  const Trace t = sample_trace();
  const Trace back = Trace::parse_binary(t.binary());
  EXPECT_EQ(back.records, t.records);
  EXPECT_EQ(back.binary(), t.binary());
  EXPECT_EQ(back.scenario, t.scenario);
}

TEST(Trace, MalformedInputsThrow) {
  EXPECT_THROW(Trace::parse_binary("nope"), std::invalid_argument);
  EXPECT_THROW(Trace::parse_binary(""), std::invalid_argument);
  // Truncated binary: chop the valid serialization mid-record.
  const std::string bin = sample_trace().binary();
  EXPECT_THROW(Trace::parse_binary(bin.substr(0, bin.size() - 3)),
               std::invalid_argument);
  EXPECT_THROW(Trace::load("/nonexistent/trace.csv"), std::invalid_argument);
}

TEST(Trace, RecordCountBeyondFileThrows) {
  // A header with no records whose count field claims more records than
  // the file holds must be rejected, not sized into a huge reserve().
  Trace t = sample_trace();
  t.records.clear();
  const std::string header = t.binary();
  for (const int shift : {36, 62}) {
    std::string bin = header.substr(0, header.size() - 8);
    for (int i = 0; i < 8; ++i)
      bin.push_back(static_cast<char>((std::uint64_t{1} << shift) >> (8 * i)));
    try {
      (void)Trace::parse_binary(bin);
      ADD_FAILURE() << "count 2^" << shift << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    std::to_string(std::uint64_t{1} << shift)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Trace, SaveLoadPicksFormatByExtension) {
  const Trace t = sample_trace();
  const std::string csv_path = ::testing::TempDir() + "trace_rt.csv";
  const std::string bin_path = ::testing::TempDir() + "trace_rt.vltr";
  ASSERT_TRUE(t.save(csv_path));
  ASSERT_TRUE(t.save(bin_path));
  EXPECT_EQ(Trace::load(csv_path).records, t.records);
  EXPECT_EQ(Trace::load(bin_path).records, t.records);
  std::remove(csv_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(TraceRecorder, MergesStreamsInTickPidSeqOrder) {
  TraceRecorder rec;
  rec.begin("s", "VL64", 7, /*producers=*/3, /*tenants=*/1, false);
  // Appended out of producer order, as concurrent shards would.
  rec.on_send(/*pid=*/2, 0, QosClass::kStandard, 1, 0, /*tick=*/50);
  rec.on_send(/*pid=*/0, 0, QosClass::kStandard, 1, 0, /*tick=*/50);
  rec.on_send(/*pid=*/1, 0, QosClass::kStandard, 1, 0, /*tick=*/10);
  rec.on_send(/*pid=*/0, 0, QosClass::kStandard, 1, 0, /*tick=*/60);
  const Trace t = rec.finish();
  ASSERT_EQ(t.records.size(), 4u);
  EXPECT_EQ(t.records[0].tick, 10u);  // earliest tick first
  EXPECT_EQ(t.records[1].pid, 0u);    // tick tie broken by pid
  EXPECT_EQ(t.records[2].pid, 2u);
  EXPECT_EQ(t.records[3].tick, 60u);
  EXPECT_EQ(t.producers, 3u);
}

TEST(TraceArrival, ReconstructsAbsoluteRecordedTicks) {
  const Trace t = sample_trace();
  TraceArrival a(t, /*pid=*/0);  // records at ticks 100 and 250
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.next_gap(0), 100u);
  EXPECT_EQ(a.next_gap(40), 60u);
  EXPECT_EQ(a.next_gap(100), 0u);
  EXPECT_EQ(a.next_gap(500), 0u);  // backlogged: fire immediately
  EXPECT_EQ(a.record().cls, QosClass::kLatency);
  a.advance();
  EXPECT_EQ(a.record().tick, 250u);
  EXPECT_EQ(a.record().words, 3u);
  a.advance();
  EXPECT_TRUE(a.done());
  EXPECT_EQ(a.next_gap(0), 0u);
}

TEST(TraceArrival, FiltersByProducer) {
  const Trace t = sample_trace();
  TraceArrival a(t, /*pid=*/1);  // ticks 100 and 900
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.record().cls, QosClass::kBulk);
  a.advance();
  EXPECT_EQ(a.record().tick, 900u);
}

}  // namespace
}  // namespace vl::replay
