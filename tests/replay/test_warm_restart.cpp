// Warm-restart drill: device-resident state survives quiesce -> snapshot
// -> serialize -> full Machine teardown -> rebuild -> restore with zero
// loss and zero duplication, the snapshot wire format round-trips and
// rejects malformed input, and the conservation digest is deterministic
// across reruns but tracks message content.

#include "replay/warm_restart.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vl::replay {
namespace {

using squeue::Backend;

TEST(WarmRestart, ConservesOnEveryDeviceBackend) {
  for (Backend b : {Backend::kVl, Backend::kVlIdeal, Backend::kCaf}) {
    const WarmRestartReport r = run_warm_restart(b);
    EXPECT_TRUE(r.conserved()) << r.text();
    EXPECT_EQ(r.lost, 0u);
    EXPECT_EQ(r.duplicated, 0u);
    EXPECT_EQ(r.delivered_before + r.delivered_after, r.produced) << r.text();
    EXPECT_GT(r.resident, 0u)
        << "an empty snapshot proves nothing: " << r.text();
    EXPECT_EQ(r.delivered_after, r.resident)
        << "the rebuilt machine must drain exactly the snapshot";
    EXPECT_GT(r.snapshot_bytes, 0u);
  }
}

TEST(WarmRestart, ReportIsDeterministicAcrossReruns) {
  for (Backend b : {Backend::kVl, Backend::kVlIdeal, Backend::kCaf}) {
    const WarmRestartReport a = run_warm_restart(b, 9);
    const WarmRestartReport c = run_warm_restart(b, 9);
    EXPECT_EQ(a.text(), c.text()) << squeue::to_string(b);
  }
}

TEST(WarmRestart, DigestTracksMessageContent) {
  // Same shape, different seed -> different payloads -> different digest;
  // the digest is over the delivered multiset, not the run shape.
  const WarmRestartReport a = run_warm_restart(Backend::kVl, 1);
  const WarmRestartReport b = run_warm_restart(Backend::kVl, 2);
  EXPECT_NE(a.digest, b.digest);
  EXPECT_EQ(a.produced, b.produced);
}

TEST(WarmRestart, VlAndIdealDeliverTheSameMultiset) {
  // The drill injects the same values on both VLRD models; the
  // order-independent digest must agree even though timing differs.
  const WarmRestartReport real = run_warm_restart(Backend::kVl, 5);
  const WarmRestartReport ideal = run_warm_restart(Backend::kVlIdeal, 5);
  EXPECT_EQ(real.digest, ideal.digest);
}

TEST(WarmRestart, SoftwareBackendsAreRejected) {
  EXPECT_THROW(run_warm_restart(Backend::kBlfq), std::invalid_argument);
  EXPECT_THROW(run_warm_restart(Backend::kZmq), std::invalid_argument);
}

TEST(Snapshot, SerializeRoundTripsByteIdentically) {
  Snapshot s;
  s.backend = "VL64";
  s.vl_class_quota[0] = 8;
  s.vl_class_quota[2] = 48;
  s.vl_per_sqi_quota = 16;
  Snapshot::QueueState q;
  q.name = "wr0";
  q.vlrd_id = 0;
  q.sqi = 3;
  mem::Line line{};
  line[0] = 0xab;
  line[63] = 0xcd;
  q.lines.push_back(line);
  s.queues.push_back(q);
  Snapshot::QueueState cq;
  cq.name = "caf1";
  cq.sqi = 1;
  cq.words.emplace_back(0xdeadbeefULL, std::uint8_t{2});
  s.queues.push_back(cq);

  const std::string bytes = s.serialize();
  const Snapshot back = Snapshot::deserialize(bytes);
  EXPECT_EQ(back, s);
  EXPECT_EQ(back.serialize(), bytes);
}

TEST(Snapshot, MalformedInputThrows) {
  EXPECT_THROW(Snapshot::deserialize(""), std::invalid_argument);
  EXPECT_THROW(Snapshot::deserialize("XXXX"), std::invalid_argument);
  Snapshot s;
  s.backend = "CAF";
  const std::string bytes = s.serialize();
  EXPECT_THROW(Snapshot::deserialize(bytes.substr(0, bytes.size() - 1)),
               std::invalid_argument);
  EXPECT_THROW(Snapshot::deserialize(bytes + "x"), std::invalid_argument);
}

}  // namespace
}  // namespace vl::replay
