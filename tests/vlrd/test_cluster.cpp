// Cluster (multi-VLRD) tests: address routing, device isolation, stat
// aggregation, and end-to-end VL channels spread across devices.

#include "vlrd/cluster.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "runtime/machine.hpp"
#include "runtime/supervisor.hpp"
#include "runtime/vl_queue.hpp"
#include "squeue/vl_channel.hpp"

namespace vl::vlrd {
namespace {

using runtime::Machine;
using sim::Co;
using sim::SimThread;
using sim::spawn;

TEST(Cluster, SizeMatchesConfig) {
  Machine m(sim::SystemConfig::table3_multi(4));
  EXPECT_EQ(m.cluster().size(), 4u);
}

TEST(Cluster, SingleDeviceDefault) {
  Machine m;
  EXPECT_EQ(m.cluster().size(), 1u);
  EXPECT_EQ(&m.cluster().device(0), &m.vlrd());
}

TEST(Cluster, RouteDecodesVlrdIdBits) {
  Machine m(sim::SystemConfig::table3_multi(3));
  for (std::uint32_t id = 0; id < 3; ++id) {
    const Addr va = encode({id, /*sqi=*/5, /*page=*/0, /*slot64=*/1});
    EXPECT_EQ(&m.cluster().route(va), &m.cluster().device(id));
  }
}

TEST(Cluster, DevicesHaveIndependentBuffers) {
  // Filling device 0's prodBuf must not consume device 1's capacity: pushes
  // on device 1 still succeed after device 0 NACKs.
  sim::SystemConfig cfg = sim::SystemConfig::table3_multi(2);
  cfg.vlrd.prod_entries = 4;
  Machine m(cfg);
  mem::Line data{};
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(m.cluster().device(0).push(0, data)) << i;
  EXPECT_FALSE(m.cluster().device(0).push(0, data));  // device 0 full
  EXPECT_TRUE(m.cluster().device(1).push(0, data));   // device 1 unaffected
  EXPECT_EQ(m.cluster().device(0).stats().push_nacks, 1u);
  EXPECT_EQ(m.cluster().device(1).stats().push_nacks, 0u);
}

TEST(Cluster, TotalStatsSumsDevices) {
  Machine m(sim::SystemConfig::table3_multi(2));
  mem::Line data{};
  m.cluster().device(0).push(1, data);
  m.cluster().device(0).push(1, data);
  m.cluster().device(1).push(1, data);
  const VlrdStats s = m.vlrd_stats();
  EXPECT_EQ(s.pushes, 3u);
}

TEST(Cluster, TotalStatsAggregatesQuotaNacks) {
  // Regression: total_stats() summed push_nacks but dropped the
  // push_quota_nacks breakdown, so cluster-wide QoS telemetry read zero.
  sim::SystemConfig cfg = sim::SystemConfig::table3_multi(2);
  cfg.vlrd.per_sqi_quota = 1;
  Machine m(cfg);
  mem::Line data{};
  for (std::uint32_t d = 0; d < 2; ++d) {
    EXPECT_TRUE(m.cluster().device(d).push(1, data));
    EXPECT_FALSE(m.cluster().device(d).push(1, data));  // over SQI quota
    EXPECT_EQ(m.cluster().device(d).stats().push_quota_nacks, 1u);
  }
  const VlrdStats s = m.vlrd_stats();
  EXPECT_EQ(s.push_quota_nacks, 2u);
}

TEST(Cluster, RejectsTooManyDevices) {
  sim::SystemConfig cfg;
  cfg.vlrd.num_devices = (1u << kVlrdIdBits) + 1;
  EXPECT_THROW(Machine m(cfg), std::invalid_argument);
  cfg.vlrd.num_devices = 0;
  EXPECT_THROW(Machine m(cfg), std::invalid_argument);
  EXPECT_THROW(runtime::Supervisor s((1u << kVlrdIdBits) + 1),
               std::invalid_argument);
  EXPECT_THROW(runtime::Supervisor s(0), std::invalid_argument);
}

TEST(ClusterIntegration, QueuesSpreadRoundRobinAcrossDevices) {
  Machine m(sim::SystemConfig::table3_multi(2));
  runtime::VlQueueLib lib(m);
  const auto a = lib.open("qa");
  const auto b = lib.open("qb");
  const auto c = lib.open("qc");
  EXPECT_EQ(a.vlrd_id, 0u);
  EXPECT_EQ(b.vlrd_id, 1u);
  EXPECT_EQ(c.vlrd_id, 0u);
  // Same name reopens the same queue on the same device.
  const auto a2 = lib.open("qa");
  EXPECT_EQ(a2.desc, a.desc);
}

TEST(ClusterIntegration, ChannelsOnDistinctDevicesDeliver) {
  // Two VL channels land on different routing devices; both must deliver
  // their messages exactly once, with traffic visible on the right device.
  Machine m(sim::SystemConfig::table3_multi(2));
  runtime::VlQueueLib lib(m);
  squeue::VlChannel ch0(lib, "dev0_q");
  squeue::VlChannel ch1(lib, "dev1_q");
  std::vector<std::uint64_t> got0, got1;
  spawn([](squeue::Channel& ch, SimThread t) -> Co<void> {
    for (std::uint64_t i = 0; i < 10; ++i) co_await ch.send1(t, 100 + i);
  }(ch0, m.thread_on(0)));
  spawn([](squeue::Channel& ch, SimThread t) -> Co<void> {
    for (std::uint64_t i = 0; i < 10; ++i) co_await ch.send1(t, 200 + i);
  }(ch1, m.thread_on(1)));
  spawn([](squeue::Channel& ch, SimThread t,
           std::vector<std::uint64_t>* out) -> Co<void> {
    for (int i = 0; i < 10; ++i) out->push_back(co_await ch.recv1(t));
  }(ch0, m.thread_on(2), &got0));
  spawn([](squeue::Channel& ch, SimThread t,
           std::vector<std::uint64_t>* out) -> Co<void> {
    for (int i = 0; i < 10; ++i) out->push_back(co_await ch.recv1(t));
  }(ch1, m.thread_on(3), &got1));
  m.run();
  ASSERT_EQ(got0.size(), 10u);
  ASSERT_EQ(got1.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got0[i], 100u + i);  // 1:1 VL channels preserve FIFO order
    EXPECT_EQ(got1[i], 200u + i);
  }
  EXPECT_GE(m.cluster().device(0).stats().pushes, 10u);
  EXPECT_GE(m.cluster().device(1).stats().pushes, 10u);
}

TEST(ClusterIntegration, SameSqiOnDifferentDevicesIsolated) {
  // Descriptor (device 1, SQI 0) and (device 0, SQI 0) share the SQI number
  // but are distinct queues: a message pushed to one must never surface on
  // the other.
  Machine m(sim::SystemConfig::table3_multi(2));
  runtime::VlQueueLib lib(m);
  const auto qa = lib.open("qa");  // device 0, sqi 0
  const auto qb = lib.open("qb");  // device 1, sqi 0
  ASSERT_EQ(qa.sqi, qb.sqi);
  ASSERT_NE(qa.vlrd_id, qb.vlrd_id);
  squeue::VlChannel cha(lib, "qa");
  squeue::VlChannel chb(lib, "qb");
  std::uint64_t got = 0;
  spawn([](squeue::Channel& ch, SimThread t) -> Co<void> {
    co_await ch.send1(t, 777);
  }(cha, m.thread_on(0)));
  spawn([](squeue::Channel& ch, SimThread t, std::uint64_t* out) -> Co<void> {
    *out = co_await ch.recv1(t);
  }(cha, m.thread_on(1), &got));
  m.run();
  EXPECT_EQ(got, 777u);
  EXPECT_EQ(m.cluster().device(1).queued_data(qb.sqi), 0u);
  EXPECT_EQ(m.cluster().device(1).stats().pushes, 0u);
}

}  // namespace
}  // namespace vl::vlrd
