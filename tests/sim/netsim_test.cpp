#include "sim/netsim.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace zero::sim {
namespace {

NetTopology Dgx2Cluster() {
  NetTopology t;
  t.nodes = 4;
  t.gpus_per_node = 16;
  t.nvswitch_port_bw = 150e9;
  t.node_uplink_bw = 100e9;
  t.per_step_latency = 0;  // pure-bandwidth tests
  return t;
}

TEST(NetSimTest, SingleTransferTimeIsBytesOverBandwidth) {
  NetworkSimulator net(Dgx2Cluster());
  // Intra-node: limited by the 150 GB/s NVSwitch port.
  EXPECT_DOUBLE_EQ(net.StepTime({{0, 1, 150e9}}), 1.0);
  // Cross-node: a single flow is capped by one 12.5 GB/s EDR NIC even
  // though the node uplink aggregates to 100 GB/s.
  EXPECT_DOUBLE_EQ(net.StepTime({{0, 16, 12.5e9}}), 1.0);
}

TEST(NetSimTest, FlowsShareTheNodeUplink) {
  NetworkSimulator net(Dgx2Cluster());
  // 16 flows of 6.25 GB each leaving node 0: per-flow NIC time is 0.5 s,
  // but the shared 100 GB/s uplink carries 100 GB total -> 1 s.
  std::vector<Transfer> transfers;
  for (int i = 0; i < 16; ++i) {
    transfers.push_back({i, 16 + i, 6.25e9});
  }
  EXPECT_DOUBLE_EQ(net.StepTime(transfers), 1.0);
  // The same flows inside the node ride separate NVSwitch ports.
  const double intra = net.StepTime({{0, 2, 50e9}, {1, 3, 50e9}});
  EXPECT_NEAR(intra, 50.0 / 150.0, 1e-12);
}

TEST(NetSimTest, SelfTransfersAndZeroBytesAreFree) {
  NetworkSimulator net(Dgx2Cluster());
  EXPECT_DOUBLE_EQ(net.StepTime({{3, 3, 1e9}}), 0.0);
  EXPECT_DOUBLE_EQ(net.StepTime({{0, 1, 0.0}}), 0.0);
}

TEST(NetSimTest, InNodeRingMatchesClosedForm) {
  NetworkSimulator net(Dgx2Cluster());
  const auto ring = ContiguousGroup(0, 16);
  const double bytes = 1e9;
  // Ring all-reduce: 2*(p-1) steps of (bytes/p) over NVSwitch ports.
  const double expected = 2.0 * 15.0 * (bytes / 16.0) / 150e9;
  EXPECT_NEAR(net.RingAllReduce(ring, bytes), expected, 1e-12);
}

TEST(NetSimTest, CrossNodeRingDegradesToUplinkSpeed) {
  // The Sec 10.2 cliff, emergent: a 32-member ring spanning two nodes is
  // throttled by the two edges crossing the boundary.
  NetworkSimulator net(Dgx2Cluster());
  const double bytes = 1e9;
  const double in_node =
      net.AllReduceBusBandwidth(ContiguousGroup(0, 16), bytes);
  const double cross_node =
      net.AllReduceBusBandwidth(ContiguousGroup(0, 32), bytes);
  EXPECT_NEAR(in_node, 150e9, 1e9);
  // Limited by the single NIC the boundary-crossing ring edge rides:
  // the paper's 300 GB/s -> 12.5 GB/s per-link collapse.
  EXPECT_NEAR(cross_node, 12.5e9, 0.5e9);
  EXPECT_GT(in_node / cross_node, 10.0);
}

TEST(NetSimTest, ManyConcurrentDpRingsDivideTheUplink) {
  // 16 DP rings (one per MP rank) all cross nodes at once: each node's
  // uplink carries 16 chunks per step -> per-ring bandwidth drops to the
  // uplink divided by 16 — the 6.25 GB/s per-GPU DP share the cost
  // model assumes. (A single ring is NIC-bound at 12.5 GB/s, so the
  // slowdown factor from contention is 2x, not 16x.)
  NetworkSimulator net(Dgx2Cluster());
  const double bytes = 1e9;
  std::vector<std::vector<int>> rings;
  for (int column = 0; column < 16; ++column) {
    rings.push_back(StridedGroup(column, 16, 4));  // 4 nodes
  }
  const double t_all = net.ConcurrentRingAllReduce(rings, bytes);
  const double t_one = net.RingAllReduce(rings[0], bytes);
  EXPECT_NEAR(t_all / t_one, 2.0, 0.01);  // 12.5 -> 6.25 GB/s per ring
  const double per_ring = 2.0 * 3.0 / 4.0 * bytes / t_all;
  EXPECT_NEAR(per_ring, 6.25e9, 0.2e9);
}

TEST(NetSimTest, LatencyTermScalesWithSteps) {
  NetTopology topo = Dgx2Cluster();
  topo.per_step_latency = 1e-3;
  NetworkSimulator net(topo);
  const auto ring = ContiguousGroup(0, 8);
  const double tiny = net.RingAllReduce(ring, 8.0);  // bandwidth ~ 0
  EXPECT_NEAR(tiny, 2.0 * 7.0 * 1e-3, 1e-6);
}

TEST(NetSimTest, BroadcastCheaperThanAllReduce) {
  NetworkSimulator net(Dgx2Cluster());
  const auto ring = ContiguousGroup(0, 16);
  EXPECT_LT(net.PipelinedBroadcast(ring, 1e9),
            net.RingAllReduce(ring, 1e9));
}

TEST(NetSimTest, RejectsBadInput) {
  NetworkSimulator net(Dgx2Cluster());
  EXPECT_THROW((void)net.StepTime({{0, 9999, 1.0}}), Error);
  NetTopology bad;
  bad.nodes = 0;
  EXPECT_THROW(NetworkSimulator{bad}, Error);
}

TEST(NetSimTest, GroupHelpers) {
  EXPECT_EQ(ContiguousGroup(16, 3), (std::vector<int>{16, 17, 18}));
  EXPECT_EQ(StridedGroup(2, 16, 3), (std::vector<int>{2, 18, 34}));
}

TEST(NetSimTest, MatchesCostModelCliffAssumptions) {
  // The analytic cost model assumes intra 150 GB/s and inter 12.5 GB/s
  // per-link MP bandwidth. The simulated per-rank bandwidth of an
  // in-node ring is the NVSwitch port; a 2-node ring's slowest edge is
  // the uplink shared by one flow in each direction — the same order as
  // the assumed IB link speed.
  NetTopology topo = Dgx2Cluster();
  topo.node_uplink_bw = 12.5e9;  // one EDR link per node
  NetworkSimulator net(topo);
  const double cross =
      net.AllReduceBusBandwidth(ContiguousGroup(0, 32), 1e9);
  EXPECT_NEAR(cross, 12.5e9, 0.5e9);
}

}  // namespace
}  // namespace zero::sim
