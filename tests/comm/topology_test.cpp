#include "comm/topology.hpp"

#include <gtest/gtest.h>

#include "comm/world.hpp"
#include "common/error.hpp"

namespace zero::comm {
namespace {

TEST(TopologyTest, GridShapes) {
  GridTopology grid(8, 2);
  EXPECT_EQ(grid.dp_degree, 4);
  EXPECT_EQ(grid.mp_degree, 2);
  EXPECT_THROW(GridTopology(7, 2), Error);
}

TEST(TopologyTest, MpGroupsAreConsecutive) {
  GridTopology grid(8, 4);
  EXPECT_EQ(grid.MpGroupMembers(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(grid.MpGroupMembers(5), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(grid.MpRank(6), 2);
}

TEST(TopologyTest, DpGroupsStrideAcrossMpBlocks) {
  GridTopology grid(8, 4);
  EXPECT_EQ(grid.DpGroupMembers(1), (std::vector<int>{1, 5}));
  EXPECT_EQ(grid.DpGroupMembers(6), (std::vector<int>{2, 6}));
  EXPECT_EQ(grid.DpRank(6), 1);
}

TEST(TopologyTest, EveryRankInExactlyOneOfEachGroup) {
  GridTopology grid(12, 3);
  for (int r = 0; r < 12; ++r) {
    auto mp = grid.MpGroupMembers(r);
    auto dp = grid.DpGroupMembers(r);
    EXPECT_EQ(static_cast<int>(mp.size()), 3);
    EXPECT_EQ(static_cast<int>(dp.size()), 4);
    EXPECT_NE(std::find(mp.begin(), mp.end(), r), mp.end());
    EXPECT_NE(std::find(dp.begin(), dp.end(), r), dp.end());
  }
}

TEST(TopologyTest, CommunicatorsWorkOverGrid) {
  // 2x2 grid: the MP all-reduce must sum within rows, the DP all-reduce
  // within columns, without interference.
  GridTopology grid(4, 2);
  World world(4);
  world.Run([&](RankContext& ctx) {
    Communicator mp = grid.MakeMpComm(ctx);
    Communicator dp = grid.MakeDpComm(ctx);
    std::vector<float> v{static_cast<float>(ctx.rank)};
    mp.AllReduce(std::span<float>(v), ReduceOp::kSum);
    // Rows: {0,1} -> 1, {2,3} -> 5.
    EXPECT_EQ(v[0], ctx.rank < 2 ? 1.0f : 5.0f);
    std::vector<float> w{static_cast<float>(ctx.rank)};
    dp.AllReduce(std::span<float>(w), ReduceOp::kSum);
    // Columns: {0,2} -> 2, {1,3} -> 4.
    EXPECT_EQ(w[0], ctx.rank % 2 == 0 ? 2.0f : 4.0f);
  });
}

TEST(NodeTopologyTest, ShapesAndMembership) {
  World world(8);
  world.Run([&](RankContext& ctx) {
    Communicator dp = Communicator::WholeWorld(ctx);
    NodeTopology topo(dp, 4);
    EXPECT_EQ(topo.nodes, 2);
    EXPECT_EQ(topo.ranks_per_node, 4);
    EXPECT_EQ(topo.NodeIndex(5), 1);
    EXPECT_EQ(topo.LocalRank(5), 1);
    EXPECT_EQ(topo.LocalMembers(6), (std::vector<int>{4, 5, 6, 7}));
  });
}

TEST(NodeTopologyTest, UnevenWorldDegradesToRaggedTailNode) {
  // 4 ranks at 3 per node: node 0 = {0,1,2}, node 1 = {3} (single-rank
  // tail). No longer an error — node-aware schedules must consult
  // uniform() before assuming equal shards.
  World world(4);
  world.Run([&](RankContext& ctx) {
    Communicator dp = Communicator::WholeWorld(ctx);
    NodeTopology topo(dp, 3);
    EXPECT_EQ(topo.nodes, 2);
    EXPECT_FALSE(topo.uniform());
    EXPECT_EQ(topo.NodeIndex(3), 1);
    EXPECT_EQ(topo.LocalRank(3), 0);
    EXPECT_EQ(topo.LocalSize(1), 3);
    EXPECT_EQ(topo.LocalSize(3), 1);
    EXPECT_EQ(topo.LocalMembers(1), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(topo.LocalMembers(3), (std::vector<int>{3}));
    // Sliced communicators still function over the ragged shape: the
    // tail node's "local" collective is a self-group no-op.
    Communicator local = topo.MakeLocalComm(ctx);
    EXPECT_EQ(local.size(), ctx.rank < 3 ? 3 : 1);
    std::vector<float> v{static_cast<float>(ctx.rank + 1)};
    local.AllReduce(std::span<float>(v), ReduceOp::kSum);
    EXPECT_EQ(v[0], ctx.rank < 3 ? 6.0f : 4.0f);
  });
}

TEST(NodeTopologyTest, SingleRankNodesAndOversizedNodes) {
  World world(4);
  world.Run([&](RankContext& ctx) {
    Communicator dp = Communicator::WholeWorld(ctx);
    // ranks_per_node = 1: every rank is its own node.
    NodeTopology fine(dp, 1);
    EXPECT_EQ(fine.nodes, 4);
    EXPECT_TRUE(fine.uniform());
    EXPECT_EQ(fine.LocalMembers(ctx.rank), (std::vector<int>{ctx.rank}));
    // ranks_per_node > world: one node holds everyone; clipping keeps
    // membership inside the group.
    NodeTopology coarse(dp, 8);
    EXPECT_EQ(coarse.nodes, 1);
    EXPECT_FALSE(coarse.uniform());
    EXPECT_EQ(coarse.LocalSize(ctx.rank), 4);
    EXPECT_EQ(coarse.LocalMembers(ctx.rank), (std::vector<int>{0, 1, 2, 3}));
    EXPECT_THROW(NodeTopology(dp, 0), Error);
  });
}

TEST(NodeTopologyTest, SlicesOfSubgroupCommunicator) {
  // NodeTopology over a non-whole-world parent: split 8 ranks into two
  // 4-rank halves, then 2-rank nodes within each half.
  World world(8);
  world.Run([&](RankContext& ctx) {
    Communicator dp = Communicator::WholeWorld(ctx);
    std::vector<int> half;
    const int base = ctx.rank < 4 ? 0 : 4;
    for (int i = 0; i < 4; ++i) half.push_back(base + i);
    Communicator sub(ctx, half, /*group_id=*/ctx.rank < 4 ? 1 : 2);
    NodeTopology topo(sub, 2);
    Communicator local = topo.MakeLocalComm(ctx);
    const int node_base = ctx.rank / 2 * 2;
    EXPECT_EQ(local.members(), (std::vector<int>{node_base, node_base + 1}));
    std::vector<float> v{static_cast<float>(ctx.rank)};
    local.AllReduce(std::span<float>(v), ReduceOp::kSum);
    // Each node sums its own pair: {0,1} -> 1, {2,3} -> 5, ...
    EXPECT_EQ(v[0], static_cast<float>(2 * node_base + 1));
  });
}

}  // namespace
}  // namespace zero::comm
