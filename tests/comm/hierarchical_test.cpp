#include "comm/hierarchical.hpp"

#include <gtest/gtest.h>

#include "comm/topology.hpp"
#include "comm/world.hpp"
#include "common/rng.hpp"

namespace zero::comm {
namespace {

std::vector<float> RankData(int rank, std::size_t n) {
  std::vector<float> v(n);
  Rng rng(500 + static_cast<std::uint64_t>(rank));
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

struct GroupShape {
  int nodes;
  int per_node;
};

class HierarchicalTest : public ::testing::TestWithParam<GroupShape> {};

TEST_P(HierarchicalTest, MatchesFlatAllReduce) {
  const auto [nodes, per_node] = GetParam();
  const int world_size = nodes * per_node;
  const std::size_t n = 103;  // not divisible by per_node: padding path

  std::vector<float> expected(n, 0.0f);
  for (int r = 0; r < world_size; ++r) {
    auto d = RankData(r, n);
    for (std::size_t i = 0; i < n; ++i) expected[i] += d[i];
  }

  // "Nodes" are contiguous blocks of per_node ranks; leaders are the
  // local-rank-0 members — exactly the MP-group layout of GridTopology.
  GridTopology grid(world_size, per_node);
  World world(world_size);
  world.Run([&](RankContext& ctx) {
    Communicator local = grid.MakeMpComm(ctx);  // intra-"node" group
    std::optional<Communicator> leaders;
    if (grid.MpRank(ctx.rank) == 0) {
      leaders.emplace(grid.MakeDpComm(ctx));  // local rank 0 across nodes
    }
    auto data = RankData(ctx.rank, n);
    HierarchicalAllReduce(local, leaders ? &*leaders : nullptr,
                          std::span<float>(data), ReduceOp::kSum);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(data[i], expected[i], 1e-3f)
          << "rank " << ctx.rank << " i " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Shapes, HierarchicalTest,
                         ::testing::Values(GroupShape{2, 2}, GroupShape{2, 4},
                                           GroupShape{3, 2},
                                           GroupShape{4, 4},
                                           GroupShape{1, 4},
                                           GroupShape{4, 1}));

TEST(HierarchicalVolumeTest, OnlyOneGthOfTheMessageCrossesNodes) {
  // The point of the schedule: non-leader ranks never touch the slow
  // network, and the leaders' cross-node traffic is ~2 * M (all-reduce
  // of the gathered message), independent of the local group size.
  const int nodes = 2;
  const int per_node = 4;
  const std::size_t n = 4096;  // divisible: no padding noise
  GridTopology grid(nodes * per_node, per_node);
  World world(nodes * per_node);
  world.Run([&](RankContext& ctx) {
    Communicator local = grid.MakeMpComm(ctx);
    std::optional<Communicator> leaders;
    if (grid.MpRank(ctx.rank) == 0) leaders.emplace(grid.MakeDpComm(ctx));
    std::vector<float> data(n, 1.0f);
    HierarchicalAllReduce(local, leaders ? &*leaders : nullptr,
                          std::span<float>(data), ReduceOp::kSum);
    const double msg_bytes = static_cast<double>(n) * sizeof(float);
    if (leaders) {
      // 2 * M * (nodes-1)/nodes for the ring all-reduce across nodes.
      const double cross = static_cast<double>(leaders->stats().bytes_sent);
      EXPECT_NEAR(cross, 2.0 * msg_bytes * (nodes - 1) / nodes,
                  0.05 * msg_bytes);
    }
    // Local traffic per rank stays O(M): reduce-scatter + gather-to-
    // leader + scatter-back + all-gather, each ~M*(g-1)/g or M/g.
    const double local_sent = static_cast<double>(local.stats().bytes_sent);
    EXPECT_LT(local_sent, 3.0 * msg_bytes);
  });
}

TEST(HierarchicalTest, MaxReduction) {
  GridTopology grid(4, 2);
  World world(4);
  world.Run([&](RankContext& ctx) {
    Communicator local = grid.MakeMpComm(ctx);
    std::optional<Communicator> leaders;
    if (grid.MpRank(ctx.rank) == 0) leaders.emplace(grid.MakeDpComm(ctx));
    std::vector<float> data{static_cast<float>(ctx.rank)};
    HierarchicalAllReduce(local, leaders ? &*leaders : nullptr,
                          std::span<float>(data), ReduceOp::kMax);
    EXPECT_EQ(data[0], 3.0f);
  });
}

TEST(HierarchicalTest, RejectsWrongLeaderPassing) {
  GridTopology grid(4, 2);
  World world(4);
  // Roles inverted on every rank: the local-rank-0 members withhold the
  // leader communicator and everyone else passes one, so each rank
  // fails the check before any communication starts.
  EXPECT_THROW(
      world.Run([&](RankContext& ctx) {
        Communicator local = grid.MakeMpComm(ctx);
        Communicator dp = grid.MakeDpComm(ctx);
        std::vector<float> data{1.0f};
        HierarchicalAllReduce(local,
                              grid.MpRank(ctx.rank) == 0 ? nullptr : &dp,
                              std::span<float>(data), ReduceOp::kSum);
      }),
      Error);
}

}  // namespace
}  // namespace zero::comm
