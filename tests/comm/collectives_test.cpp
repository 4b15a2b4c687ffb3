#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "comm/world.hpp"
#include "common/rng.hpp"

namespace zero::comm {
namespace {

// Property suite: every collective checked for correctness AND for the
// per-rank communication volume the paper's Sec 7 analysis relies on,
// across world sizes 1..5 (odd sizes catch uneven-chunk bugs).
class CollectivesTest : public ::testing::TestWithParam<int> {};

std::vector<float> RankData(int rank, std::size_t n) {
  std::vector<float> v(n);
  Rng rng(100 + static_cast<std::uint64_t>(rank));
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

TEST_P(CollectivesTest, AllReduceSum) {
  const int p = GetParam();
  const std::size_t n = 103;  // deliberately not divisible by p
  // Expected: elementwise sum over ranks.
  std::vector<float> expected(n, 0.0f);
  for (int r = 0; r < p; ++r) {
    auto d = RankData(r, n);
    for (std::size_t i = 0; i < n; ++i) expected[i] += d[i];
  }
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    auto data = RankData(ctx.rank, n);
    comm.AllReduce(std::span<float>(data), ReduceOp::kSum);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(data[i], expected[i], 1e-4f) << "rank " << ctx.rank;
    }
  });
}

TEST_P(CollectivesTest, AllReduceVolumeIsTwoPsi) {
  const int p = GetParam();
  if (p == 1) GTEST_SKIP() << "no communication at p=1";
  const std::size_t n = 120;  // divisible by p in {2,3,4,5}: use 120
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    auto data = RankData(ctx.rank, n);
    comm.AllReduce(std::span<float>(data), ReduceOp::kSum);
    // Sec 7.1: all-reduce moves 2 * (p-1)/p * message bytes per rank.
    const double expected_bytes =
        2.0 * (p - 1) / p * static_cast<double>(n) * sizeof(float);
    EXPECT_NEAR(static_cast<double>(comm.stats().bytes_sent), expected_bytes,
                1.0);
    EXPECT_NEAR(static_cast<double>(comm.stats().bytes_received),
                expected_bytes, 1.0);
  });
}

TEST_P(CollectivesTest, AllReduceAvg) {
  const int p = GetParam();
  const std::size_t n = 17;
  std::vector<float> expected(n, 0.0f);
  for (int r = 0; r < p; ++r) {
    auto d = RankData(r, n);
    for (std::size_t i = 0; i < n; ++i) expected[i] += d[i] / p;
  }
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    auto data = RankData(ctx.rank, n);
    comm.AllReduce(std::span<float>(data), ReduceOp::kAvg);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(data[i], expected[i], 1e-4f);
    }
  });
}

TEST_P(CollectivesTest, ReduceScatterDeliversOwnReducedChunk) {
  const int p = GetParam();
  const std::size_t chunk = 13;
  const std::size_t n = chunk * static_cast<std::size_t>(p);
  std::vector<float> expected(n, 0.0f);
  for (int r = 0; r < p; ++r) {
    auto d = RankData(r, n);
    for (std::size_t i = 0; i < n; ++i) expected[i] += d[i];
  }
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    auto data = RankData(ctx.rank, n);
    std::vector<float> out(chunk);
    comm.ReduceScatter(std::span<float>(data), std::span<float>(out),
                       ReduceOp::kSum);
    for (std::size_t i = 0; i < chunk; ++i) {
      ASSERT_NEAR(out[i],
                  expected[static_cast<std::size_t>(ctx.rank) * chunk + i],
                  1e-4f);
    }
    if (p > 1) {
      // Volume ~= (p-1)/p * message bytes (Sec 7.1).
      const double expected_bytes =
          (p - 1.0) / p * static_cast<double>(n) * sizeof(float);
      EXPECT_NEAR(static_cast<double>(comm.stats().bytes_sent),
                  expected_bytes, 1.0);
    }
  });
}

TEST_P(CollectivesTest, AllGatherAssemblesAllChunks) {
  const int p = GetParam();
  const std::size_t chunk = 9;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    auto mine = RankData(ctx.rank, chunk);
    std::vector<float> out(chunk * static_cast<std::size_t>(p));
    comm.AllGather(std::span<const float>(mine), std::span<float>(out));
    for (int r = 0; r < p; ++r) {
      auto theirs = RankData(r, chunk);
      for (std::size_t i = 0; i < chunk; ++i) {
        ASSERT_EQ(out[static_cast<std::size_t>(r) * chunk + i], theirs[i]);
      }
    }
  });
}

TEST_P(CollectivesTest, BroadcastFromEveryRoot) {
  const int p = GetParam();
  const std::size_t n = 31;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    for (int root = 0; root < p; ++root) {
      std::vector<float> data = ctx.rank == root
                                    ? RankData(root, n)
                                    : std::vector<float>(n, -1.0f);
      comm.Broadcast(std::span<float>(data), root);
      auto expected = RankData(root, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(data[i], expected[i]) << "root " << root;
      }
    }
  });
}

TEST_P(CollectivesTest, BroadcastVolumeIsMessageSize) {
  const int p = GetParam();
  if (p == 1) GTEST_SKIP();
  const std::size_t n = 64;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    std::vector<float> data = RankData(0, n);
    comm.Broadcast(std::span<float>(data), 0);
    // Pipelined ring: each rank sends at most the message once — per-rank
    // volume ~ message size, never p * message (Sec 7.2.2 relies on
    // this).
    EXPECT_LE(comm.stats().bytes_sent, n * sizeof(float));
    EXPECT_LE(comm.stats().bytes_received, n * sizeof(float));
  });
}

TEST_P(CollectivesTest, HalfAllReduce) {
  const int p = GetParam();
  const std::size_t n = 40;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    std::vector<Half> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = Half(static_cast<float>(ctx.rank + 1));
    }
    comm.AllReduce(std::span<Half>(data), ReduceOp::kSum);
    const float expected = static_cast<float>(p * (p + 1) / 2);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i].ToFloat(), expected);
    }
  });
}

TEST_P(CollectivesTest, HalfReduceScatterAndBroadcast) {
  // fp16 paths of the collectives ZeRO's fp16 mode actually exercises:
  // reduce-scatter of gradients, broadcast of parameters.
  const int p = GetParam();
  const std::size_t chunk = 8;
  const std::size_t n = chunk * static_cast<std::size_t>(p);
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    std::vector<Half> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Values exactly representable in fp16, distinct per rank.
      data[i] = Half(static_cast<float>(ctx.rank + 1) * 0.5f);
    }
    std::vector<Half> out(chunk);
    comm.ReduceScatter(std::span<Half>(data), std::span<Half>(out),
                       ReduceOp::kSum);
    const float expected = 0.5f * static_cast<float>(p * (p + 1) / 2);
    for (std::size_t i = 0; i < chunk; ++i) {
      ASSERT_EQ(out[i].ToFloat(), expected);
    }

    std::vector<Half> bc(n, Half(ctx.rank == 1 % p ? 2.75f : 0.0f));
    comm.Broadcast(std::span<Half>(bc), 1 % p);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bc[i].ToFloat(), 2.75f);
    }
  });
}

TEST_P(CollectivesTest, HalfSubnormalsSurviveReduction) {
  // Tiny fp16 gradients (subnormal range) must not be flushed by the
  // promoted-accumulation reduction path.
  const int p = GetParam();
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    std::vector<Half> data(4, Half(Half::kMinSubnormal));
    comm.AllReduce(std::span<Half>(data), ReduceOp::kSum);
    EXPECT_EQ(data[0].ToFloat(),
              Half(Half::kMinSubnormal * static_cast<float>(p)).ToFloat());
  });
}

TEST_P(CollectivesTest, BackToBackCollectivesDoNotCrossTalk) {
  const int p = GetParam();
  const std::size_t n = 25;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    for (int iter = 0; iter < 5; ++iter) {
      std::vector<float> data(n, static_cast<float>(ctx.rank + iter));
      comm.AllReduce(std::span<float>(data), ReduceOp::kSum);
      const float expected =
          static_cast<float>(p * (p - 1) / 2 + p * iter);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(data[i], expected) << "iter " << iter;
      }
      comm.Barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(CommunicatorTest, PointToPointRoundTrip) {
  World world(2);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    if (ctx.rank == 0) {
      std::vector<float> v{1.0f, 2.0f};
      comm.Send(1, std::span<const float>(v), 3);
      std::vector<float> back(2);
      comm.Recv(1, std::span<float>(back), 4);
      EXPECT_EQ(back[0], 3.0f);
    } else {
      std::vector<float> v(2);
      comm.Recv(0, std::span<float>(v), 3);
      EXPECT_EQ(v[1], 2.0f);
      std::vector<float> reply{3.0f, 4.0f};
      comm.Send(0, std::span<const float>(reply), 4);
    }
  });
}

TEST(CommunicatorTest, ExceptionInRankPropagates) {
  World world(1);
  EXPECT_THROW(world.Run([&](RankContext&) {
    throw Error("rank failure");
  }),
               Error);
}

}  // namespace
}  // namespace zero::comm
