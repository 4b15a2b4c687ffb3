#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <thread>

#include "comm/world.hpp"
#include "common/rng.hpp"

namespace zero::comm {
namespace {

// The ring machines are the only collective implementation; the blocking
// member collectives launch them and Wait. The reference below is a
// serial fold written independently of the ring code, and every
// comparison is on the bits, not NEAR. The fold checks use EXPECT so a
// mismatch on some ranks only still lets every rank reach the next
// collective instead of deadlocking the group. World sizes 1..8 cover the
// degenerate group, even/odd rings, and payloads smaller than the group.
class NonblockingCollectivesTest : public ::testing::TestWithParam<int> {};

std::vector<float> RankData(int rank, std::size_t n) {
  std::vector<float> v(n);
  Rng rng(700 + static_cast<std::uint64_t>(rank));
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

template <typename T>
std::vector<T> RankValues(int rank, std::size_t n) {
  std::vector<T> v;
  for (const float f : RankData(rank, n)) v.push_back(T(f));
  return v;
}

std::uint32_t Bits(float v) { return std::bit_cast<std::uint32_t>(v); }
std::uint32_t Bits(Half v) { return v.bits(); }

template <typename T>
std::vector<std::uint32_t> BitsOf(const std::vector<T>& v) {
  std::vector<std::uint32_t> out;
  for (const T x : v) out.push_back(Bits(x));
  return out;
}

// Element i of ring chunk c as the determinism contract defines it:
//   x[c] + (x[c-1] + (... + (x[c+2] + x[c+1])))   (rank indices mod p)
// one FpPromote add (or max) per rank, narrowed back to T after each,
// with the rank's own value as the left operand.
template <typename T>
T RingFold(const std::vector<std::vector<T>>& x, int c, std::size_t i,
           ReduceOp op) {
  using P = detail::FpPromote<T>;
  const int p = static_cast<int>(x.size());
  T acc = x[static_cast<std::size_t>((c + 1) % p)][i];
  for (int k = 2; k <= p; ++k) {
    const T own = x[static_cast<std::size_t>((c + k) % p)][i];
    acc = op == ReduceOp::kMax
              ? P::Narrow(std::max(P::Widen(own), P::Widen(acc)))
              : P::Narrow(P::Widen(own) + P::Widen(acc));
  }
  if (op == ReduceOp::kAvg) {
    acc = P::Narrow(
        static_cast<typename P::type>(P::Widen(acc) * (1.0 / p)));
  }
  return acc;
}

// The fully reduced vector: every element folded in its ring chunk.
template <typename T>
std::vector<T> SerialAllReduce(const Communicator& comm, std::size_t n,
                               ReduceOp op) {
  const int p = comm.size();
  std::vector<std::vector<T>> x;
  for (int r = 0; r < p; ++r) x.push_back(RankValues<T>(r, n));
  std::vector<T> out(n);
  for (int c = 0; c < p; ++c) {
    const auto [b, e] = comm.ChunkRange(n, c);
    for (std::size_t i = b; i < e; ++i) out[i] = RingFold(x, c, i, op);
  }
  return out;
}

template <typename T>
void CheckAllReduceAgainstFold(int p) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                              std::size_t{103}}) {
    World world(p);
    world.Run([&](RankContext& ctx) {
      Communicator comm = Communicator::WholeWorld(ctx);
      for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kAvg,
                                ReduceOp::kMax}) {
        const auto expected = BitsOf(SerialAllReduce<T>(comm, n, op));
        auto nonblocking = RankValues<T>(ctx.rank, n);
        CollectiveRequest req =
            IAllReduce(comm, std::span<T>(nonblocking), op);
        req.Wait();
        EXPECT_TRUE(req.done());
        EXPECT_EQ(BitsOf(nonblocking), expected) << "n=" << n;
        auto blocking = RankValues<T>(ctx.rank, n);
        comm.AllReduce(std::span<T>(blocking), op);
        EXPECT_EQ(BitsOf(blocking), expected) << "n=" << n;
      }
    });
  }
}

TEST_P(NonblockingCollectivesTest, IAllReduceMatchesSerialRingFold) {
  CheckAllReduceAgainstFold<float>(GetParam());
  CheckAllReduceAgainstFold<Half>(GetParam());
}

template <typename T>
void CheckBroadcastDeliversRoot(int p) {
  // 31 is not divisible by p for p in 2..8; 3 < p leaves empty chunks.
  for (const std::size_t n : {std::size_t{3}, std::size_t{31}}) {
    World world(p);
    world.Run([&](RankContext& ctx) {
      Communicator comm = Communicator::WholeWorld(ctx);
      for (int root = 0; root < p; ++root) {
        const auto expected = BitsOf(RankValues<T>(root, n));
        std::vector<T> data = ctx.rank == root ? RankValues<T>(root, n)
                                               : std::vector<T>(n, T(-1.0f));
        CollectiveRequest req = IBroadcast(comm, std::span<T>(data), root);
        req.Wait();
        EXPECT_EQ(BitsOf(data), expected) << "root " << root << " n=" << n;
      }
    });
  }
}

TEST_P(NonblockingCollectivesTest, IBroadcastDeliversRootPayload) {
  CheckBroadcastDeliversRoot<float>(GetParam());
  CheckBroadcastDeliversRoot<Half>(GetParam());
}

template <typename T>
void CheckAllGatherConcatenates(int p) {
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{9}}) {
    World world(p);
    world.Run([&](RankContext& ctx) {
      Communicator comm = Communicator::WholeWorld(ctx);
      std::vector<T> expected;
      for (int r = 0; r < p; ++r) {
        const auto theirs = RankValues<T>(r, chunk);
        expected.insert(expected.end(), theirs.begin(), theirs.end());
      }
      const auto mine = RankValues<T>(ctx.rank, chunk);
      std::vector<T> out(expected.size(), T(-1.0f));
      CollectiveRequest req =
          IAllGather(comm, std::span<const T>(mine), std::span<T>(out));
      req.Wait();
      EXPECT_EQ(BitsOf(out), BitsOf(expected)) << "chunk=" << chunk;
    });
  }
}

TEST_P(NonblockingCollectivesTest, IAllGatherMatchesRankConcatenation) {
  CheckAllGatherConcatenates<float>(GetParam());
  CheckAllGatherConcatenates<Half>(GetParam());
}

template <typename T>
void CheckReduceScatterAgainstFold(int p) {
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{13}}) {
    const std::size_t n = chunk * static_cast<std::size_t>(p);
    World world(p);
    world.Run([&](RankContext& ctx) {
      Communicator comm = Communicator::WholeWorld(ctx);
      for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kAvg}) {
        const auto full = SerialAllReduce<T>(comm, n, op);
        const auto [b, e] = comm.ChunkRange(n, ctx.rank);
        const std::vector<T> expected(full.begin() + b, full.begin() + e);
        auto data = RankValues<T>(ctx.rank, n);
        std::vector<T> out(chunk, T(-1.0f));
        CollectiveRequest req = IReduceScatter(
            comm, std::span<T>(data), std::span<T>(out), op);
        req.Wait();
        EXPECT_EQ(BitsOf(out), BitsOf(expected)) << "chunk=" << chunk;
      }
    });
  }
}

TEST_P(NonblockingCollectivesTest, IReduceScatterMatchesSerialRingFold) {
  CheckReduceScatterAgainstFold<float>(GetParam());
  CheckReduceScatterAgainstFold<Half>(GetParam());
}

TEST_P(NonblockingCollectivesTest, HalfIBroadcastAndIAllReduce) {
  // fp16 paths the stage-3 prefetcher actually uses.
  const int p = GetParam();
  const std::size_t n = 23;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    std::vector<Half> bc(n, Half(ctx.rank == 0 ? 2.75f : 0.0f));
    CollectiveRequest b = IBroadcast(comm, std::span<Half>(bc), 0);
    b.Wait();
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(bc[i].ToFloat(), 2.75f);

    std::vector<Half> ar(n, Half(static_cast<float>(ctx.rank + 1)));
    std::vector<Half> expected(n, Half(static_cast<float>(ctx.rank + 1)));
    comm.AllReduce(std::span<Half>(expected), ReduceOp::kSum);
    CollectiveRequest r = IAllReduce(comm, std::span<Half>(ar),
                                     ReduceOp::kSum);
    r.Wait();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ar[i].bits(), expected[i].bits());
    }
  });
}

TEST_P(NonblockingCollectivesTest, TestOnlyDrivingCompletes) {
  // Progress without ever blocking: every rank spins on Test(), which is
  // how a compute loop drives prefetched gathers between kernels.
  const int p = GetParam();
  const std::size_t n = 47;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    auto expected = RankData(ctx.rank, n);
    comm.AllReduce(std::span<float>(expected), ReduceOp::kSum);
    auto data = RankData(ctx.rank, n);
    CollectiveRequest req = IAllReduce(comm, std::span<float>(data),
                                       ReduceOp::kSum);
    while (!req.Test()) std::this_thread::yield();
    ASSERT_EQ(data, expected);
  });
}

TEST_P(NonblockingCollectivesTest, InFlightCollectivesCompleteOutOfOrder) {
  // Several collectives launched before any is waited, then completed in
  // reverse launch order: tag sequencing keeps their chunks apart, and
  // buffered sends mean no rank deadlocks waiting for a peer that is
  // busy with a different machine.
  const int p = GetParam();
  const std::size_t n = 29;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    auto exp_reduce = RankData(ctx.rank, n);
    comm.AllReduce(std::span<float>(exp_reduce), ReduceOp::kSum);
    const auto exp_bcast = RankData(0, n);

    auto a = RankData(ctx.rank, n);
    std::vector<float> b = ctx.rank == 0 ? RankData(0, n)
                                         : std::vector<float>(n, -1.0f);
    auto c = RankData(ctx.rank, n);
    CollectiveRequest ra = IAllReduce(comm, std::span<float>(a),
                                      ReduceOp::kSum);
    CollectiveRequest rb = IBroadcast(comm, std::span<float>(b), 0);
    CollectiveRequest rc = IAllReduce(comm, std::span<float>(c),
                                      ReduceOp::kSum);
    rc.Wait();
    rb.Wait();
    ra.Wait();
    ASSERT_EQ(a, exp_reduce);
    ASSERT_EQ(b, exp_bcast);
    ASSERT_EQ(c, exp_reduce);
  });
}

TEST_P(NonblockingCollectivesTest, InterleavesWithBlockingCollectives) {
  // A blocking collective issued while a nonblocking one is in flight
  // must not consume the machine's chunks (distinct tag sequence slots).
  const int p = GetParam();
  const std::size_t n = 33;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    auto expected = RankData(ctx.rank, n);
    comm.AllReduce(std::span<float>(expected), ReduceOp::kSum);

    auto data = RankData(ctx.rank, n);
    CollectiveRequest req = IAllReduce(comm, std::span<float>(data),
                                       ReduceOp::kSum);
    std::vector<float> other(n, static_cast<float>(ctx.rank));
    comm.AllReduce(std::span<float>(other), ReduceOp::kSum);
    ASSERT_EQ(other[0], static_cast<float>(p * (p - 1) / 2));
    req.Wait();
    ASSERT_EQ(data, expected);
  });
}

TEST_P(NonblockingCollectivesTest, CancelUnwindsCleanly) {
  // Every rank cancels an in-flight broadcast, then runs a normal
  // collective: stale chunks must rot harmlessly under their own tags
  // instead of corrupting later traffic. (SPMD contract: the cancel
  // decision is taken identically on all ranks, as the abort path does.)
  const int p = GetParam();
  const std::size_t n = 41;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    {
      std::vector<float> doomed(n, static_cast<float>(ctx.rank));
      CollectiveRequest req = IBroadcast(comm, std::span<float>(doomed), 0);
      req.Cancel();
      ASSERT_TRUE(req.done());
      // `doomed` dies here; a late chunk must not land in freed memory.
    }
    std::vector<float> data(n, 1.0f);
    comm.AllReduce(std::span<float>(data), ReduceOp::kSum);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i], static_cast<float>(p));
    }
  });
}

TEST_P(NonblockingCollectivesTest, PayloadSmallerThanGroup) {
  // With n < p, some ring chunks are empty; the machines must skip them
  // exactly like the blocking schedules do.
  const int p = GetParam();
  const std::size_t n = 2;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    auto expected = RankData(ctx.rank, n);
    comm.AllReduce(std::span<float>(expected), ReduceOp::kSum);
    auto data = RankData(ctx.rank, n);
    CollectiveRequest r = IAllReduce(comm, std::span<float>(data),
                                     ReduceOp::kSum);
    r.Wait();
    ASSERT_EQ(data, expected);

    std::vector<float> bc = ctx.rank == 0 ? RankData(0, n)
                                          : std::vector<float>(n, -1.0f);
    CollectiveRequest rb = IBroadcast(comm, std::span<float>(bc), 0);
    rb.Wait();
    ASSERT_EQ(bc, RankData(0, n));
  });
}

TEST_P(NonblockingCollectivesTest, VolumeMatchesBlocking) {
  // Same ring schedules => same measured per-rank volume as the blocking
  // collectives the Sec 7 accounting was validated against.
  const int p = GetParam();
  if (p == 1) GTEST_SKIP() << "no communication at p=1";
  const std::size_t n = 120;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    auto data = RankData(ctx.rank, n);
    comm.AllReduce(std::span<float>(data), ReduceOp::kSum);
    const CommStats blocking = comm.stats();
    auto data2 = RankData(ctx.rank, n);
    CollectiveRequest req = IAllReduce(comm, std::span<float>(data2),
                                       ReduceOp::kSum);
    req.Wait();
    const CommStats nonblocking = comm.stats() - blocking;
    EXPECT_EQ(nonblocking.bytes_sent, blocking.bytes_sent);
    EXPECT_EQ(nonblocking.bytes_received, blocking.bytes_received);
    EXPECT_EQ(nonblocking.collectives, blocking.collectives);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, NonblockingCollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace zero::comm
