// ZeRO++ quantized collectives (qwZ wire). The contract differs from the
// exact machines: the result is LOSSY but must be (a) bit-identical on
// every rank — the root included, or SPMD replicas diverge — and (b)
// exactly the local quantize->dequantize round trip of the source data,
// so the loss is the quantizer's documented policy and nothing else.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <vector>

#include "comm/quant_collectives.hpp"
#include "comm/world.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "tensor/quantize.hpp"

namespace zero::comm {
namespace {

using tensor::QuantWireBytes;

class QuantCollectivesTest : public ::testing::TestWithParam<int> {};

std::vector<Half> RankHalves(int rank, std::size_t n) {
  std::vector<Half> v(n);
  Rng rng(900 + static_cast<std::uint64_t>(rank));
  for (Half& x : v) x = Half(rng.NextGaussian());
  return v;
}

// The single-rank reference the wire must reproduce exactly.
std::vector<Half> QuantRoundTrip(const std::vector<Half>& src,
                                 std::int64_t block) {
  const auto n = static_cast<std::int64_t>(src.size());
  std::vector<std::byte> wire(QuantWireBytes(n, block));
  tensor::QuantizeHalf(src.data(), n, block, wire.data());
  std::vector<Half> out(src.size());
  tensor::DequantizeHalf(wire.data(), n, block, out.data());
  return out;
}

bool BitEqual(const std::vector<Half>& a, const std::vector<Half>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].bits() != b[i].bits()) return false;
  }
  return true;
}

TEST_P(QuantCollectivesTest, IQuantBroadcastIsRoundTripOnEveryRank) {
  const int p = GetParam();
  const std::size_t n = 101;  // splits unevenly across every ring size
  for (const std::int64_t block : {std::int64_t{16}, std::int64_t{64}}) {
    World world(p);
    world.Run([&](RankContext& ctx) {
      Communicator comm = Communicator::WholeWorld(ctx);
      for (int root = 0; root < p; ++root) {
        std::vector<Half> data = ctx.rank == root
                                     ? RankHalves(root, n)
                                     : std::vector<Half>(n, Half(-1.0f));
        CollectiveRequest req =
            IQuantBroadcast(comm, std::span<Half>(data), root, block);
        req.Wait();
        ASSERT_TRUE(req.done());
        // Every rank — including the root, whose buffer held the exact
        // values — must now hold the dequantized wire contents.
        ASSERT_TRUE(BitEqual(data, QuantRoundTrip(RankHalves(root, n), block)))
            << "root " << root << " block " << block;
      }
    });
  }
}

TEST_P(QuantCollectivesTest, IQuantAllGatherIsRoundTripPerSlot) {
  const int p = GetParam();
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{77}}) {
    World world(p);
    world.Run([&](RankContext& ctx) {
      Communicator comm = Communicator::WholeWorld(ctx);
      const auto mine = RankHalves(ctx.rank, chunk);
      std::vector<Half> out(chunk * static_cast<std::size_t>(p),
                            Half(-1.0f));
      CollectiveRequest req = IQuantAllGather(
          comm, std::span<const Half>(mine), std::span<Half>(out), 64);
      req.Wait();
      for (int r = 0; r < p; ++r) {
        const std::vector<Half> want = QuantRoundTrip(RankHalves(r, chunk), 64);
        for (std::size_t i = 0; i < chunk; ++i) {
          ASSERT_EQ(out[static_cast<std::size_t>(r) * chunk + i].bits(),
                    want[i].bits())
              << "slot " << r << " elem " << i << " chunk " << chunk;
        }
      }
    });
  }
}

TEST_P(QuantCollectivesTest, PoisonSurvivesTheWire) {
  // Overflow detection downstream of a quantized gather must still see
  // non-finite values: a NaN at the root poisons its block on all ranks.
  const int p = GetParam();
  const std::size_t n = 130;  // blocks of 64: [0,64) poisoned, rest clean
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    std::vector<Half> data(n, Half(2.0f));
    if (ctx.rank == 0) data[3] = Half::FromBits(0x7E00);  // NaN
    CollectiveRequest req =
        IQuantBroadcast(comm, std::span<Half>(data), /*root=*/0, 64);
    req.Wait();
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_FALSE(std::isfinite(data[i].ToFloat())) << i;
    }
    for (std::size_t i = 64; i < n; ++i) {
      EXPECT_TRUE(std::isfinite(data[i].ToFloat())) << i;
    }
  });
}

TEST_P(QuantCollectivesTest, WireVolumeIsCompressed) {
  // The bytes on the wire are the int8+scale format, not fp16: per-rank
  // broadcast traffic shrinks by ~2x vs IBroadcast (2 B -> ~1.03 B/elem).
  const int p = GetParam();
  if (p == 1) GTEST_SKIP() << "no communication at p=1";
  const std::size_t n = 1024;
  World world(p);
  world.Run([&](RankContext& ctx) {
    Communicator comm = Communicator::WholeWorld(ctx);
    std::vector<Half> data(n, Half(1.0f));
    const CommStats before = comm.stats();
    CollectiveRequest req =
        IQuantBroadcast(comm, std::span<Half>(data), /*root=*/0, 64);
    req.Wait();
    const CommStats delta = comm.stats() - before;
    const std::size_t wire = QuantWireBytes(static_cast<std::int64_t>(n), 64);
    // Ring broadcast: every rank forwards the full message except the
    // tail; the root's deposit counts as its send.
    EXPECT_LE(delta.bytes_sent, wire);
    EXPECT_LT(wire, 2 * n);  // compressed vs the fp16 payload
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, QuantCollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

}  // namespace
}  // namespace zero::comm
