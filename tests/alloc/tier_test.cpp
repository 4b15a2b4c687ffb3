// Storage tiers and the simulated transfer link (alloc/tier.hpp): the
// abstraction the streaming optimizer offload (core/offload_engine)
// builds on. Bytes land at submit; the channel models only time.
#include "alloc/tier.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace zero::alloc {
namespace {

TEST(TransferChannelTest, InstantLinkCompletesAtSubmit) {
  TransferChannel ch(0.0);
  TransferRequest req = ch.Submit(TransferDirection::kToTier, 1024);
  EXPECT_TRUE(req.done());
  req.Wait();  // no-op
  EXPECT_EQ(ch.stats().bytes_to_tier, 1024u);
  EXPECT_EQ(ch.stats().active_ns, 0u);
  EXPECT_EQ(ch.stats().exposed_ns, 0u);
  EXPECT_DOUBLE_EQ(ch.stats().hidden_fraction(), 1.0);
}

TEST(TransferChannelTest, DirectionLedgersAreSeparate) {
  TransferChannel ch(0.0);
  (void)ch.Submit(TransferDirection::kToTier, 100);
  (void)ch.Submit(TransferDirection::kToDevice, 7);
  EXPECT_EQ(ch.stats().bytes_to_tier, 100u);
  EXPECT_EQ(ch.stats().bytes_to_device, 7u);
  EXPECT_EQ(ch.stats().total_bytes(), 107u);
}

TEST(TransferChannelTest, WaitChargesExposedLinkTime) {
  // 1 GB/s link, 2 MB transfer -> 2 ms of simulated link time. Waiting
  // immediately exposes (almost) all of it.
  TransferChannel ch(1e9);
  TransferRequest req = ch.Submit(TransferDirection::kToTier, 2'000'000);
  EXPECT_EQ(ch.stats().active_ns, 2'000'000u);
  req.Wait();
  EXPECT_TRUE(req.done());
  EXPECT_GT(ch.stats().exposed_ns, 0u);
  EXPECT_LE(ch.stats().exposed_ns, ch.stats().active_ns);
  EXPECT_LT(ch.stats().hidden_fraction(), 1.0);
}

TEST(TransferChannelTest, LinkTimeElapsedWhileComputingIsHidden) {
  TransferChannel ch(1e9);
  TransferRequest req = ch.Submit(TransferDirection::kToDevice, 1'000'000);
  // "Compute" for longer than the 1 ms of link time, then wait: the
  // transfer already delivered, so nothing is exposed.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(req.Test());
  req.Wait();
  EXPECT_EQ(ch.stats().exposed_ns, 0u);
  EXPECT_DOUBLE_EQ(ch.stats().hidden_fraction(), 1.0);
}

TEST(TransferChannelTest, TransfersQueueFifoBehindEachOther) {
  TransferChannel ch(1e9);
  (void)ch.Submit(TransferDirection::kToTier, 1'000'000);
  TransferRequest second = ch.Submit(TransferDirection::kToTier, 1'000'000);
  // The second transfer serializes behind the first: 2 ms total active.
  EXPECT_EQ(ch.stats().active_ns, 2'000'000u);
  second.Wait();
  EXPECT_TRUE(second.done());
}

TEST(HostTierTest, RegionsLiveInThePoolAndTrafficIsLedgered) {
  HostMemory pool("alloc.host");
  auto tier = MakeStorageTier(TierKind::kHost, &pool, 0.0);
  EXPECT_EQ(tier->kind(), TierKind::kHost);
  ASSERT_NE(tier->channel(), nullptr);

  const std::size_t rg = tier->CreateRegion(256);
  EXPECT_EQ(pool.Stats().in_use, 256u);
  const std::span<std::byte> resident = tier->ResidentBytes(rg);
  ASSERT_EQ(resident.size(), 256u);
  for (std::byte b : resident) EXPECT_EQ(b, std::byte{0});

  std::vector<std::byte> src(128, std::byte{0x5a});
  tier->StoreAsync(rg, 64, src).Wait();
  EXPECT_EQ(resident[64], std::byte{0x5a});
  EXPECT_EQ(pool.Stats().bytes_to_host, 128u);

  std::vector<std::byte> dst(128);
  tier->FetchAsync(rg, 64, dst).Wait();
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), 128), 0);
  EXPECT_EQ(pool.Stats().bytes_from_host, 128u);

  // Wire-format traffic that bypasses the regions still hits the
  // pool's transfer ledger and the channel byte counts.
  (void)tier->SubmitToTier(32);
  (void)tier->SubmitToDevice(16);
  EXPECT_EQ(pool.Stats().bytes_to_host, 128u + 32u);
  EXPECT_EQ(pool.Stats().bytes_from_host, 128u + 16u);
  EXPECT_EQ(tier->channel()->stats().bytes_to_tier, 128u + 32u);
  EXPECT_EQ(tier->channel()->stats().bytes_to_device, 128u + 16u);

  tier->ReleaseRegion(rg);
  EXPECT_EQ(pool.Stats().in_use, 0u);
}

TEST(HostTierTest, DestructorReleasesOutstandingRegions) {
  HostMemory pool("alloc.host");
  {
    HostTier tier(&pool, 0.0);
    (void)tier.CreateRegion(100);
    (void)tier.CreateRegion(28);
    EXPECT_EQ(pool.Stats().in_use, 128u);
  }
  EXPECT_EQ(pool.Stats().in_use, 0u);
  EXPECT_EQ(pool.Stats().peak_in_use, 128u);
}

TEST(NvmeTierTest, NotHostAddressableButRoundTripsThroughStaging) {
  auto tier = MakeStorageTier(TierKind::kNvme, nullptr, 0.0);
  EXPECT_EQ(tier->kind(), TierKind::kNvme);
  const std::size_t rg = tier->CreateRegion(96);
  // The contract the offload engine's staging path keys off:
  EXPECT_TRUE(tier->ResidentBytes(rg).empty());

  std::vector<std::byte> src(96);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i);
  }
  tier->StoreAsync(rg, 0, src).Wait();
  std::vector<std::byte> dst(96, std::byte{0xff});
  tier->FetchAsync(rg, 0, dst).Wait();
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);

  // Fresh regions read back zeroed.
  const std::size_t rg2 = tier->CreateRegion(16);
  std::vector<std::byte> zeros(16, std::byte{0xff});
  tier->FetchAsync(rg2, 0, zeros).Wait();
  for (std::byte b : zeros) EXPECT_EQ(b, std::byte{0});

  tier->ReleaseRegion(rg);
  tier->ReleaseRegion(rg2);
  EXPECT_THROW((void)tier->FetchAsync(rg, 0, dst), Error);
}

TEST(MakeStorageTierTest, HostTierRequiresAPool) {
  EXPECT_THROW((void)MakeStorageTier(TierKind::kHost, nullptr, 0.0),
               Error);
}

TEST(MakeStorageTierTest, DeviceKindHasNoTier) {
  // kDevice keeps the optimizer state on the device (the engine builds
  // MixedPrecisionAdam), so there is no storage tier to make.
  EXPECT_THROW((void)MakeStorageTier(TierKind::kDevice, nullptr, 0.0), Error);
}

TEST(TierKindNameTest, NamesMatchTheEnvGrammar) {
  EXPECT_STREQ(TierKindName(TierKind::kDevice), "device");
  EXPECT_STREQ(TierKindName(TierKind::kHost), "host");
  EXPECT_STREQ(TierKindName(TierKind::kNvme), "nvme");
}

}  // namespace
}  // namespace zero::alloc
