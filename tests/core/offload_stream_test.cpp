// Streaming optimizer-state offload (core/offload_engine.hpp) must be a
// pure placement/latency optimization: with the fp32 state behind the
// host or simulated-NVMe tier, every trajectory — losses, fp16
// parameters, fp32 master/momentum/variance — must be bit-identical to
// the device-resident MixedPrecisionAdam at every stage, composed with
// prefetch, accumulation (where eager streaming is off and every
// gradient moves at update time), eval, and checkpoint/restore
// mid-training.
#include <gtest/gtest.h>

#include <vector>

#include "alloc/tier.hpp"
#include "comm/world.hpp"
#include "core/dp_engine.hpp"
#include "model/quad_model.hpp"
#include "obs/metrics.hpp"

namespace zero::core {
namespace {

using alloc::TierKind;
using model::Batch;
using model::ZeroStage;

Batch RankBatch(int rank, int step) {
  Batch b;
  b.rows = 1;
  b.cols = 4;
  for (int i = 0; i < 4; ++i) {
    b.inputs.push_back(rank * 31 + step * 7 + i);
    b.targets.push_back(0);
  }
  return b;
}

struct Trajectory {
  std::vector<float> losses;  // rank 0's per-step losses
  TrainingState state;        // reassembled full training state
  friend bool operator==(const Trajectory&, const Trajectory&) = default;
};

Trajectory RunTraining(EngineConfig cfg, int nd, int steps,
                       std::int64_t numel, int units, std::uint64_t seed) {
  Trajectory out;
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(numel, units);
    ZeroDpEngine engine(cfg, m, dp, nullptr, seed);
    std::vector<float> losses;
    for (int step = 0; step < steps; ++step) {
      losses.push_back(engine.TrainStep(RankBatch(ctx.rank, step)));
    }
    TrainingState state = engine.ExportState();
    if (ctx.rank == 0) {
      out.losses = std::move(losses);
      out.state = std::move(state);
    }
  });
  return out;
}

// Small slices + small buckets so every step exercises multi-slice
// streaming and (stages 2/3) per-chunk grad finality.
EngineConfig StreamingConfig(ZeroStage stage, TierKind tier) {
  EngineConfig cfg;
  cfg.stage = stage;
  cfg.fp16 = true;
  cfg.bucket_elems = 16;
  cfg.offload_tier = tier;
  cfg.offload_slice_elems = 16;
  return cfg;
}

class OffloadTierTest : public ::testing::TestWithParam<TierKind> {};

TEST_P(OffloadTierTest, EveryStageBitExactVsDeviceResident) {
  const TierKind tier = GetParam();
  for (ZeroStage stage : {ZeroStage::kNone, ZeroStage::kOs, ZeroStage::kOsG,
                          ZeroStage::kOsGP}) {
    const Trajectory device =
        RunTraining(StreamingConfig(stage, TierKind::kDevice), 2, 4, 101, 4,
                    7);
    const Trajectory offloaded =
        RunTraining(StreamingConfig(stage, tier), 2, 4, 101, 4, 7);
    EXPECT_EQ(offloaded.losses, device.losses)
        << "stage=" << static_cast<int>(stage);
    EXPECT_EQ(offloaded.state, device.state)
        << "stage=" << static_cast<int>(stage);
  }
}

TEST_P(OffloadTierTest, Stage3WithPrefetchBitExact) {
  // The acceptance bar: offload composes with the prefetched stage-3
  // schedule (ZERO_PREFETCH=2) without changing a bit.
  const TierKind tier = GetParam();
  EngineConfig cfg = StreamingConfig(ZeroStage::kOsGP, TierKind::kDevice);
  cfg.prefetch_lookahead = 2;
  const Trajectory device = RunTraining(cfg, 4, 5, 131, 5, 7);
  cfg.offload_tier = tier;
  const Trajectory offloaded = RunTraining(cfg, 4, 5, 131, 5, 7);
  EXPECT_EQ(offloaded.losses, device.losses);
  EXPECT_EQ(offloaded.state, device.state);
}

TEST_P(OffloadTierTest, AccumulationBitExact) {
  // Accumulation disables eager streaming (grads are summed in fp32
  // first); the at-update path must still match exactly.
  const TierKind tier = GetParam();
  EngineConfig cfg = StreamingConfig(ZeroStage::kOsG, TierKind::kDevice);
  cfg.accumulation_steps = 2;
  const Trajectory device = RunTraining(cfg, 2, 6, 97, 4, 5);
  cfg.offload_tier = tier;
  const Trajectory offloaded = RunTraining(cfg, 2, 6, 97, 4, 5);
  EXPECT_EQ(offloaded.losses, device.losses);
  EXPECT_EQ(offloaded.state, device.state);
}

TEST_P(OffloadTierTest, MidTrainingCheckpointRestoreBitExact) {
  const TierKind tier = GetParam();
  // Train 3 steps, export, import into a *fresh* engine of the same
  // config, train 3 more. The offloaded sequence must match the
  // device-resident sequence bit for bit.
  auto run = [&](TierKind t) {
    EngineConfig cfg = StreamingConfig(ZeroStage::kOsGP, t);
    Trajectory out;
    comm::World world(2);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(101, 4);
      std::vector<float> losses;
      TrainingState mid;
      {
        ZeroDpEngine engine(cfg, m, dp, nullptr, 13);
        for (int step = 0; step < 3; ++step) {
          losses.push_back(engine.TrainStep(RankBatch(ctx.rank, step)));
        }
        mid = engine.ExportState();
      }
      ZeroDpEngine resumed(cfg, m, dp, nullptr, 13);
      resumed.ImportState(mid);
      for (int step = 3; step < 6; ++step) {
        losses.push_back(resumed.TrainStep(RankBatch(ctx.rank, step)));
      }
      TrainingState state = resumed.ExportState();
      if (ctx.rank == 0) {
        out.losses = std::move(losses);
        out.state = std::move(state);
      }
    });
    return out;
  };
  const Trajectory device = run(TierKind::kDevice);
  const Trajectory offloaded = run(tier);
  EXPECT_EQ(offloaded.losses, device.losses);
  EXPECT_EQ(offloaded.state, device.state);
  EXPECT_EQ(offloaded.state.step_count, 6);
}

TEST_P(OffloadTierTest, MidTrainingEvalDoesNotDerailStreaming) {
  // EvalLoss discards gradients at the sink, so no slice ever becomes
  // "final" during eval — the record/replay schedule must survive
  // interleaved evals unchanged.
  const TierKind tier = GetParam();
  auto run = [&](TierKind t) {
    EngineConfig cfg = StreamingConfig(ZeroStage::kOsG, t);
    Trajectory out;
    comm::World world(2);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(97, 4);
      ZeroDpEngine engine(cfg, m, dp, nullptr, 17);
      std::vector<float> losses;
      for (int step = 0; step < 4; ++step) {
        losses.push_back(engine.TrainStep(RankBatch(ctx.rank, step)));
        losses.push_back(engine.EvalLoss(RankBatch(ctx.rank, 50 + step)));
      }
      TrainingState state = engine.ExportState();
      if (ctx.rank == 0) {
        out.losses = std::move(losses);
        out.state = std::move(state);
      }
    });
    return out;
  };
  const Trajectory device = run(TierKind::kDevice);
  const Trajectory offloaded = run(tier);
  EXPECT_EQ(offloaded.losses, device.losses);
  EXPECT_EQ(offloaded.state, device.state);
}

INSTANTIATE_TEST_SUITE_P(Tiers, OffloadTierTest,
                         ::testing::Values(TierKind::kHost, TierKind::kNvme));

TEST(OffloadStreamTest, Fp32ExactReductionsBitExact) {
  EngineConfig cfg = StreamingConfig(ZeroStage::kOsG, TierKind::kDevice);
  cfg.fp16 = false;
  cfg.exact_reductions = true;
  const Trajectory device = RunTraining(cfg, 3, 4, 131, 5, 42);
  cfg.offload_tier = TierKind::kHost;
  const Trajectory offloaded = RunTraining(cfg, 3, 4, 131, 5, 42);
  EXPECT_EQ(offloaded.losses, device.losses);
  EXPECT_EQ(offloaded.state, device.state);
}

TEST(OffloadStreamTest, ReplayStepsStreamEagerly) {
  EngineConfig cfg = StreamingConfig(ZeroStage::kOsG, TierKind::kHost);
  const double eager_before =
      obs::Metrics().counter("offload.eager_slices").value();
  (void)RunTraining(cfg, 2, 4, 101, 4, 9);
  // Step 0 records the slice-finality order; steps 1..3 replay it and
  // should launch eager gradient transfers during backward.
  EXPECT_GT(obs::Metrics().counter("offload.eager_slices").value(),
            eager_before);
}

TEST(OffloadStreamTest, NvmeStreamsTheStateThroughTheLink) {
  // The host tier updates in place (only the 2+2 B/param wire traffic
  // crosses the link); NVMe is not host-addressable, so the K = 12
  // B/param fp32 state must additionally stream through both ways.
  auto transfer_bytes = [&](TierKind tier) {
    EngineConfig cfg = StreamingConfig(ZeroStage::kOsG, tier);
    std::uint64_t bytes = 0;
    comm::World world(2);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(96, 4);
      ZeroDpEngine engine(cfg, m, dp, nullptr, 7);
      (void)engine.TrainStep(RankBatch(ctx.rank, 0));
      if (ctx.rank == 0) bytes = engine.optimizer_transfer_bytes();
    });
    return bytes;
  };
  const std::uint64_t host = transfer_bytes(TierKind::kHost);
  const std::uint64_t nvme = transfer_bytes(TierKind::kNvme);
  // Shard: 48 elements per rank over nd=2; fp16 grads down + fp16
  // params back = 4 B/param. NVMe adds fetch+store of the 12 B/param
  // fp32 state (+24 B/param/step) plus the one-time 4 B/param initial
  // master upload at construction.
  EXPECT_EQ(host, 48u * 2u * 2u);
  EXPECT_EQ(nvme, host + 48u * 24u + 48u * 4u);
}

}  // namespace
}  // namespace zero::core
