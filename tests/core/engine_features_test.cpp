// Tests for the production features layered on the ZeRO-DP engine:
// gradient accumulation, dynamic loss scaling with global overflow
// skipping, global gradient-norm clipping, and evaluation steps.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/world.hpp"
#include "core/dp_engine.hpp"
#include "model/quad_model.hpp"

namespace zero::core {
namespace {

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

// Reference with accumulation: for each micro-step, gradients are summed
// over ranks in rank order, then summed over micro-steps, then averaged
// by nd*accum — the exact bracketing the engine uses.
std::vector<float> ReferenceWithAccumulation(std::int64_t numel, int units,
                                             int nd, int updates, int accum,
                                             std::uint64_t seed,
                                             const optim::AdamConfig& adam,
                                             float max_norm = 0.0f) {
  model::QuadModel m(numel, units);
  std::vector<float> params(static_cast<std::size_t>(numel));
  m.InitParameters(params, seed);
  std::vector<float> mom(params.size(), 0.0f), var(params.size(), 0.0f);
  int micro = 0;
  for (int update = 0; update < updates; ++update) {
    std::vector<float> acc(params.size(), 0.0f);
    for (int k = 0; k < accum; ++k, ++micro) {
      // Each micro-step's reduction completes (rank-ordered sum) before
      // being added to the accumulator — matching the engine's
      // reduce-then-accumulate bracketing exactly.
      std::vector<float> micro_sum(params.size(), 0.0f);
      for (int r = 0; r < nd; ++r) {
        std::vector<float> g(params.size(), 0.0f);
        model::DirectParamProvider provider(m.layout(), params);
        model::AccumulatingGradSink sink(m.layout(), g);
        (void)m.Step(RankBatch(r, micro), provider, sink);
        for (std::size_t i = 0; i < g.size(); ++i) micro_sum[i] += g[i];
      }
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += micro_sum[i];
    }
    float scale = 1.0f / static_cast<float>(nd * accum);
    if (max_norm > 0.0f) {
      // Partitioned stages compute per-shard squared norms (double
      // accumulation within a shard, float across shards via the
      // all-reduce) — mimic that bracketing exactly.
      const std::int64_t shard = (numel + nd - 1) / nd;
      float total_sq = 0.0f;
      for (int j = 0; j < nd; ++j) {
        double sq = 0.0;
        for (std::int64_t i = j * shard;
             i < std::min<std::int64_t>((j + 1) * shard, numel); ++i) {
          sq += static_cast<double>(acc[static_cast<std::size_t>(i)]) *
                acc[static_cast<std::size_t>(i)];
        }
        total_sq += static_cast<float>(sq);
      }
      const float norm = std::sqrt(total_sq) * scale;
      if (norm > max_norm) scale *= max_norm / (norm + 1e-6f);
    }
    std::vector<float> g_final(acc.size());
    for (std::size_t i = 0; i < acc.size(); ++i) g_final[i] = acc[i] * scale;
    optim::AdamUpdate(adam, update + 1, params, g_final, mom, var);
  }
  return params;
}

struct AccumCase {
  ZeroStage stage;
  int nd;
  int accum;
};

class AccumulationTest : public ::testing::TestWithParam<AccumCase> {};

TEST_P(AccumulationTest, ExactFp32MatchesReference) {
  const auto [stage, nd, accum] = GetParam();
  const std::int64_t numel = 97;  // prime: padding + straddling units
  const int units = 4;
  const int updates = 3;
  optim::AdamConfig adam;
  adam.lr = 0.05f;

  const std::vector<float> expected = ReferenceWithAccumulation(
      numel, units, nd, updates, accum, 11, adam);

  std::vector<std::vector<float>> gathered(static_cast<std::size_t>(nd));
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(numel, units);
    EngineConfig cfg;
    cfg.stage = stage;
    cfg.fp16 = false;
    cfg.exact_reductions = true;
    cfg.accumulation_steps = accum;
    cfg.adam = adam;
    ZeroDpEngine engine(cfg, m, dp, nullptr, 11);
    for (int micro = 0; micro < updates * accum; ++micro) {
      (void)engine.TrainStep(RankBatch(ctx.rank, micro));
    }
    EXPECT_EQ(engine.steps_taken(), updates);
    gathered[static_cast<std::size_t>(ctx.rank)] = engine.GatherFullParams();
  });

  for (int r = 0; r < nd; ++r) {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(gathered[static_cast<std::size_t>(r)][i], expected[i])
          << "stage=" << static_cast<int>(stage) << " accum=" << accum
          << " rank=" << r << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StagesAndAccum, AccumulationTest,
    ::testing::Values(AccumCase{ZeroStage::kNone, 2, 2},
                      AccumCase{ZeroStage::kNone, 3, 3},
                      AccumCase{ZeroStage::kOs, 2, 2},
                      AccumCase{ZeroStage::kOs, 3, 2},
                      AccumCase{ZeroStage::kOsG, 2, 2},
                      AccumCase{ZeroStage::kOsG, 4, 3},
                      AccumCase{ZeroStage::kOsGP, 2, 2},
                      AccumCase{ZeroStage::kOsGP, 3, 3}));

TEST(ClippingTest, ExactFp32MatchesReferenceAtNd2) {
  // nd = 2: two-operand float sums are commutative, so the shard-norm
  // all-reduce is bitwise independent of bracketing and the whole
  // trajectory is exactly reproducible.
  const std::int64_t numel = 64;
  const int units = 4;
  const int nd = 2;
  const int updates = 4;
  const float max_norm = 0.5f;
  optim::AdamConfig adam;
  adam.lr = 0.05f;

  const std::vector<float> expected = ReferenceWithAccumulation(
      numel, units, nd, updates, 1, 5, adam, max_norm);

  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(numel, units);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsG;
    cfg.fp16 = false;
    cfg.exact_reductions = true;
    cfg.max_grad_norm = max_norm;
    cfg.adam = adam;
    ZeroDpEngine engine(cfg, m, dp, nullptr, 5);
    for (int step = 0; step < updates; ++step) {
      (void)engine.TrainStep(RankBatch(ctx.rank, step));
      EXPECT_GT(engine.last_grad_norm(), 0.0f);
    }
    auto params = engine.GatherFullParams();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(params[i], expected[i]) << "i=" << i;
    }
  });
}

TEST(ClippingTest, ClipChangesTrajectoryWhenNormExceedsLimit) {
  const std::int64_t numel = 64;
  const int nd = 2;
  auto run = [&](float max_norm) {
    std::vector<float> out;
    comm::World world(nd);
    std::mutex mu;
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(numel, 2);
      EngineConfig cfg;
      cfg.stage = ZeroStage::kOsG;
      cfg.fp16 = false;
      cfg.max_grad_norm = max_norm;
      ZeroDpEngine engine(cfg, m, dp, nullptr, 5);
      (void)engine.TrainStep(RankBatch(ctx.rank, 0));
      auto p = engine.GatherFullParams();
      std::lock_guard<std::mutex> lock(mu);
      if (ctx.rank == 0) out = std::move(p);
    });
    return out;
  };
  const auto unclipped = run(0.0f);
  const auto tight = run(0.01f);
  int differing = 0;
  for (std::size_t i = 0; i < unclipped.size(); ++i) {
    if (unclipped[i] != tight[i]) ++differing;
  }
  EXPECT_GT(differing, 0);
}

// Both loss-scale modes start at 65536, which pushes QuadModel's O(1)
// gradients past fp16 max (65504). The parameter is whether the scale is
// dynamic (backs off on overflow) or static (never changes); either way
// an overflowed step is skipped on every rank instead of feeding
// non-finite gradients to Adam.
class DynamicScalingTest : public ::testing::TestWithParam<bool> {};

EngineConfig OverflowingFp16(ZeroStage stage, bool dynamic) {
  EngineConfig cfg;
  cfg.stage = stage;
  cfg.fp16 = true;
  cfg.dynamic_loss_scale = dynamic;
  cfg.scaler.init_scale = 65536.0f;
  cfg.loss_scale = 65536.0f;
  return cfg;
}

TEST_P(DynamicScalingTest, OverflowStepsAreSkippedGloballyThenRecover) {
  // Early steps overflow; a dynamic scale backs off far enough that
  // training proceeds, a static one keeps skipping.
  const bool dynamic = GetParam();
  const int nd = 2;
  const std::int64_t numel = 64;
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(numel, 2);
    EngineConfig cfg = OverflowingFp16(ZeroStage::kOsG, dynamic);
    cfg.scaler.backoff_factor = 0.5f;
    ZeroDpEngine engine(cfg, m, dp, nullptr, 9);
    const std::vector<float> before = engine.GatherFullParams();

    (void)engine.TrainStep(RankBatch(ctx.rank, 0));
    // First step must have been skipped: params untouched; a dynamic
    // scale is halved, a static one stays.
    const std::vector<float> after_skip = engine.GatherFullParams();
    EXPECT_EQ(before, after_skip);
    EXPECT_EQ(engine.skipped_steps(), 1);
    EXPECT_EQ(engine.current_loss_scale(), dynamic ? 32768.0f : 65536.0f);

    for (int step = 1; step < 12; ++step) {
      (void)engine.TrainStep(RankBatch(ctx.rank, step));
    }
    const std::vector<float> final_params = engine.GatherFullParams();
    if (dynamic) {
      // The scale decays until updates apply.
      EXPECT_GT(engine.skipped_steps(), 0);
      EXPECT_LT(engine.skipped_steps(), 12);
      EXPECT_NE(before, final_params);  // training eventually progressed
    } else {
      EXPECT_EQ(engine.current_loss_scale(), 65536.0f);
      EXPECT_EQ(engine.skipped_steps(), 12);
      EXPECT_EQ(before, final_params);
    }
    for (float p : final_params) ASSERT_TRUE(std::isfinite(p));
  });
}

TEST_P(DynamicScalingTest, AllRanksAgreeOnSkips) {
  // The overflow flag is all-reduced, so skipped_steps must be identical
  // on every rank even though only some shards contain the overflow.
  const int nd = 4;
  std::vector<std::int64_t> skipped(static_cast<std::size_t>(nd));
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(101, 3);
    ZeroDpEngine engine(OverflowingFp16(ZeroStage::kOsGP, GetParam()), m, dp,
                        nullptr, 2);
    for (int step = 0; step < 8; ++step) {
      (void)engine.TrainStep(RankBatch(ctx.rank, step));
    }
    skipped[static_cast<std::size_t>(ctx.rank)] = engine.skipped_steps();
  });
  EXPECT_GT(skipped[0], 0);
  for (int r = 1; r < nd; ++r) {
    EXPECT_EQ(skipped[0], skipped[static_cast<std::size_t>(r)]);
  }
}

INSTANTIATE_TEST_SUITE_P(LossScales, DynamicScalingTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "dynamic" : "static";
                         });

TEST(EvalTest, EvalLossMatchesTrainLossAndLeavesStateUntouched) {
  const int nd = 2;
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(64, 4);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsGP;
    cfg.fp16 = true;
    ZeroDpEngine engine(cfg, m, dp, nullptr, 3);
    const Batch batch = RankBatch(ctx.rank, 0);

    const std::vector<float> before = engine.GatherFullParams();
    const float eval = engine.EvalLoss(batch);
    EXPECT_EQ(engine.GatherFullParams(), before);  // no state change
    EXPECT_EQ(engine.steps_taken(), 0);

    const float train = engine.TrainStep(batch);
    EXPECT_EQ(eval, train);  // same params, same batch, same loss
    // And after the update the eval loss drops.
    EXPECT_LT(engine.EvalLoss(batch), eval);
  });
}

TEST(EvalTest, MidAccumulationCycleStateIsConsistent) {
  // An eval between micro-steps must not disturb the accumulation.
  const int nd = 2;
  const std::int64_t numel = 97;
  optim::AdamConfig adam;
  adam.lr = 0.05f;
  const std::vector<float> expected =
      ReferenceWithAccumulation(numel, 4, nd, 1, 2, 21, adam);
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(numel, 4);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsG;
    cfg.fp16 = false;
    cfg.exact_reductions = true;
    cfg.accumulation_steps = 2;
    cfg.adam = adam;
    ZeroDpEngine engine(cfg, m, dp, nullptr, 21);
    (void)engine.TrainStep(RankBatch(ctx.rank, 0));
    (void)engine.EvalLoss(RankBatch(ctx.rank, 99));  // mid-cycle eval
    (void)engine.TrainStep(RankBatch(ctx.rank, 1));
    auto params = engine.GatherFullParams();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(params[i], expected[i]);
    }
  });
}

TEST(AccumulationTestExtra, AccumulatorMemoryOnlyWhenEnabled) {
  comm::World world(2);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(1024, 4);
    alloc::DeviceMemory dev(1 << 20, "r");
    alloc::CachingAllocator cache(dev);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsG;
    cfg.fp16 = true;
    {
      ZeroDpEngine engine(cfg, m, dp, &cache, 1);
      const std::size_t base = cache.Stats().live_bytes;
      cfg.accumulation_steps = 4;
      ZeroDpEngine engine2(cfg, m, dp, &cache, 1);
      // The second engine additionally holds a 4-byte/param fp32 shard
      // accumulator (512 params/shard at nd=2).
      EXPECT_GE(cache.Stats().live_bytes - base, base);
      EXPECT_GE(cache.Stats().live_bytes - base, 512u * 4u);
    }
  });
}

}  // namespace
}  // namespace zero::core
