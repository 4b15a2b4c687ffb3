#include "core/dp_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "comm/world.hpp"
#include "model/corpus.hpp"
#include "model/gpt.hpp"
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

// Single-process reference trajectory: grads summed in rank order, then
// averaged, then exact fp32 Adam — what every stage must reproduce
// bitwise in exact_reductions mode.
std::vector<float> ReferenceTrajectory(std::int64_t numel, int units, int nd,
                                       int steps, std::uint64_t seed,
                                       const optim::AdamConfig& adam) {
  model::QuadModel m(numel, units);
  std::vector<float> params(static_cast<std::size_t>(numel));
  m.InitParameters(params, seed);
  std::vector<float> mom(params.size(), 0.0f), var(params.size(), 0.0f);
  for (int step = 0; step < steps; ++step) {
    std::vector<float> grad_sum(params.size(), 0.0f);
    for (int r = 0; r < nd; ++r) {
      std::vector<float> g(params.size(), 0.0f);
      model::DirectParamProvider provider(m.layout(), params);
      model::AccumulatingGradSink sink(m.layout(), g);
      (void)m.Step(RankBatch(r, step), provider, sink);
      for (std::size_t i = 0; i < g.size(); ++i) grad_sum[i] += g[i];
    }
    const float scale = 1.0f / static_cast<float>(nd);
    for (float& g : grad_sum) g *= scale;
    optim::AdamUpdate(adam, step + 1, params, grad_sum, mom, var);
  }
  return params;
}

struct StageNd {
  ZeroStage stage;
  int nd;
};

class StageEquivalenceTest : public ::testing::TestWithParam<StageNd> {};

TEST_P(StageEquivalenceTest, ExactFp32TrajectoryMatchesReference) {
  const auto [stage, nd] = GetParam();
  // 131 parameters over 5 units: prime size exercises padding, and units
  // that straddle partition boundaries exercise the bucketizer.
  const std::int64_t numel = 131;
  const int units = 5;
  const int steps = 4;
  optim::AdamConfig adam;
  adam.lr = 0.05f;

  const std::vector<float> expected =
      ReferenceTrajectory(numel, units, nd, steps, 42, adam);

  std::vector<std::vector<float>> gathered(static_cast<std::size_t>(nd));
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(numel, units);
    EngineConfig cfg;
    cfg.stage = stage;
    cfg.fp16 = false;
    cfg.exact_reductions = true;
    cfg.adam = adam;
    cfg.bucket_elems = 16;  // force multi-chunk flushes
    ZeroDpEngine engine(cfg, m, dp, nullptr, 42);
    for (int step = 0; step < steps; ++step) {
      (void)engine.TrainStep(RankBatch(ctx.rank, step));
    }
    gathered[static_cast<std::size_t>(ctx.rank)] = engine.GatherFullParams();
  });

  for (int r = 0; r < nd; ++r) {
    ASSERT_EQ(gathered[static_cast<std::size_t>(r)].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(gathered[static_cast<std::size_t>(r)][i], expected[i])
          << "stage=" << static_cast<int>(stage) << " rank=" << r
          << " index=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StagesAndWorlds, StageEquivalenceTest,
    ::testing::Values(StageNd{ZeroStage::kNone, 1},
                      StageNd{ZeroStage::kNone, 2},
                      StageNd{ZeroStage::kNone, 4},
                      StageNd{ZeroStage::kOs, 2}, StageNd{ZeroStage::kOs, 3},
                      StageNd{ZeroStage::kOs, 4},
                      StageNd{ZeroStage::kOsG, 2},
                      StageNd{ZeroStage::kOsG, 3},
                      StageNd{ZeroStage::kOsG, 4},
                      StageNd{ZeroStage::kOsGP, 2},
                      StageNd{ZeroStage::kOsGP, 3},
                      StageNd{ZeroStage::kOsGP, 4}));

// fp16 end-to-end on the real GPT: every ZeRO stage must track the
// baseline DDP trajectory to fp16 tolerance (ZeRO changes *where* state
// lives, never *what* is computed — Sec 2.2.3).
class Fp16StageTest : public ::testing::TestWithParam<ZeroStage> {};

TEST_P(Fp16StageTest, GptTrajectoryTracksDdpBaseline) {
  const ZeroStage stage = GetParam();
  const int nd = 2;
  const int steps = 3;
  model::GptConfig gcfg;
  gcfg.vocab = 13;
  gcfg.seq = 4;
  gcfg.hidden = 8;
  gcfg.layers = 2;
  gcfg.heads = 2;

  auto run = [&](ZeroStage s) {
    std::vector<float> params;
    std::vector<float> losses;
    comm::World world(nd);
    std::mutex mu;
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::GptModel gpt(gcfg, {});
      EngineConfig cfg;
      cfg.stage = s;
      cfg.fp16 = true;
      cfg.loss_scale = 128.0f;
      cfg.adam.lr = 1e-3f;
      ZeroDpEngine engine(cfg, gpt, dp, nullptr, 7);
      model::MarkovCorpus corpus(gcfg.vocab, 3, 91,
                                 static_cast<std::uint64_t>(ctx.rank));
      std::vector<float> local;
      for (int step = 0; step < steps; ++step) {
        local.push_back(engine.TrainStep(corpus.NextBatch(2, gcfg.seq)));
      }
      auto full = engine.GatherFullParams();
      std::lock_guard<std::mutex> lock(mu);
      if (ctx.rank == 0) {
        params = std::move(full);
        losses = std::move(local);
      }
    });
    return std::make_pair(params, losses);
  };

  auto [base_params, base_losses] = run(ZeroStage::kNone);
  auto [stage_params, stage_losses] = run(stage);

  ASSERT_EQ(base_params.size(), stage_params.size());
  double max_diff = 0;
  for (std::size_t i = 0; i < base_params.size(); ++i) {
    max_diff = std::max(
        max_diff,
        static_cast<double>(std::abs(base_params[i] - stage_params[i])));
  }
  // fp16 rounding differs with reduction bracketing; divergence after a
  // few steps stays within a few fp16 ulps of the parameter scale.
  EXPECT_LT(max_diff, 5e-3) << "stage " << static_cast<int>(stage);
  for (int s = 0; s < steps; ++s) {
    EXPECT_NEAR(base_losses[static_cast<std::size_t>(s)],
                stage_losses[static_cast<std::size_t>(s)], 5e-2f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStages, Fp16StageTest,
                         ::testing::Values(ZeroStage::kOs, ZeroStage::kOsG,
                                           ZeroStage::kOsGP));

// Sec 7: per-rank communication volume. Baseline and stages 1-2 move
// 2*Psi elements per step; stage 3 moves 3*Psi.
TEST(CommVolumeTest, MatchesSection7Analysis) {
  const int nd = 4;
  const std::int64_t numel = 4096;  // divisible by nd: padding-free
  struct Case {
    ZeroStage stage;
    double expected_factor;  // x Psi elements sent per rank
  };
  const Case cases[] = {
      {ZeroStage::kNone, 2.0},
      {ZeroStage::kOs, 2.0},
      {ZeroStage::kOsG, 2.0},
      {ZeroStage::kOsGP, 3.0},
  };
  for (const Case& c : cases) {
    std::vector<std::uint64_t> sent(static_cast<std::size_t>(nd));
    comm::World world(nd);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(numel, 8);
      EngineConfig cfg;
      cfg.stage = c.stage;
      cfg.fp16 = true;
      ZeroDpEngine engine(cfg, m, dp, nullptr, 3);
      // Skip warm-up effects: measure the second step only.
      (void)engine.TrainStep(RankBatch(ctx.rank, 0));
      const std::uint64_t before = dp.stats().bytes_sent;
      (void)engine.TrainStep(RankBatch(ctx.rank, 1));
      sent[static_cast<std::size_t>(ctx.rank)] =
          dp.stats().bytes_sent - before;
    });
    const double psi_bytes = static_cast<double>(numel) * 2;  // fp16
    for (int r = 0; r < nd; ++r) {
      const double factor =
          static_cast<double>(sent[static_cast<std::size_t>(r)]) / psi_bytes;
      // Ring collectives move (nd-1)/nd of the ideal volume; allow the
      // slack plus per-message overheads.
      EXPECT_GT(factor, c.expected_factor * 0.70)
          << "stage " << static_cast<int>(c.stage) << " rank " << r;
      EXPECT_LT(factor, c.expected_factor * 1.10)
          << "stage " << static_cast<int>(c.stage) << " rank " << r;
    }
  }
}

// Figure 1: measured per-rank model-state bytes under each stage.
TEST(ModelStateMemoryTest, MatchesFigure1Equations) {
  const int nd = 4;
  const std::int64_t numel = 1 << 14;  // divisible by nd
  const double psi = static_cast<double>(numel);
  struct Case {
    ZeroStage stage;
    double expected_bytes;
  };
  const Case cases[] = {
      {ZeroStage::kNone, 16.0 * psi},
      {ZeroStage::kOs, 4.0 * psi + 12.0 * psi / nd},
      {ZeroStage::kOsG, 2.0 * psi + 14.0 * psi / nd},
      {ZeroStage::kOsGP, 16.0 * psi / nd},
  };
  for (const Case& c : cases) {
    comm::World world(nd);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(numel, 8);
      EngineConfig cfg;
      cfg.stage = c.stage;
      cfg.fp16 = true;
      ZeroDpEngine engine(cfg, m, dp, nullptr, 3);
      const ModelStateReport r = engine.MeasureModelStates();
      EXPECT_NEAR(static_cast<double>(r.total()), c.expected_bytes,
                  0.02 * c.expected_bytes)
          << "stage " << static_cast<int>(c.stage);
    });
  }
}

// Stage 3 transient footprint: while a unit is materialized its fp16
// bytes live on the device; after release they are gone.
TEST(Stage3Test, MaterializedUnitsAreTransient) {
  const int nd = 2;
  const std::int64_t numel = 1024;
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    alloc::DeviceMemory dev(1 << 20, "r" + std::to_string(ctx.rank));
    alloc::CachingAllocator cache(dev);
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(numel, 4);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsGP;
    cfg.fp16 = true;
    ZeroDpEngine engine(cfg, m, dp, &cache, 3);
    const std::size_t resident = cache.Stats().live_bytes;
    auto span = engine.AcquireUnit(1, model::Phase::kForward);
    EXPECT_EQ(span.size(), 256u);
    EXPECT_GT(cache.Stats().live_bytes, resident);
    engine.ReleaseUnit(1, model::Phase::kForward);
    EXPECT_EQ(cache.Stats().live_bytes, resident);
  });
}

TEST(EngineTest, NestedAcquireRefcounts) {
  comm::World world(1);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(64, 2);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsGP;
    cfg.fp16 = true;
    ZeroDpEngine engine(cfg, m, dp, nullptr, 3);
    auto a = engine.AcquireUnit(0, model::Phase::kForward);
    auto b = engine.AcquireUnit(0, model::Phase::kForward);
    EXPECT_EQ(a.data(), b.data());  // same materialization
    engine.ReleaseUnit(0, model::Phase::kForward);
    engine.ReleaseUnit(0, model::Phase::kForward);
    EXPECT_THROW(engine.ReleaseUnit(0, model::Phase::kForward), Error);
  });
}

TEST(EngineTest, RejectsExactReductionsWithFp16) {
  comm::World world(1);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(64, 2);
    EngineConfig cfg;
    cfg.fp16 = true;
    cfg.exact_reductions = true;
    EXPECT_THROW(ZeroDpEngine(cfg, m, dp, nullptr, 3), ConfigError);
  });
}

TEST(EngineTest, LossDecreasesOverTrainingGpt) {
  const int nd = 2;
  model::GptConfig gcfg;
  gcfg.vocab = 13;
  gcfg.seq = 8;
  gcfg.hidden = 16;
  gcfg.layers = 2;
  gcfg.heads = 2;
  std::vector<float> first(static_cast<std::size_t>(nd)),
      last(static_cast<std::size_t>(nd));
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::GptModel gpt(gcfg, {});
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsG;
    cfg.fp16 = true;
    cfg.loss_scale = 256.0f;
    cfg.adam.lr = 3e-3f;
    ZeroDpEngine engine(cfg, gpt, dp, nullptr, 5);
    model::MarkovCorpus corpus(gcfg.vocab, 2, 7,
                               static_cast<std::uint64_t>(ctx.rank));
    const int steps = 200;
    std::vector<float> losses;
    for (int step = 0; step < steps; ++step) {
      losses.push_back(engine.TrainStep(corpus.NextBatch(8, gcfg.seq)));
    }
    float head = 0, tail = 0;
    for (int i = 0; i < 10; ++i) {
      head += losses[static_cast<std::size_t>(i)] / 10.0f;
      tail += losses[static_cast<std::size_t>(steps - 10 + i)] / 10.0f;
    }
    first[static_cast<std::size_t>(ctx.rank)] = head;
    last[static_cast<std::size_t>(ctx.rank)] = tail;
  });
  for (int r = 0; r < nd; ++r) {
    EXPECT_LT(last[static_cast<std::size_t>(r)],
              first[static_cast<std::size_t>(r)] - 0.2f);
  }
}

}  // namespace
}  // namespace zero::core
