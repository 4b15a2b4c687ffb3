// Edge cases of the ZeRO-DP engine: degenerate partition shapes, device
// capacity boundaries, and protocol misuse.
#include <gtest/gtest.h>

#include <string>

#include "comm/world.hpp"
#include "common/error.hpp"
#include "core/dp_engine.hpp"
#include "model/quad_model.hpp"

namespace zero::core {
namespace {

using model::Batch;
using model::ZeroStage;

Batch MakeBatch(int rank, int step) {
  Batch b;
  b.rows = 1;
  b.cols = 4;
  for (int i = 0; i < 4; ++i) {
    b.inputs.push_back(rank * 31 + step * 7 + i);
    b.targets.push_back(0);
  }
  return b;
}

// Fewer parameters than ranks: most partitions are pure padding, some
// units may be single elements.
TEST(EngineEdgeTest, ModelSmallerThanWorld) {
  const int nd = 8;
  const std::int64_t numel = 3;
  for (ZeroStage stage : {ZeroStage::kOs, ZeroStage::kOsG,
                          ZeroStage::kOsGP}) {
    std::vector<std::vector<float>> gathered(static_cast<std::size_t>(nd));
    comm::World world(nd);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(numel, 2);
      EngineConfig cfg;
      cfg.stage = stage;
      cfg.fp16 = true;
      ZeroDpEngine engine(cfg, m, dp, nullptr, 1);
      for (int s = 0; s < 3; ++s) {
        (void)engine.TrainStep(MakeBatch(ctx.rank, s));
      }
      gathered[static_cast<std::size_t>(ctx.rank)] =
          engine.GatherFullParams();
    });
    for (int r = 1; r < nd; ++r) {
      EXPECT_EQ(gathered[0], gathered[static_cast<std::size_t>(r)])
          << "stage " << static_cast<int>(stage);
    }
  }
}

TEST(EngineEdgeTest, SingleUnitModel) {
  // One unit spanning every partition exercises the multi-partition
  // bucketizer path in a single emission.
  const int nd = 4;
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(257, 1);  // prime, one unit
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsG;
    cfg.fp16 = true;
    cfg.bucket_elems = 8;
    ZeroDpEngine engine(cfg, m, dp, nullptr, 1);
    const float first = engine.TrainStep(MakeBatch(ctx.rank, 0));
    const float second = engine.TrainStep(MakeBatch(ctx.rank, 0));
    EXPECT_LT(second, first);  // repeated batch: loss strictly improves
  });
}

TEST(EngineEdgeTest, SingleRankWorldAllStages) {
  // Nd = 1: all collectives degenerate; every stage must still work and
  // agree exactly with each other (no communication, no partitioning).
  std::vector<std::vector<float>> results;
  for (ZeroStage stage : {ZeroStage::kNone, ZeroStage::kOs,
                          ZeroStage::kOsG, ZeroStage::kOsGP}) {
    comm::World world(1);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(64, 4);
      EngineConfig cfg;
      cfg.stage = stage;
      cfg.fp16 = false;
      ZeroDpEngine engine(cfg, m, dp, nullptr, 4);
      for (int s = 0; s < 3; ++s) {
        (void)engine.TrainStep(MakeBatch(0, s));
      }
      results.push_back(engine.GatherFullParams());
    });
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]) << "stage index " << i;
  }
}

TEST(EngineEdgeTest, DeviceBackedTrainingRespectsCapacity) {
  // The whole engine state fits in a measured budget, and the same
  // config on a too-small device OOMs symmetrically on every rank.
  const int nd = 2;
  const std::int64_t numel = 4096;
  // Model states (stage 2): 2*psi params + (2+12)*psi/2 per rank ~= 36KB.
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    alloc::DeviceMemory dev(256ull << 10, "edge");
    alloc::CachingAllocator cache(dev);
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(numel, 4);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsG;
    cfg.fp16 = true;
    ZeroDpEngine engine(cfg, m, dp, &cache, 1);
    (void)engine.TrainStep(MakeBatch(ctx.rank, 0));
    const ModelStateReport report = engine.MeasureModelStates();
    EXPECT_LE(report.total(), dev.Stats().peak_in_use);
  });

  comm::World world2(nd);
  world2.Run([&](comm::RankContext& ctx) {
    alloc::DeviceMemory dev(8ull << 10, "tiny");
    alloc::CachingAllocator cache(dev);
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(numel, 4);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsG;
    cfg.fp16 = true;
    EXPECT_THROW(ZeroDpEngine(cfg, m, dp, &cache, 1), DeviceOomError);
  });
}

TEST(EngineEdgeTest, BucketSizeOneStillCorrect) {
  const int nd = 2;
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(64, 4);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsGP;
    cfg.fp16 = false;
    cfg.exact_reductions = true;
    cfg.bucket_elems = 1;  // one element per fused message
    ZeroDpEngine engine(cfg, m, dp, nullptr, 4);
    const float l0 = engine.TrainStep(MakeBatch(ctx.rank, 0));
    const float l1 = engine.TrainStep(MakeBatch(ctx.rank, 0));
    EXPECT_LT(l1, l0);
  });
}

// ValidateEngineConfig runs first in the engine's constructor: a config
// no engine can run throws ConfigError naming the offending field.
void ExpectConfigError(const EngineConfig& cfg, const std::string& field) {
  comm::World world(1);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(8, 2);
    try {
      ZeroDpEngine engine(cfg, m, dp, nullptr, 1);
      ADD_FAILURE() << "expected ConfigError naming " << field;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  });
}

TEST(EngineEdgeTest, RejectsZeroBucket) {
  EngineConfig cfg;
  cfg.bucket_elems = 0;
  ExpectConfigError(cfg, "bucket_elems");
}

TEST(EngineEdgeTest, RejectsNonPositiveAccumulationSteps) {
  // ApplyUpdate divides by accumulation_steps: 0 would turn every
  // parameter NaN, and a negative count would flip the update's sign.
  for (int steps : {0, -1}) {
    EngineConfig cfg;
    cfg.accumulation_steps = steps;
    ExpectConfigError(cfg, "accumulation_steps");
  }
}

TEST(EngineEdgeTest, RejectsNegativePrefetchLookahead) {
  EngineConfig cfg;
  cfg.stage = ZeroStage::kOsGP;
  cfg.prefetch_lookahead = -1;
  ExpectConfigError(cfg, "prefetch_lookahead");
}

TEST(EngineEdgeTest, RejectsDynamicLossScaleInFp32) {
  EngineConfig cfg;
  cfg.fp16 = false;
  cfg.dynamic_loss_scale = true;
  ExpectConfigError(cfg, "dynamic_loss_scale");
}

TEST(EngineEdgeTest, ManyUnitsPerPartition) {
  // Units much smaller than partitions: many emissions before a single
  // flush; coverage bookkeeping must fire exactly at the boundary.
  const int nd = 2;
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(96, 24);  // 24 units, 2 partitions of 48
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsG;
    cfg.fp16 = true;
    ZeroDpEngine engine(cfg, m, dp, nullptr, 9);
    for (int s = 0; s < 2; ++s) {
      (void)engine.TrainStep(MakeBatch(ctx.rank, s));
    }
    EXPECT_EQ(engine.steps_taken(), 2);
  });
}

}  // namespace
}  // namespace zero::core
