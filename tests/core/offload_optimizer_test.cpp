// Optimizer-state offload (EngineConfig::offload_tier = kHost): the K*Psi/Nd
// fp32 state moves to host memory without changing a single computed bit.
#include <gtest/gtest.h>

#include "comm/world.hpp"
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

TEST(OffloadOptimizerTest, TrajectoryIsBitwiseIdentical) {
  // Offload changes where the state lives, not the arithmetic.
  const int nd = 2;
  const std::int64_t numel = 101;
  auto run = [&](bool offload) {
    std::vector<float> out;
    std::mutex mu;
    comm::World world(nd);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(numel, 4);
      EngineConfig cfg;
      cfg.stage = ZeroStage::kOsG;
      cfg.fp16 = true;
      if (offload) cfg.offload_tier = alloc::TierKind::kHost;
      ZeroDpEngine engine(cfg, m, dp, nullptr, 3);
      for (int s = 0; s < 4; ++s) {
        (void)engine.TrainStep(MakeBatch(ctx.rank, s));
      }
      auto p = engine.GatherFullParams();
      std::lock_guard<std::mutex> lock(mu);
      if (ctx.rank == 0) out = std::move(p);
    });
    return out;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(OffloadOptimizerTest, DeviceMemoryDropsByK) {
  const int nd = 2;
  const std::int64_t numel = 1 << 12;
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(numel, 4);

    alloc::DeviceMemory dev_a(4ull << 20, "plain");
    alloc::CachingAllocator cache_a(dev_a);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsG;
    cfg.fp16 = true;
    ZeroDpEngine plain(cfg, m, dp, &cache_a, 3);

    alloc::DeviceMemory dev_b(4ull << 20, "offload");
    alloc::CachingAllocator cache_b(dev_b);
    cfg.offload_tier = alloc::TierKind::kHost;
    ZeroDpEngine offloaded(cfg, m, dp, &cache_b, 3);

    const std::size_t shard = static_cast<std::size_t>(numel) / nd;
    const std::size_t k_bytes = 12u * shard;
    EXPECT_GE(dev_a.Stats().in_use, dev_b.Stats().in_use + k_bytes);

    const ModelStateReport r = offloaded.MeasureModelStates();
    EXPECT_TRUE(r.optimizer_on_host);
    EXPECT_EQ(r.device_total(), r.param_bytes + r.grad_bytes);
    EXPECT_EQ(plain.MeasureModelStates().device_total(),
              plain.MeasureModelStates().total());
  });
}

TEST(OffloadOptimizerTest, TransferAccountingPerStep) {
  const int nd = 2;
  const std::int64_t numel = 1 << 10;
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(numel, 4);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsG;
    cfg.fp16 = true;
    cfg.offload_tier = alloc::TierKind::kHost;
    ZeroDpEngine engine(cfg, m, dp, nullptr, 3);
    EXPECT_EQ(engine.optimizer_transfer_bytes(), 0u);
    (void)engine.TrainStep(MakeBatch(ctx.rank, 0));
    // Shard of 512 fp16 elements: 2 bytes each, in and out.
    EXPECT_EQ(engine.optimizer_transfer_bytes(), 512u * 2u * 2u);
    (void)engine.TrainStep(MakeBatch(ctx.rank, 1));
    EXPECT_EQ(engine.optimizer_transfer_bytes(), 2u * 512u * 2u * 2u);
  });
}

TEST(OffloadOptimizerTest, ComposesWithAccumulationAndCheckpointing) {
  const int nd = 2;
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(100, 4);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsGP;
    cfg.fp16 = true;
    cfg.offload_tier = alloc::TierKind::kHost;
    cfg.accumulation_steps = 2;
    ZeroDpEngine engine(cfg, m, dp, nullptr, 3);
    for (int s = 0; s < 4; ++s) {
      (void)engine.TrainStep(MakeBatch(ctx.rank, s));
    }
    EXPECT_EQ(engine.steps_taken(), 2);  // 4 micro-steps, 2 updates
    // Exported state round-trips even though it lives on the host.
    const TrainingState state = engine.ExportState();
    EXPECT_EQ(state.step_count, 2);
    engine.ImportState(state);
    (void)engine.TrainStep(MakeBatch(ctx.rank, 9));
  });
}

}  // namespace
}  // namespace zero::core
