// Checkpointing of ZeRO training state, including elastic resume at a
// different DP degree.
#include "core/state_checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>

#include "comm/world.hpp"
#include "common/error.hpp"
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

TEST(TrainingStateTest, SerializeRoundTrip) {
  TrainingState state;
  state.total_numel = 5;
  state.step_count = 42;
  state.loss_scale = 2048.0f;
  state.master = {1, 2, 3, 4, 5};
  state.momentum = {0.1f, 0.2f, 0.3f, 0.4f, 0.5f};
  state.variance = {9, 8, 7, 6, 5};
  const auto bytes = state.Serialize();
  const TrainingState back = TrainingState::Deserialize(bytes);
  EXPECT_EQ(back, state);
}

TEST(TrainingStateTest, RejectsCorruptData) {
  TrainingState state;
  state.total_numel = 2;
  state.master = {1, 2};
  state.momentum = {3, 4};
  state.variance = {5, 6};
  auto bytes = state.Serialize();
  // Truncated.
  EXPECT_THROW(TrainingState::Deserialize(
                   std::span<const std::byte>(bytes.data(), 10)),
               Error);
  // Bad magic.
  bytes[0] = static_cast<std::byte>(0xFF);
  EXPECT_THROW(TrainingState::Deserialize(bytes), Error);
}

// A header-only file whose total_numel makes 3 * numel * sizeof(float)
// wrap size_t (2^62 wraps to exactly 0) must fail the size check, not
// pass it and throw std::length_error out of the array resize.
TEST(TrainingStateTest, RejectsOverflowingNumelHeader) {
  const auto header_only = TrainingState{}.Serialize();
  ASSERT_EQ(header_only.size(), 64u);
  for (const std::int64_t numel :
       {std::int64_t{1} << 62, (std::int64_t{1} << 62) + 1,
        std::numeric_limits<std::int64_t>::max()}) {
    auto bytes = header_only;
    std::memcpy(bytes.data() + 16, &numel, sizeof(numel));  // total_numel
    try {
      (void)TrainingState::Deserialize(bytes);
      ADD_FAILURE() << "accepted total_numel " << numel;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("size does not match its header"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TrainingStateTest, FileRoundTrip) {
  TrainingState state;
  state.total_numel = 3;
  state.step_count = 7;
  state.master = {1, 2, 3};
  state.momentum = {4, 5, 6};
  state.variance = {7, 8, 9};
  const std::string path = "/tmp/zero_ckpt_test.bin";
  state.SaveToFile(path);
  EXPECT_EQ(TrainingState::LoadFromFile(path), state);
  std::remove(path.c_str());
}

// A save that fails before its rename throws and leaves the previous
// checkpoint whole; a save that succeeds leaves no temp file behind.
TEST(TrainingStateTest, FailedSaveKeepsPreviousCheckpoint) {
  TrainingState a;
  a.total_numel = 3;
  a.step_count = 7;
  a.master = {1, 2, 3};
  a.momentum = {4, 5, 6};
  a.variance = {7, 8, 9};
  TrainingState b = a;
  b.step_count = 8;
  b.master = {-1, -2, -3};
  const std::string path = "/tmp/zero_ckpt_crash_safe_test.bin";
  const std::string tmp = path + ".tmp";
  std::filesystem::remove_all(tmp);
  a.SaveToFile(path);
  EXPECT_FALSE(std::filesystem::exists(tmp));

  // A directory where the temp file goes makes the save fail at open.
  std::filesystem::create_directory(tmp);
  EXPECT_THROW(b.SaveToFile(path), Error);
  const std::vector<std::byte> want = a.Serialize();
  const std::vector<std::byte> got =
      TrainingState::LoadFromFile(path).Serialize();
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size()), 0);

  std::filesystem::remove_all(tmp);
  b.SaveToFile(path);
  EXPECT_EQ(TrainingState::LoadFromFile(path), b);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::remove(path.c_str());
}

class ExportImportTest : public ::testing::TestWithParam<ZeroStage> {};

TEST_P(ExportImportTest, ResumeContinuesTrajectoryBitwise) {
  const ZeroStage stage = GetParam();
  const std::int64_t numel = 101;
  const int nd = 3;
  const int pre_steps = 2;
  const int post_steps = 3;
  optim::AdamConfig adam;
  adam.lr = 0.05f;

  auto make_cfg = [&] {
    EngineConfig cfg;
    cfg.stage = stage;
    cfg.fp16 = false;
    cfg.exact_reductions = true;
    cfg.adam = adam;
    return cfg;
  };

  // Uninterrupted run.
  std::vector<float> uninterrupted;
  {
    comm::World world(nd);
    std::mutex mu;
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(numel, 4);
      ZeroDpEngine engine(make_cfg(), m, dp, nullptr, 1);
      for (int s = 0; s < pre_steps + post_steps; ++s) {
        (void)engine.TrainStep(RankBatch(ctx.rank, s));
      }
      auto p = engine.GatherFullParams();
      std::lock_guard<std::mutex> lock(mu);
      if (ctx.rank == 0) uninterrupted = std::move(p);
    });
  }

  // Save after pre_steps, resume into a fresh engine, finish.
  TrainingState saved;
  {
    comm::World world(nd);
    std::mutex mu;
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(numel, 4);
      ZeroDpEngine engine(make_cfg(), m, dp, nullptr, 1);
      for (int s = 0; s < pre_steps; ++s) {
        (void)engine.TrainStep(RankBatch(ctx.rank, s));
      }
      TrainingState state = engine.ExportState();
      std::lock_guard<std::mutex> lock(mu);
      if (ctx.rank == 0) saved = std::move(state);
    });
  }
  EXPECT_EQ(saved.step_count, pre_steps);

  std::vector<float> resumed;
  {
    comm::World world(nd);
    std::mutex mu;
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(numel, 4);
      // Different seed: everything is overwritten by the import.
      ZeroDpEngine engine(make_cfg(), m, dp, nullptr, 999);
      engine.ImportState(saved);
      EXPECT_EQ(engine.steps_taken(), pre_steps);
      for (int s = pre_steps; s < pre_steps + post_steps; ++s) {
        (void)engine.TrainStep(RankBatch(ctx.rank, s));
      }
      auto p = engine.GatherFullParams();
      std::lock_guard<std::mutex> lock(mu);
      if (ctx.rank == 0) resumed = std::move(p);
    });
  }

  ASSERT_EQ(resumed.size(), uninterrupted.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    ASSERT_EQ(resumed[i], uninterrupted[i])
        << "stage " << static_cast<int>(stage) << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStages, ExportImportTest,
                         ::testing::Values(ZeroStage::kNone, ZeroStage::kOs,
                                           ZeroStage::kOsG,
                                           ZeroStage::kOsGP));

TEST(ElasticResumeTest, SavedAtNd4ResumesAtNd2) {
  // The exported state is Nd-independent, so resharding works. The
  // reference is computed with the matching per-phase DP degrees.
  const std::int64_t numel = 97;
  optim::AdamConfig adam;
  adam.lr = 0.05f;

  auto make_cfg = [&](ZeroStage stage) {
    EngineConfig cfg;
    cfg.stage = stage;
    cfg.fp16 = false;
    cfg.exact_reductions = true;
    cfg.adam = adam;
    return cfg;
  };

  // Phase 1: 2 steps at Nd = 4, stage 3.
  TrainingState saved;
  {
    comm::World world(4);
    std::mutex mu;
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(numel, 4);
      ZeroDpEngine engine(make_cfg(ZeroStage::kOsGP), m, dp, nullptr, 1);
      (void)engine.TrainStep(RankBatch(ctx.rank, 0));
      (void)engine.TrainStep(RankBatch(ctx.rank, 1));
      TrainingState state = engine.ExportState();
      std::lock_guard<std::mutex> lock(mu);
      if (ctx.rank == 0) saved = std::move(state);
    });
  }

  // Phase 2: resume at Nd = 2 under a *different stage* too (stage 2).
  std::vector<float> resumed;
  {
    comm::World world(2);
    std::mutex mu;
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(numel, 4);
      ZeroDpEngine engine(make_cfg(ZeroStage::kOsG), m, dp, nullptr, 7);
      engine.ImportState(saved);
      (void)engine.TrainStep(RankBatch(ctx.rank, 2));
      auto p = engine.GatherFullParams();
      std::lock_guard<std::mutex> lock(mu);
      if (ctx.rank == 0) resumed = std::move(p);
    });
  }

  // Reference: 2 steps averaging 4 rank-batches, then 1 step averaging 2.
  model::QuadModel m(numel, 4);
  std::vector<float> params(static_cast<std::size_t>(numel));
  m.InitParameters(params, 1);
  std::vector<float> mom(params.size(), 0.0f), var(params.size(), 0.0f);
  int t = 0;
  for (int step = 0; step < 3; ++step) {
    const int nd = step < 2 ? 4 : 2;
    std::vector<float> sum(params.size(), 0.0f);
    for (int r = 0; r < nd; ++r) {
      std::vector<float> g(params.size(), 0.0f);
      model::DirectParamProvider provider(m.layout(), params);
      model::AccumulatingGradSink sink(m.layout(), g);
      (void)m.Step(RankBatch(r, step), provider, sink);
      for (std::size_t i = 0; i < g.size(); ++i) sum[i] += g[i];
    }
    for (float& g : sum) g *= 1.0f / static_cast<float>(nd);
    optim::AdamUpdate(adam, ++t, params, sum, mom, var);
  }

  ASSERT_EQ(resumed.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(resumed[i], params[i]) << "i=" << i;
  }
}

TEST(ExportImportTest2, ExportIdenticalOnAllRanks) {
  const int nd = 3;
  std::vector<TrainingState> states(static_cast<std::size_t>(nd));
  comm::World world(nd);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(64, 4);
    EngineConfig cfg;
    cfg.stage = ZeroStage::kOsG;
    cfg.fp16 = true;
    ZeroDpEngine engine(cfg, m, dp, nullptr, 3);
    (void)engine.TrainStep(RankBatch(ctx.rank, 0));
    states[static_cast<std::size_t>(ctx.rank)] = engine.ExportState();
  });
  for (int r = 1; r < nd; ++r) {
    EXPECT_EQ(states[0], states[static_cast<std::size_t>(r)]);
  }
}

TEST(ExportImportTest2, RejectsWrongModelSize) {
  comm::World world(1);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
    model::QuadModel m(64, 4);
    EngineConfig cfg;
    cfg.fp16 = true;
    ZeroDpEngine engine(cfg, m, dp, nullptr, 3);
    TrainingState wrong;
    wrong.total_numel = 65;
    wrong.master.resize(65);
    wrong.momentum.resize(65);
    wrong.variance.resize(65);
    EXPECT_THROW(engine.ImportState(wrong), Error);
  });
}

}  // namespace
}  // namespace zero::core
