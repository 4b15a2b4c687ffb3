// Trainer-level fault wiring: periodic elastic checkpoints, the
// fault_spec injection path (ZERO_FAULT reaches it only through
// ApplyEnv), and failure reporting in TrainResult.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "core/state_checkpoint.hpp"
#include "core/trainer.hpp"
#include "scoped_env.hpp"

namespace zero::core {
namespace {

TrainOptions SmallOptions() {
  TrainOptions opts;
  opts.model.vocab = 13;
  opts.model.seq = 4;
  opts.model.hidden = 8;
  opts.model.layers = 1;
  opts.model.heads = 2;
  opts.engine.stage = model::ZeroStage::kOsG;
  opts.engine.fp16 = true;
  opts.engine.loss_scale = 64.0f;
  opts.cluster.dp_degree = 2;
  opts.batch_per_rank = 1;
  opts.steps = 4;
  opts.seed = 9;
  return opts;
}

TEST(TrainerFaultTest, PeriodicCheckpointingWritesElasticState) {
  const std::string path = testing::TempDir() + "zero_trainer_ckpt.bin";
  TrainOptions opts = SmallOptions();
  opts.engine.checkpoint_every_n_steps = 2;
  opts.engine.checkpoint_path = path;

  const TrainResult result = TrainGpt(opts);
  ASSERT_FALSE(result.failed) << result.failure_message;
  ASSERT_EQ(result.losses.size(), 4u);

  const TrainingState state = TrainingState::LoadFromFile(path);
  EXPECT_EQ(state.step_count, 4);  // latest-wins: the step-4 snapshot
  EXPECT_GT(state.total_numel, 0);
  EXPECT_EQ(state.master.size(), state.momentum.size());
  std::remove(path.c_str());
}

TEST(TrainerFaultTest, InjectedCrashIsReportedNotThrown) {
  TrainOptions opts = SmallOptions();
  opts.engine.fault_spec = "crash@1:step#2";
  opts.engine.comm_deadline_ms = 100;

  const TrainResult result = TrainGpt(opts);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.failure_message.find("injected crash"), std::string::npos)
      << result.failure_message;
  EXPECT_TRUE(result.losses.empty());
}

TEST(TrainerFaultTest, HangIsDetectedAndReported) {
  TrainOptions opts = SmallOptions();
  opts.engine.fault_spec = "hang@0:collective#4=10s";
  opts.engine.comm_deadline_ms = 50;

  const TrainResult result = TrainGpt(opts);
  EXPECT_TRUE(result.failed);
  EXPECT_FALSE(result.failure_message.empty());
}

TEST(TrainerFaultTest, EnvSpecDrivesInjection) {
  test::ScopedEnv fault("ZERO_FAULT", "crash@0:step#1");
  TrainOptions opts = SmallOptions();
  opts.engine.comm_deadline_ms = 100;
  ApplyEnv(opts.engine);
  const TrainResult result = TrainGpt(opts);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.failure_message.find("injected crash"), std::string::npos);
}

TEST(TrainerFaultTest, TrainGptIgnoresEnvironment) {
  const TrainResult clean = [] {
    test::ScopedEnv fault("ZERO_FAULT", nullptr);
    test::ScopedEnv prefetch("ZERO_PREFETCH", nullptr);
    test::ScopedEnv qwz("ZERO_QWZ", nullptr);
    return TrainGpt(SmallOptions());
  }();
  ASSERT_FALSE(clean.failed) << clean.failure_message;

  // A crash, a malformed knob and a compression switch: read by nobody
  // unless a binary calls ApplyEnv.
  test::ScopedEnv fault("ZERO_FAULT", "crash@0:step#1");
  test::ScopedEnv prefetch("ZERO_PREFETCH", "abc");
  test::ScopedEnv qwz("ZERO_QWZ", "1");
  const TrainResult dirty = TrainGpt(SmallOptions());
  ASSERT_FALSE(dirty.failed) << dirty.failure_message;
  ASSERT_EQ(dirty.losses.size(), clean.losses.size());
  for (std::size_t i = 0; i < clean.losses.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(dirty.losses[i]),
              std::bit_cast<std::uint32_t>(clean.losses[i]))
        << "step " << i;
  }
}

TEST(TrainerFaultTest, RunWithoutFaultConfigIsUnchanged) {
  const TrainResult result = TrainGpt(SmallOptions());
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.losses.size(), 4u);
}

}  // namespace
}  // namespace zero::core
