#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace zero::core {
namespace {

TrainOptions SmallOptions() {
  TrainOptions opt;
  opt.model.vocab = 13;
  opt.model.seq = 4;
  opt.model.hidden = 8;
  opt.model.layers = 2;
  opt.model.heads = 2;
  opt.engine.stage = model::ZeroStage::kOsG;
  opt.engine.loss_scale = 128.0f;
  opt.cluster.dp_degree = 2;
  opt.cluster.mp_degree = 1;
  opt.cluster.device_capacity_bytes = 32ull << 20;
  opt.batch_per_rank = 2;
  opt.steps = 2;
  return opt;
}

TEST(TrainerTest, RunsAllStagesToCompletion) {
  for (model::ZeroStage stage :
       {model::ZeroStage::kNone, model::ZeroStage::kOs,
        model::ZeroStage::kOsG, model::ZeroStage::kOsGP}) {
    TrainOptions opt = SmallOptions();
    opt.engine.stage = stage;
    TrainResult result = TrainGpt(opt);
    ASSERT_FALSE(result.oom) << result.oom_message;
    ASSERT_EQ(result.losses.size(), 2u);
    EXPECT_GT(result.final_loss(), 0.0f);
    EXPECT_EQ(result.ranks.size(), 2u);
  }
}

TEST(TrainerTest, DeterministicAcrossRuns) {
  TrainOptions opt = SmallOptions();
  TrainResult a = TrainGpt(opt);
  TrainResult b = TrainGpt(opt);
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_EQ(a.losses[i], b.losses[i]);
  }
  EXPECT_EQ(a.MaxPeakCached(), b.MaxPeakCached());
}

// The reported loss is the DP mean of the ranks' losses, summed in rank
// order: at dp = 4 the float sum's last bits would otherwise follow the
// order in which rank threads finish. A straggler on rank 0's or on
// rank 3's last step changes that order, not the reported losses.
TEST(TrainerTest, DpMeanLossIndependentOfRankCompletionOrder) {
  std::vector<std::vector<float>> runs;
  for (const char* spec : {"slow@0:step#4=30ms", "slow@3:step#4=30ms"}) {
    TrainOptions opt = SmallOptions();
    opt.model.vocab = 61;
    opt.model.hidden = 16;
    opt.cluster.dp_degree = 4;
    opt.steps = 4;
    opt.engine.fault_spec = spec;
    const TrainResult result = TrainGpt(opt);
    ASSERT_FALSE(result.failed) << result.failure_message;
    ASSERT_EQ(result.losses.size(), 4u);
    runs.push_back(result.losses);
  }
  EXPECT_EQ(std::memcmp(runs[0].data(), runs[1].data(),
                        runs[0].size() * sizeof(float)),
            0);
}

TEST(TrainerTest, MpTimesDpGrid) {
  TrainOptions opt = SmallOptions();
  opt.model.heads = 2;
  opt.model.hidden = 8;
  opt.cluster.dp_degree = 2;
  opt.cluster.mp_degree = 2;
  opt.zero_r.activation_checkpointing = true;
  opt.zero_r.partition_activations = true;
  TrainResult result = TrainGpt(opt);
  ASSERT_FALSE(result.oom) << result.oom_message;
  EXPECT_EQ(result.ranks.size(), 4u);
  EXPECT_GT(result.TotalMpBytesSent(), 0u);
  EXPECT_GT(result.TotalDpBytesSent(), 0u);
}

TEST(TrainerTest, ZeroRCombinationsRun) {
  struct Combo {
    bool ckpt, pa, cpu, md;
  };
  const Combo combos[] = {
      {true, false, false, false},
      {true, true, false, false},
      {true, true, true, false},
      {true, false, false, true},
      {true, true, false, true},
  };
  for (const Combo& c : combos) {
    TrainOptions opt = SmallOptions();
    opt.cluster.mp_degree = 2;
    opt.cluster.dp_degree = 1;
    opt.zero_r.activation_checkpointing = c.ckpt;
    opt.zero_r.partition_activations = c.pa;
    opt.zero_r.cpu_offload = c.cpu;
    opt.zero_r.defrag_arena = c.md;
    opt.zero_r.arena_bytes = 1ull << 20;
    TrainResult result = TrainGpt(opt);
    ASSERT_FALSE(result.oom)
        << "pa=" << c.pa << " cpu=" << c.cpu << " md=" << c.md << ": "
        << result.oom_message;
    if (c.cpu) {
      EXPECT_GT(result.ranks[0].host.bytes_to_host, 0u);
    }
  }
}

TEST(TrainerTest, ValidationLossesCollectedWhenEnabled) {
  TrainOptions opt = SmallOptions();
  opt.steps = 4;
  opt.eval_every = 2;
  opt.eval_batches = 2;
  const TrainResult result = TrainGpt(opt);
  ASSERT_FALSE(result.oom) << result.oom_message;
  ASSERT_EQ(result.validation_losses.size(), 2u);  // after steps 2 and 4
  for (float v : result.validation_losses) {
    EXPECT_GT(v, 0.0f);
    EXPECT_LT(v, 10.0f);
  }
  // Disabled by default.
  opt.eval_every = 0;
  EXPECT_TRUE(TrainGpt(opt).validation_losses.empty());
}

TEST(TrainerTest, ValidationRunsUnderStage3AndMp) {
  // EvalLoss is collective for stage 3; the trainer must keep all ranks
  // (including MP peers) in lockstep through the eval points.
  TrainOptions opt = SmallOptions();
  opt.engine.stage = model::ZeroStage::kOsGP;
  opt.cluster.mp_degree = 2;
  opt.zero_r.activation_checkpointing = true;
  opt.steps = 2;
  opt.eval_every = 1;
  const TrainResult result = TrainGpt(opt);
  ASSERT_FALSE(result.oom) << result.oom_message;
  EXPECT_EQ(result.validation_losses.size(), 2u);
}

TEST(TrainerTest, InvalidZeroRCombosRejected) {
  TrainOptions opt = SmallOptions();
  opt.zero_r.partition_activations = true;  // without checkpointing
  EXPECT_THROW(TrainGpt(opt), Error);
}

TEST(TrainerTest, OomIsReportedNotThrown) {
  TrainOptions opt = SmallOptions();
  opt.cluster.device_capacity_bytes = 2 << 10;  // absurdly small
  TrainResult result = TrainGpt(opt);
  EXPECT_TRUE(result.oom);
  EXPECT_FALSE(result.oom_message.empty());
  EXPECT_TRUE(result.losses.empty());
}

TEST(TrainerTest, HigherStageUsesLessModelStateMemory) {
  TrainOptions opt = SmallOptions();
  opt.cluster.dp_degree = 4;
  opt.batch_per_rank = 1;

  std::size_t mem[4];
  int idx = 0;
  for (model::ZeroStage stage :
       {model::ZeroStage::kNone, model::ZeroStage::kOs,
        model::ZeroStage::kOsG, model::ZeroStage::kOsGP}) {
    opt.engine.stage = stage;
    TrainResult result = TrainGpt(opt);
    ASSERT_FALSE(result.oom);
    mem[idx++] = result.ranks[0].model_states.total();
  }
  EXPECT_GT(mem[0], mem[1]);
  EXPECT_GT(mem[1], mem[2]);
  EXPECT_GT(mem[2], mem[3]);
  // Stage 3 at Nd = 4 is ~4x smaller than baseline.
  EXPECT_NEAR(static_cast<double>(mem[0]) / static_cast<double>(mem[3]), 4.0,
              0.4);
}

}  // namespace
}  // namespace zero::core
