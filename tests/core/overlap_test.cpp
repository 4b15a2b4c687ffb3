// Stage-3 parameter prefetch (core/stages/param_prefetcher.hpp) must be
// a pure latency optimization: every trajectory it produces — losses,
// fp16 parameters, fp32 master state — must be bit-identical to
// lookahead 0 (each unit gathered at its claim) at every lookahead
// depth, under every ZeRO++ parameter path, in every precision mode,
// under accumulation, and when the memory budget forces every claim to
// gather on the spot.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "alloc/caching_allocator.hpp"
#include "alloc/device_memory.hpp"
#include "comm/world.hpp"
#include "core/dp_engine.hpp"
#include "model/checkpoint_store.hpp"
#include "model/gpt.hpp"
#include "model/quad_model.hpp"
#include "obs/metrics.hpp"

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

struct Trajectory {
  std::vector<float> losses;   // rank 0's per-step losses
  TrainingState state;         // reassembled full training state
  friend bool operator==(const Trajectory&, const Trajectory&) = default;
};

// Runs `steps` training steps on an nd-rank world and returns rank 0's
// loss sequence plus the exported (Nd-independent) training state.
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

// The ZeRO++ parameter paths a stage-3 gather can take: qwZ changes the
// wire format of global gathers, hpZ serves backward gathers from the
// intra-node secondary shard the forward gathers captured.
struct ZeroppFlags {
  const char* name;
  bool qwz;
  bool hpz;
};

void PrintTo(const ZeroppFlags& flags, std::ostream* os) { *os << flags.name; }

EngineConfig Stage3Fp16(ZeroppFlags flags) {
  EngineConfig cfg;
  cfg.stage = ZeroStage::kOsGP;
  cfg.fp16 = true;
  cfg.bucket_elems = 16;
  cfg.qwz = flags.qwz;
  cfg.hpz = flags.hpz;
  cfg.ranks_per_node = 2;
  return cfg;
}

class PrefetchLookaheadTest
    : public ::testing::TestWithParam<std::tuple<int, ZeroppFlags>> {};

TEST_P(PrefetchLookaheadTest, Stage3Fp16BitExactVsBlocking) {
  // Lookahead 0 gathers every unit at its claim; deeper pipelines must
  // deliver the same bytes. Under hpZ this pins the capture-before-
  // local-launch rule: a backward gather launched ahead of the forward
  // capture would read the secondary shard from before the update.
  const auto [lookahead, flags] = GetParam();
  EngineConfig cfg = Stage3Fp16(flags);
  const Trajectory blocking = RunTraining(cfg, 4, 5, 131, 5, 7);
  cfg.prefetch_lookahead = lookahead;
  const Trajectory prefetched = RunTraining(cfg, 4, 5, 131, 5, 7);
  EXPECT_EQ(prefetched.losses, blocking.losses);
  EXPECT_EQ(prefetched.state, blocking.state);
}

INSTANTIATE_TEST_SUITE_P(
    Lookaheads, PrefetchLookaheadTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(ZeroppFlags{"plain", false, false},
                                         ZeroppFlags{"qwz", true, false},
                                         ZeroppFlags{"hpz", false, true},
                                         ZeroppFlags{"qwz_hpz", true, true})),
    [](const ::testing::TestParamInfo<PrefetchLookaheadTest::ParamType>& p) {
      return std::to_string(std::get<0>(p.param)) + "_" +
             std::get<1>(p.param).name;
    });

TEST(PrefetchTest, HpzAtLookahead0BitExactVsPlainStage3) {
  // The secondary shard holds exact copies of what the forward gathers
  // delivered, so serving backward gathers from it changes no bits.
  for (const bool qwz : {false, true}) {
    const Trajectory plain =
        RunTraining(Stage3Fp16({"", qwz, false}), 4, 5, 131, 5, 7);
    const Trajectory hpz =
        RunTraining(Stage3Fp16({"", qwz, true}), 4, 5, 131, 5, 7);
    EXPECT_EQ(hpz.losses, plain.losses) << "qwz=" << qwz;
    EXPECT_EQ(hpz.state, plain.state) << "qwz=" << qwz;
  }
}

TEST(PrefetchTest, AllStagesUnaffectedByPrefetchConfig) {
  // prefetch_lookahead is a stage-3 knob; setting it on any stage must
  // never change the trajectory.
  for (ZeroStage stage : {ZeroStage::kNone, ZeroStage::kOs, ZeroStage::kOsG,
                          ZeroStage::kOsGP}) {
    EngineConfig cfg;
    cfg.stage = stage;
    cfg.fp16 = true;
    const Trajectory blocking = RunTraining(cfg, 2, 3, 97, 4, 11);
    cfg.prefetch_lookahead = 2;
    const Trajectory prefetched = RunTraining(cfg, 2, 3, 97, 4, 11);
    EXPECT_EQ(prefetched.losses, blocking.losses)
        << "stage=" << static_cast<int>(stage);
    EXPECT_EQ(prefetched.state, blocking.state)
        << "stage=" << static_cast<int>(stage);
  }
}

TEST(PrefetchTest, Fp32ExactReductionsBitExact) {
  EngineConfig cfg;
  cfg.stage = ZeroStage::kOsGP;
  cfg.fp16 = false;
  cfg.exact_reductions = true;
  cfg.bucket_elems = 16;
  const Trajectory blocking = RunTraining(cfg, 3, 4, 131, 5, 42);
  cfg.prefetch_lookahead = 2;
  const Trajectory prefetched = RunTraining(cfg, 3, 4, 131, 5, 42);
  EXPECT_EQ(prefetched.losses, blocking.losses);
  EXPECT_EQ(prefetched.state, blocking.state);
}

TEST(PrefetchTest, AccumulationBitExact) {
  EngineConfig cfg;
  cfg.stage = ZeroStage::kOsGP;
  cfg.fp16 = true;
  cfg.accumulation_steps = 2;
  const Trajectory blocking = RunTraining(cfg, 2, 6, 97, 4, 5);
  cfg.prefetch_lookahead = 2;
  const Trajectory prefetched = RunTraining(cfg, 2, 6, 97, 4, 5);
  EXPECT_EQ(prefetched.losses, blocking.losses);
  EXPECT_EQ(prefetched.state, blocking.state);
}

TEST(PrefetchTest, TinyBudgetDegradesToBlockingAndStaysExact) {
  // The budget is half the group-wide minimum free device memory, agreed
  // at the first replayed step. After step 0, ballast allocations leave
  // each rank's device with 1.5 units free: the budget then fits no
  // unit, every replay claim becomes a miss launched on the spot, and
  // the trajectory must stay bit-exact.
  constexpr std::int64_t kUnitElems = 1024;  // 2 KiB fp16 units
  constexpr int kUnits = 4;
  constexpr std::size_t kUnitBytes = kUnitElems * sizeof(Half);
  const std::size_t target = alloc::DeviceMemory::AlignUp(kUnitBytes * 3 / 2);
  auto run = [&](int lookahead) {
    Trajectory out;
    comm::World world(2);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      alloc::DeviceMemory dev(1 << 20, "prefetch budget");
      alloc::CachingAllocator cache(dev);
      std::vector<alloc::Allocation> ballast;
      model::QuadModel m(kUnitElems * kUnits, kUnits);
      EngineConfig cfg;
      cfg.stage = ZeroStage::kOsGP;
      cfg.fp16 = true;
      cfg.prefetch_lookahead = lookahead;
      ZeroDpEngine engine(cfg, m, dp, &cache, 9);
      std::vector<float> losses;
      for (int step = 0; step < 4; ++step) {
        losses.push_back(engine.TrainStep(RankBatch(ctx.rank, step)));
        if (step != 0 || lookahead == 0) continue;
        for (alloc::DeviceStats st = dev.Stats(); st.free_total > target;
             st = dev.Stats()) {
          ballast.push_back(dev.Allocate(
              std::min(st.largest_free_block, st.free_total - target)));
        }
        EXPECT_LT(dev.Stats().free_total, 2 * kUnitBytes);
      }
      TrainingState state = engine.ExportState();
      if (ctx.rank == 0) {
        out.losses = std::move(losses);
        out.state = std::move(state);
      }
    });
    return out;
  };
  const Trajectory blocking = run(0);
  const double hits_before = obs::Metrics().counter("prefetch.hits").value();
  const double misses_before =
      obs::Metrics().counter("prefetch.misses").value();
  const Trajectory degraded = run(2);
  EXPECT_EQ(degraded.losses, blocking.losses);
  EXPECT_EQ(degraded.state, blocking.state);
  EXPECT_EQ(obs::Metrics().counter("prefetch.hits").value(), hits_before);
  EXPECT_GT(obs::Metrics().counter("prefetch.misses").value(),
            misses_before);
}

TEST(PrefetchTest, ReplayStepsHitThePipeline) {
  EngineConfig cfg;
  cfg.stage = ZeroStage::kOsGP;
  cfg.fp16 = true;
  cfg.prefetch_lookahead = 2;
  const double hits_before = obs::Metrics().counter("prefetch.hits").value();
  (void)RunTraining(cfg, 2, 4, 97, 4, 9);
  // Step 0 records; steps 1..3 replay and should claim prefetched
  // gathers (QuadModel acquires every unit twice per step on 2 ranks).
  EXPECT_GT(obs::Metrics().counter("prefetch.hits").value(), hits_before);
}

TEST(PrefetchTest, MidTrainingEvalDoesNotDerailOrDiverge) {
  // EvalLoss materializes units outside the step bracket (prefetcher
  // idle -> blocking path) and must not disturb replay on later steps.
  EngineConfig cfg;
  cfg.stage = ZeroStage::kOsGP;
  cfg.fp16 = true;
  auto run = [&](EngineConfig c) {
    Trajectory out;
    comm::World world(2);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::QuadModel m(97, 4);
      ZeroDpEngine engine(c, m, dp, nullptr, 13);
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
  const Trajectory blocking = run(cfg);
  cfg.prefetch_lookahead = 2;
  const Trajectory prefetched = run(cfg);
  EXPECT_EQ(prefetched.losses, blocking.losses);
  EXPECT_EQ(prefetched.state, blocking.state);
}

TEST(PrefetchTest, GptTrainingBitExact) {
  // End-to-end over the real transformer: recompute-driven re-acquires
  // give the schedule its irregular shape.
  model::GptConfig gc;
  gc.layers = 2;
  gc.hidden = 16;
  gc.heads = 2;
  gc.vocab = 31;
  gc.seq = 8;
  gc.activation_checkpointing = true;
  auto run = [&](int lookahead) {
    Trajectory out;
    comm::World world(2);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::DeviceCheckpointStore store(nullptr);
      model::GptSession session;
      session.checkpoints = &store;
      model::GptModel m(gc, session);
      EngineConfig cfg;
      cfg.stage = ZeroStage::kOsGP;
      cfg.fp16 = true;
      cfg.prefetch_lookahead = lookahead;
      ZeroDpEngine engine(cfg, m, dp, nullptr, 17);
      std::vector<float> losses;
      for (int step = 0; step < 3; ++step) {
        Batch b;
        b.rows = 1;
        b.cols = static_cast<int>(gc.seq);
        for (int i = 0; i < gc.seq; ++i) {
          b.inputs.push_back((ctx.rank * 13 + step * 5 + i) % gc.vocab);
          b.targets.push_back((ctx.rank * 7 + step * 3 + i) % gc.vocab);
        }
        losses.push_back(engine.TrainStep(b));
      }
      TrainingState state = engine.ExportState();
      if (ctx.rank == 0) {
        out.losses = std::move(losses);
        out.state = std::move(state);
      }
    });
    return out;
  };
  const Trajectory blocking = run(0);
  const Trajectory prefetched = run(2);
  EXPECT_EQ(prefetched.losses, blocking.losses);
  EXPECT_EQ(prefetched.state, blocking.state);
}

}  // namespace
}  // namespace zero::core
