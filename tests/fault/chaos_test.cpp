// Chaos soak: randomized, seeded fault schedules against the full
// trainer across ZeRO stages 0-3. The invariants are liveness and
// truthfulness, not success: every run must terminate within its
// deadline budget (no deadlock, no stranded thread — the TSan CI job
// runs this too), and a killed run must say so in TrainResult. Each
// schedule derives deterministically from its seed, so a failure
// reproduces by exporting ZERO_CHAOS_SEEDS=<seed>.
#include <gtest/gtest.h>

#include <charconv>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "fault/fault_plan.hpp"

namespace zero::fault {
namespace {

// ZERO_CHAOS_SEEDS is a comma-separated list of decimal seeds; an item
// that is not a whole unsigned decimal throws ConfigError naming it.
std::vector<std::uint64_t> ChaosSeeds() {
  std::vector<std::uint64_t> seeds;
  if (const auto env = EnvString("ZERO_CHAOS_SEEDS")) {
    std::stringstream ss(*env);
    std::string item;
    while (std::getline(ss, item, ',')) {
      std::uint64_t seed = 0;
      const char* end = item.data() + item.size();
      const auto [ptr, ec] = std::from_chars(item.data(), end, seed);
      if (item.empty() || ec != std::errc() || ptr != end) {
        throw ConfigError("ZERO_CHAOS_SEEDS: bad seed '" + item + "' in '" +
                          *env + "'");
      }
      seeds.push_back(seed);
    }
  }
  if (seeds.empty()) seeds = {11, 23, 37, 53};
  return seeds;
}

// A small random schedule: 1-2 rules drawn from every fault kind, with
// durations kept well under the comm deadline so stragglers are never
// misdiagnosed as deaths.
std::string MakeChaosSpec(std::uint64_t seed, int nd) {
  Rng rng(seed);
  const char* kSites[] = {"step", "collective", "barrier"};
  std::ostringstream spec;
  spec << "seed=" << seed;
  const int rules = 1 + static_cast<int>(rng.NextBelow(2));
  for (int i = 0; i < rules; ++i) {
    const int rank = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(nd)));
    switch (rng.NextBelow(6)) {
      case 0:
        spec << ";crash@" << rank << ':' << kSites[rng.NextBelow(3)] << '#'
             << (1 + rng.NextBelow(6));
        break;
      case 1:
        spec << ";hang@" << rank << ':' << kSites[rng.NextBelow(3)] << '#'
             << (1 + rng.NextBelow(6)) << "=10s";
        break;
      case 2:
        spec << ";slow@" << rank << ":step=" << (1 + rng.NextBelow(5)) << "ms";
        break;
      case 3:
        spec << ";drop@" << rank << '#' << (1 + rng.NextBelow(30));
        break;
      case 4:
        spec << ";delay@" << rank << "=" << (1 + rng.NextBelow(3)) << "ms%0.2";
        break;
      default:
        spec << ";dup@" << rank << '#' << (1 + rng.NextBelow(30));
        break;
    }
  }
  return spec.str();
}

core::TrainResult RunChaos(const std::string& spec, int stage_index) {
  core::TrainOptions opts;
  opts.model.vocab = 13;
  opts.model.seq = 4;
  opts.model.hidden = 8;
  opts.model.layers = 1;
  opts.model.heads = 2;
  opts.engine.stage = static_cast<model::ZeroStage>(stage_index);
  opts.engine.fp16 = true;
  opts.engine.loss_scale = 64.0f;
  opts.engine.fault_spec = spec;
  opts.engine.comm_deadline_ms = 60;
  opts.cluster.dp_degree = 3;
  opts.batch_per_rank = 1;
  opts.steps = 4;
  opts.seed = 5;
  return core::TrainGpt(opts);
}

TEST(ChaosTest, SeededSchedulesTerminateAndReplayIdentically) {
  const std::vector<std::uint64_t> seeds = ChaosSeeds();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::uint64_t seed = seeds[i];
    // Sweep the stage with the seed so the default set covers 0-3.
    const int stage = static_cast<int>((seed + i) % 4);
    const std::string spec = MakeChaosSpec(seed, /*nd=*/3);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " stage=" +
                 std::to_string(stage) + " spec=" + spec);

    // Liveness: both calls return (a deadlock here hangs the suite and
    // trips the CI timeout). Truthfulness: a killed run reports failed
    // with a populated message; a surviving run reports losses.
    const core::TrainResult first = RunChaos(spec, stage);
    if (first.failed) {
      EXPECT_FALSE(first.failure_message.empty());
      EXPECT_TRUE(first.losses.empty());
    } else {
      EXPECT_EQ(first.losses.size(), 4u);
    }

    // Deterministic replay: the same seed kills (or spares) the run the
    // same way.
    const core::TrainResult again = RunChaos(spec, stage);
    EXPECT_EQ(first.failed, again.failed);
  }
}

}  // namespace
}  // namespace zero::fault
