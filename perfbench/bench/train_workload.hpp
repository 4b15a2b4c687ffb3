// Training workloads: the trainer's per-rank setup rebuilt from the
// library's public types (World, GridTopology, CachingAllocator,
// GptModel, ZeroDpEngine, MarkovCorpus), so set-up and every step are
// timed separately on the wall clock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "alloc/caching_allocator.hpp"
#include "comm/communicator.hpp"
#include "model/gpt.hpp"
#include "model/transformer_spec.hpp"
#include "report.hpp"
#include "timed_model.hpp"

namespace perfbench {

struct TrainSpec {
  std::string name;
  zero::model::GptConfig model;
  std::int64_t batch_per_rank = 4;
  int dp = 1;
  zero::model::ZeroStage stage = zero::model::ZeroStage::kNone;
  int prefetch_lookahead = 0;
  std::size_t device_capacity_bytes = 256ull << 20;
};

// GPT h=256, 4 layers, 8 heads, seq 128, vocab 512, batch 4 per rank,
// fp16 mixed precision.
[[nodiscard]] zero::model::GptConfig BenchGpt();
// Stage 0 at dp=1: the single-worker baseline.
[[nodiscard]] TrainSpec TrainDp1Spec();
// Stage 3 (Pos+g+p) at dp=2 with prefetch lookahead 2.
[[nodiscard]] TrainSpec TrainZero3Dp2Spec();

struct PassPlan {
  std::uint64_t seed = 1;
  int setup_reps = 1;    // set-ups timed; steps run after the last one
  double seconds = 1.0;  // measured-step budget when fixed_steps == 0
  int fixed_steps = 0;   // > 0: exactly this many measured steps
  bool traced = false;   // TimedModel decorator + runtime spans on
};

// What one pass (set-ups, warm-up, measured steps) observed.
struct TrainPass {
  std::vector<double> setup_s;             // one per set-up
  std::vector<std::vector<float>> losses;  // [rank][step], warm-up included
  std::vector<double> step_ms;             // rank 0 TrainStep, measured steps
  std::vector<zero::alloc::CacheStats> cache;  // per rank, end of pass
  zero::comm::CommStats comm;  // rank 0 DP traffic over measured steps
  std::int64_t skipped_steps = 0;  // fp16 overflow steps (rank 0)
  bool failed = false;
  std::string failure;
  // Traced passes only (rank 0, measured steps):
  std::vector<StepTiming> model_steps;
  std::map<std::string, double> span_ms;  // runtime span totals by name
  double prefetch_hits = 0.0;
  double prefetch_misses = 0.0;
  double overlap_frac = 0.0;
  std::uint64_t trace_dropped = 0;

  [[nodiscard]] int measured_steps() const {
    return static_cast<int>(step_ms.size());
  }
};

[[nodiscard]] TrainPass RunTrainPass(const TrainSpec& spec,
                                     const PassPlan& plan);

// Per-step layer figures of a traced pass (means over measured steps).
struct LayerAccounting {
  double train_step_ms = 0.0;     // TrainStep wall time
  double model_step_ms = 0.0;     // decorator: GptModel::Step
  double model_self_ms = 0.0;     // Step minus nested provider/sink calls
  double acquire_ms = 0.0;
  double release_ms = 0.0;
  double emit_ms = 0.0;
  double acquire_calls = 0.0;
  double emit_calls = 0.0;
  double post_backward_ms = 0.0;  // TrainStep minus model Step
  double fwd_bwd_span_ms = 0.0;   // runtime span engine/fwd_bwd
  double reduce_grads_ms = 0.0;   // runtime span engine/reduce_grads
  double apply_update_ms = 0.0;   // runtime span engine/apply_update
  double adam_ms = 0.0;           // runtime span optim/adam_step
};

[[nodiscard]] LayerAccounting AccountLayers(const TrainPass& pass);

// How well independently measured pieces of a step add up.
struct Reconciliation {
  // |self + nested - step| / step and |step + post_backward - train_step|
  // / train_step: identities of the accounting, expected at rounding
  // level.
  double self_identity = 0.0;
  double step_identity = 0.0;
  // |engine/fwd_bwd span - decorator Step| / Step: two clocks around the
  // same call.
  double fwd_bwd_gap = 0.0;
  // (reduce_grads + apply_update) spans as a share of the post-backward
  // window they nest in; must not exceed 1 by more than the tolerance.
  double post_backward_cover = 0.0;
  bool ok = false;
  std::string detail;
};

// Tolerances: identities 1e-9, fwd_bwd gap 5 %, cover <= 1.05.
inline constexpr double kIdentityTol = 1e-9;
inline constexpr double kSpanGapTol = 0.05;
inline constexpr double kCoverTol = 1.05;

[[nodiscard]] Reconciliation Reconcile(const LayerAccounting& a);

// One benchmark run of a training workload: the untraced end-to-end
// measurement, or (trace) an untraced pass plus a traced pass over the
// same steps giving the per-layer figures.
[[nodiscard]] RunOutcome RunTrainWorkload(const TrainSpec& spec,
                                          std::uint64_t seed, double seconds,
                                          bool trace);

}  // namespace perfbench
