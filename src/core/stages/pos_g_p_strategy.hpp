// Stage 3 — Pos+g+p, full partitioning (Sec 5.3): each rank stores only
// its 1/Nd slice of the fp16 parameters and reduced gradients. Units
// are materialized broadcast-on-demand from their partition owners
// before use and discarded at release (Sec 7.2.2) — the extra parameter
// all-gather makes total volume 3Ψ. The gradient path reuses the
// stage-2 bucketized nonblocking reduce.
//
// Every materialization is one ParamPrefetcher::Gather, at every
// prefetch lookahead (0 included); the gather owns the ZeRO++ parameter
// paths (arXiv:2306.10209), engaged via StageContext:
//   qwZ — global unit broadcasts carry blockwise-int8 payloads
//         (comm::IQuantBroadcast) instead of fp16. Lossy but
//         rank-identical: every rank dequantizes the same wire bytes.
//   hpZ — a secondary fp16 parameter copy sharded across the intra-node
//         group, captured by forward gathers, serves backward gathers
//         inside the node group. Bit-exact vs plain stage 3.
#pragma once

#include <map>

#include "core/stages/grad_bucketizer.hpp"
#include "core/stages/param_prefetcher.hpp"
#include "core/stages/stage_strategy.hpp"

namespace zero::core {

class PosGPStrategy final : public StageStrategy {
 public:
  // Allocates the parameter and gradient partitions (and, under hpZ,
  // the gather's secondary shard).
  explicit PosGPStrategy(StageContext& ctx);

  [[nodiscard]] const char* name() const override { return "pos-g-p"; }
  [[nodiscard]] bool params_partitioned() const override { return true; }

  void InitParams(std::span<const float> padded_init) override;
  std::span<const float> AcquireUnit(int u, model::Phase phase) override;
  void ReleaseUnit(int u, model::Phase phase) override;
  void OnStepBegin() override {
    bucketizer_.BeginStep();
    prefetcher_.OnStepBegin();
  }
  void EmitUnitGrad(int u, std::span<const float> grad) override {
    // Drive in-flight prefetched gathers from the backward compute path
    // (ring chunks forward while this rank is busy with gradients).
    prefetcher_.Progress();
    bucketizer_.Emit(u, grad);
  }
  void ReduceGradients() override;
  std::span<const Half> ReducedF16() override { return grads_.f16(); }
  std::span<const float> ReducedF32() override { return grads_.f32(); }
  // The stored partition is exactly what the optimizer updates.
  std::span<Half> UpdateTargetF16() override { return params_.f16(); }
  std::span<float> UpdateTargetF32() override { return params_.f32(); }
  void OnUpdateApplied() override {
    grads_.FillZero();
    prefetcher_.OnParamsChanged();
  }
  void ImportMasterParams(std::span<const float> padded_master) override;
  void ResetInFlight() override;
  void GatherFullParams(std::span<float> out) override;
  [[nodiscard]] std::size_t param_bytes() const override {
    return params_.nbytes();
  }
  [[nodiscard]] std::size_t grad_bytes() const override {
    return grads_.nbytes();
  }

 private:
  void WriteParams(const float* padded_src);

  struct MaterializedUnit {
    ParamPrefetcher::Unit unit;
    int refcount = 0;
  };

  tensor::Tensor params_;  // this rank's partition (1/Nd)
  tensor::Tensor grads_;   // this rank's reduced partition (1/Nd)
  GradBucketizer bucketizer_;
  ParamPrefetcher prefetcher_;
  std::map<int, MaterializedUnit> units_;
};

}  // namespace zero::core
