// Adam and its mixed-precision variant (Sec 3.1).
//
// Mixed-precision Adam is the memory protagonist of the paper: for Psi
// fp16 parameters it keeps fp32 master parameters, momentum and variance
// — K = 12 bytes per parameter of optimizer state on top of 2 (params)
// + 2 (gradients). MixedPrecisionAdam owns exactly those three fp32
// tensors, allocated on the simulated device so the K multiplier is
// visible to the memory experiments, and updates an fp16 parameter shard
// from an fp16 gradient shard:
//
//     master ops (fp32):  m, v, master-weight update
//     edges (fp16):       grad in (unscaled by loss_scale), param out
//
// In ZeRO, each rank constructs this over its 1/Nd shard — partitioning
// the optimizer *is* constructing a smaller one of these.
#pragma once

#include <cstdint>
#include <span>

#include "alloc/caching_allocator.hpp"
#include "common/half.hpp"
#include "optim/shard_optimizer.hpp"
#include "tensor/tensor.hpp"

namespace zero::optim {

struct AdamConfig {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
};

// The fp32 state one Adam update rewrites in place; all three spans have
// the shard's length.
struct AdamState {
  std::span<float> master;
  std::span<float> m;
  std::span<float> v;
};

// The one Adam kernel. MixedPrecisionAdam (device tier) and
// core::OffloadEngine (host tier) both run it, so the tiers agree bit for
// bit by construction. It is ZeRO-Offload's single-pass CPU-Adam
// (arXiv:2101.06840): each 256-element block makes one trip through
// memory.
//   1. The gradient is decoded (fp16) or copied (fp32) into a stack
//      buffer and multiplied by `grad_scale` there.
//   2. Adam updates master, m and v from that buffer (t is 1-based).
//   3. The new master weights go to `params_out`: rounded to fp16,
//      copied as fp32, or nowhere when the span is empty.
// Every element is touched by exactly one intra-op chunk, so the result
// is bitwise identical at any worker count.
void FusedAdamStep(const AdamConfig& cfg, std::int64_t t,
                   std::span<const Half> grad, float grad_scale,
                   AdamState state, std::span<Half> params_out);
void FusedAdamStep(const AdamConfig& cfg, std::int64_t t,
                   std::span<const float> grad, float grad_scale,
                   AdamState state, std::span<Half> params_out);
void FusedAdamStep(const AdamConfig& cfg, std::int64_t t,
                   std::span<const float> grad, float grad_scale,
                   AdamState state, std::span<float> params_out);

// Functional fp32 Adam step (t is 1-based): FusedAdamStep with an
// unscaled gradient and no parameter copy. Tests drive reference
// trajectories through it without any storage policy attached.
void AdamUpdate(const AdamConfig& cfg, std::int64_t t,
                std::span<float> master, std::span<const float> grad,
                std::span<float> m, std::span<float> v);

class MixedPrecisionAdam final : public ShardOptimizer {
 public:
  // State tensors (fp32 master + m + v, 12 bytes/param) are allocated
  // from `device` when non-null, else on the heap. `init` seeds the
  // master copy (the authoritative weights).
  MixedPrecisionAdam(AdamConfig cfg, alloc::CachingAllocator* device,
                     std::span<const float> init);

  // One update: grad_f16 is divided by `loss_scale`, applied to the
  // master weights, and the updated weights are rounded back into
  // params_f16. Spans must match the shard size.
  void Step(std::span<Half> params_f16, std::span<const Half> grads_f16,
            float loss_scale) override;

  // fp32 path (used when the engine keeps fp32 gradients, e.g. in exact
  // equivalence tests).
  void StepF32(std::span<float> params_out, std::span<const float> grads,
               float grad_scale) override;

  // fp32 gradients (e.g. an accumulation buffer) updating fp16 params.
  void StepFromF32(std::span<Half> params_f16, std::span<const float> grads,
                   float grad_scale) override;

  [[nodiscard]] std::int64_t numel() const override { return numel_; }
  [[nodiscard]] std::int64_t step_count() const override { return t_; }
  [[nodiscard]] std::span<const float> master() const {
    return master_.f32();
  }
  [[nodiscard]] std::span<float> master_mutable() { return master_.f32(); }
  // Momentum / variance access for state checkpointing.
  [[nodiscard]] std::span<const float> momentum() const { return m_.f32(); }
  [[nodiscard]] std::span<float> momentum_mutable() { return m_.f32(); }
  [[nodiscard]] std::span<const float> variance() const { return v_.f32(); }
  [[nodiscard]] std::span<float> variance_mutable() { return v_.f32(); }
  // Restores the bias-correction clock when loading a checkpoint.
  void set_step_count(std::int64_t t) override { t_ = t; }

  void CopyStateOut(OptStateKind kind, std::span<float> out) override;
  void CopyStateIn(OptStateKind kind, std::span<const float> in) override;

  // Bytes of optimizer state per parameter — the paper's K.
  static constexpr double kStateBytesPerParam = 12.0;

 private:
  AdamConfig cfg_;
  std::int64_t numel_;
  std::int64_t t_ = 0;
  tensor::Tensor master_;  // fp32 [numel]
  tensor::Tensor m_;       // fp32 [numel]
  tensor::Tensor v_;       // fp32 [numel]

  [[nodiscard]] AdamState state() {
    return {master_.f32(), m_.f32(), v_.f32()};
  }
};

}  // namespace zero::optim
