#include "optim/adam.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "tensor/parallel_for.hpp"

namespace zero::optim {

namespace {
// Chunks of the intra-op pool; each element is touched by exactly one
// chunk, so the update is bitwise-identical at any worker count.
constexpr std::int64_t kAdamChunk = 1 << 12;
// Elements per stack block inside a chunk: the scaled gradient buffer is
// 1 KiB, and one block's master/m/v stay in L1 from the update to the
// parameter write.
constexpr std::int64_t kAdamBlock = 256;

struct AdamCoeffs {
  float b1, b2, c1, c2, bc2, step_size, eps, wd;
};

AdamCoeffs MakeCoeffs(const AdamConfig& cfg, std::int64_t t) {
  const float b1 = cfg.beta1;
  const float b2 = cfg.beta2;
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t));
  return {b1,  b2,           1.0f - b1, 1.0f - b2,
          bc2, cfg.lr / bc1, cfg.eps,   cfg.weight_decay};
}

// Adam over one block. `g` already holds the scaled gradient: the scale
// was rounded into the buffer by its own statement, so GCC's default
// -ffp-contract=fast cannot fuse it with `wd * master` into one FMA.
// The build gives this library -fno-math-errno, which lets std::sqrt
// vectorize; NaN and Inf still propagate and every result is the
// correctly rounded IEEE one.
template <bool kDecay>
void AdamBlock(const AdamCoeffs& k, const float* __restrict g,
               float* __restrict master, float* __restrict m,
               float* __restrict v, std::int64_t n) {
  const float b1 = k.b1, b2 = k.b2, c1 = k.c1, c2 = k.c2;
  const float bc2 = k.bc2, step_size = k.step_size, eps = k.eps, wd = k.wd;
  for (std::int64_t i = 0; i < n; ++i) {
    float gi = g[i];
    if constexpr (kDecay) gi += wd * master[i];
    m[i] = b1 * m[i] + c1 * gi;
    v[i] = b2 * v[i] + c2 * gi * gi;
    const float denom = std::sqrt(v[i] / bc2) + eps;
    master[i] -= step_size * m[i] / denom;
  }
}

template <bool kDecay, typename G, typename P>
void FusedAdam(const AdamCoeffs& k, std::span<const G> grad, float scale,
               AdamState s, std::span<P> out) {
  const auto n = static_cast<std::int64_t>(grad.size());
  tensor::ParallelFor(0, n, kAdamChunk, [&](std::int64_t b, std::int64_t e) {
    alignas(64) float g[kAdamBlock];
    for (std::int64_t i0 = b; i0 < e; i0 += kAdamBlock) {
      const std::int64_t len = std::min(kAdamBlock, e - i0);
      const auto off = static_cast<std::size_t>(i0);
      if constexpr (std::is_same_v<G, Half>) {
        HalfToFloat(grad.data() + off, g, static_cast<std::size_t>(len));
        for (std::int64_t i = 0; i < len; ++i) g[i] *= scale;
      } else {
        const float* src = grad.data() + off;
        for (std::int64_t i = 0; i < len; ++i) g[i] = src[i] * scale;
      }
      float* master = s.master.data() + off;
      AdamBlock<kDecay>(k, g, master, s.m.data() + off, s.v.data() + off,
                        len);
      if (out.empty()) continue;
      if constexpr (std::is_same_v<P, Half>) {
        FloatToHalf(master, out.data() + off, static_cast<std::size_t>(len));
      } else {
        std::memcpy(out.data() + off, master,
                    static_cast<std::size_t>(len) * sizeof(float));
      }
    }
  });
}

template <typename G, typename P>
void Dispatch(const AdamConfig& cfg, std::int64_t t, std::span<const G> grad,
              float scale, AdamState s, std::span<P> out) {
  // Only an fp32 destination may be empty (AdamUpdate writes no copy).
  ZERO_CHECK(s.master.size() == grad.size() && s.m.size() == grad.size() &&
                 s.v.size() == grad.size() &&
                 (out.size() == grad.size() ||
                  (std::is_same_v<P, float> && out.empty())),
             "Adam span size mismatch");
  const AdamCoeffs k = MakeCoeffs(cfg, t);
  if (cfg.weight_decay != 0.0f) {
    FusedAdam<true>(k, grad, scale, s, out);
  } else {
    FusedAdam<false>(k, grad, scale, s, out);
  }
}
}  // namespace

void FusedAdamStep(const AdamConfig& cfg, std::int64_t t,
                   std::span<const Half> grad, float grad_scale,
                   AdamState state, std::span<Half> params_out) {
  Dispatch(cfg, t, grad, grad_scale, state, params_out);
}

void FusedAdamStep(const AdamConfig& cfg, std::int64_t t,
                   std::span<const float> grad, float grad_scale,
                   AdamState state, std::span<Half> params_out) {
  Dispatch(cfg, t, grad, grad_scale, state, params_out);
}

void FusedAdamStep(const AdamConfig& cfg, std::int64_t t,
                   std::span<const float> grad, float grad_scale,
                   AdamState state, std::span<float> params_out) {
  Dispatch(cfg, t, grad, grad_scale, state, params_out);
}

void AdamUpdate(const AdamConfig& cfg, std::int64_t t,
                std::span<float> master, std::span<const float> grad,
                std::span<float> m, std::span<float> v) {
  FusedAdamStep(cfg, t, grad, 1.0f, {master, m, v}, std::span<float>{});
}

namespace {
tensor::Tensor MakeState(alloc::CachingAllocator* device, std::int64_t n) {
  using tensor::Tensor;
  Tensor t = device != nullptr
                 ? Tensor::Device(*device, {n}, DType::kF32)
                 : Tensor::Heap({n}, DType::kF32);
  t.FillZero();
  return t;
}
}  // namespace

MixedPrecisionAdam::MixedPrecisionAdam(AdamConfig cfg,
                                       alloc::CachingAllocator* device,
                                       std::span<const float> init)
    : cfg_(cfg),
      numel_(static_cast<std::int64_t>(init.size())),
      master_(MakeState(device, numel_)),
      m_(MakeState(device, numel_)),
      v_(MakeState(device, numel_)) {
  std::memcpy(master_.f32().data(), init.data(), init.size_bytes());
}

// The three entry points differ only in the gradient and parameter
// dtypes; the kernel checks every span against the shard size before
// the step clock advances.
void MixedPrecisionAdam::Step(std::span<Half> params_f16,
                              std::span<const Half> grads_f16,
                              float loss_scale) {
  TRACE_SPAN("optim/adam_step");
  FusedAdamStep(cfg_, t_ + 1, grads_f16, 1.0f / loss_scale, state(),
                params_f16);
  ++t_;
}

void MixedPrecisionAdam::StepFromF32(std::span<Half> params_f16,
                                     std::span<const float> grads,
                                     float grad_scale) {
  TRACE_SPAN("optim/adam_step");
  FusedAdamStep(cfg_, t_ + 1, grads, grad_scale, state(), params_f16);
  ++t_;
}

void MixedPrecisionAdam::StepF32(std::span<float> params_out,
                                 std::span<const float> grads,
                                 float grad_scale) {
  TRACE_SPAN("optim/adam_step");
  FusedAdamStep(cfg_, t_ + 1, grads, grad_scale, state(), params_out);
  ++t_;
}

namespace {
std::span<float> StateSpan(OptStateKind kind, tensor::Tensor& master,
                           tensor::Tensor& m, tensor::Tensor& v) {
  switch (kind) {
    case OptStateKind::kMaster:
      return master.f32();
    case OptStateKind::kMomentum:
      return m.f32();
    case OptStateKind::kVariance:
      return v.f32();
  }
  return {};
}
}  // namespace

void MixedPrecisionAdam::CopyStateOut(OptStateKind kind,
                                      std::span<float> out) {
  const std::span<float> src = StateSpan(kind, master_, m_, v_);
  ZERO_CHECK(out.size() == src.size(), "state copy size mismatch");
  std::memcpy(out.data(), src.data(), src.size_bytes());
}

void MixedPrecisionAdam::CopyStateIn(OptStateKind kind,
                                     std::span<const float> in) {
  const std::span<float> dst = StateSpan(kind, master_, m_, v_);
  ZERO_CHECK(in.size() == dst.size(), "state copy size mismatch");
  std::memcpy(dst.data(), in.data(), in.size_bytes());
}

}  // namespace zero::optim
