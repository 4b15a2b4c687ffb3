#include "core/stages/pos_g_p_strategy.hpp"

#include <cstring>
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels.hpp"

namespace zero::core {

using model::Phase;

PosGPStrategy::PosGPStrategy(StageContext& ctx)
    : StageStrategy(ctx),
      params_(ctx.NewDevice(ctx.part->partition_size(), ctx.work_dtype())),
      grads_(ctx.NewDevice(ctx.part->partition_size(), ctx.work_dtype())),
      bucketizer_(ctx, &grads_),
      prefetcher_(ctx, params_) {
  grads_.FillZero();
}

void PosGPStrategy::WriteParams(const float* padded_src) {
  const Range own = ctx_->part->PartitionRange(ctx_->rank());
  const float* src = padded_src + own.begin;
  const std::size_t n = static_cast<std::size_t>(params_.numel());
  if (ctx_->cfg->fp16) {
    tensor::CastFloatToHalf(src, params_.f16().data(),
                            static_cast<std::int64_t>(n));
  } else {
    std::memcpy(params_.f32().data(), src, n * sizeof(float));
  }
}

void PosGPStrategy::InitParams(std::span<const float> padded_init) {
  WriteParams(padded_init.data());
}

std::span<const float> PosGPStrategy::AcquireUnit(int u, Phase phase) {
  MaterializedUnit& mu = units_[u];
  if (mu.refcount == 0) {
    TRACE_SPAN("params/materialize_unit");
    static obs::Counter& materializations =
        obs::Metrics().counter("stage3.unit_materializations");
    materializations.Add();
    mu.unit = prefetcher_.Gather(u, phase);
  } else {
    prefetcher_.Progress();
  }
  ++mu.refcount;
  return mu.unit.f32;
}

void PosGPStrategy::ReleaseUnit(int u, Phase phase) {
  (void)phase;
  prefetcher_.Progress();
  auto it = units_.find(u);
  ZERO_CHECK(it != units_.end(), "ReleaseUnit without matching AcquireUnit");
  ZERO_CHECK(it->second.refcount > 0, "ReleaseUnit refcount underflow");
  if (--it->second.refcount == 0) {
    // "The parameters can be discarded" (Sec 7.2.2) — this frees the
    // gathered fp16 device tensor immediately.
    units_.erase(it);
  }
}

void PosGPStrategy::ReduceGradients() {
  ZERO_CHECK(units_.empty(), "model leaked acquired units");
  TRACE_SPAN("grads/bucket_drain");
  // Gradients were already reduced to their owners during backward; wait
  // out whatever is still in flight and verify full coverage.
  bucketizer_.Drain();
  prefetcher_.OnStepEnd();
}

void PosGPStrategy::ImportMasterParams(std::span<const float> padded_master) {
  WriteParams(padded_master.data());
  // Elastic resume may even have changed what a unit held.
  prefetcher_.OnParamsChanged();
}

void PosGPStrategy::ResetInFlight() {
  bucketizer_.Reset();
  prefetcher_.CancelAll();
  prefetcher_.OnParamsChanged();
  grads_.FillZero();
  units_.clear();
}

void PosGPStrategy::GatherFullParams(std::span<float> out) {
  for (int u = 0; u < ctx_->model->layout().num_units(); ++u) {
    const auto [ub, ue] = ctx_->model->layout().UnitRange(u);
    std::span<const float> p = AcquireUnit(u, Phase::kForward);
    std::memcpy(out.data() + ub, p.data(),
                static_cast<std::size_t>(ue - ub) * sizeof(float));
    ReleaseUnit(u, Phase::kForward);
  }
}

}  // namespace zero::core
