#include "core/stages/pos_g_p_strategy.hpp"

#include <cstring>
#include "comm/quant_collectives.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels.hpp"

namespace zero::core {

using model::Phase;

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
  const std::int64_t shard = ctx_->part->partition_size();
  params_ = ctx_->NewDevice(shard, ctx_->work_dtype());
  WriteParams(padded_init.data());
  grads_ = ctx_->NewDevice(shard, ctx_->work_dtype());
  grads_.FillZero();
  bucketizer_.emplace(*ctx_, &grads_);
  if (ctx_->hpz) {
    hpz_part_.emplace(ctx_->part->total(), ctx_->node_size);
    const std::size_t bytes =
        static_cast<std::size_t>(hpz_part_->partition_size()) * sizeof(Half);
    if (ctx_->cfg->hpz_max_bytes > 0 && bytes > ctx_->cfg->hpz_max_bytes) {
      // The secondary shard does not fit the configured budget. The
      // check is a pure function of config + world shape, so every rank
      // flips together — SPMD-safe degradation to plain stage 3.
      ctx_->hpz = false;
      hpz_part_.reset();
    } else {
      secondary_ = ctx_->NewDevice(hpz_part_->partition_size(), DType::kF16);
      secondary_.FillZero();
      unit_captured_.assign(
          static_cast<std::size_t>(ctx_->model->layout().num_units()), 0);
    }
  }
  if (ctx_->cfg->prefetch_lookahead > 0) {
    prefetcher_.emplace(*ctx_, &params_, ctx_->hpz ? &secondary_ : nullptr,
                        ctx_->hpz ? &*hpz_part_ : nullptr);
  }
}

void PosGPStrategy::CaptureSecondary(int u, const tensor::Tensor& f16) {
  TRACE_SPAN("params/hpz_capture");
  const auto [ub, ue] = ctx_->model->layout().UnitRange(u);
  const Range own2 = hpz_part_->PartitionRange(ctx_->local->rank());
  const Range overlap = Intersect(Range{ub, ue}, own2);
  if (!overlap.empty()) {
    std::memcpy(secondary_.f16().data() + (overlap.begin - own2.begin),
                f16.f16().data() + (overlap.begin - ub),
                static_cast<std::size_t>(overlap.size()) * sizeof(Half));
    static obs::Counter& captured =
        obs::Metrics().counter("hpz.secondary_bytes_captured");
    captured.Add(static_cast<double>(overlap.size()) * sizeof(Half));
  }
  // Even a rank whose slice misses this unit marks it: the flag means
  // "the node group collectively holds unit u", which became true the
  // moment every local rank executed this same materialization.
  unit_captured_[static_cast<std::size_t>(u)] = 1;
}

std::span<const float> PosGPStrategy::AcquireUnit(int u, Phase phase) {
  const auto [ub, ue] = ctx_->model->layout().UnitRange(u);
  const std::int64_t n = ue - ub;

  // Materialize the unit from its partition owners: complete the
  // prefetched gather when the look-ahead pipeline covers this
  // materialization, otherwise broadcast on demand.
  MaterializedUnit& mu = units_[u];
  if (mu.refcount == 0) {
    TRACE_SPAN("params/materialize_unit");
    static obs::Counter& materializations =
        obs::Metrics().counter("stage3.unit_materializations");
    materializations.Add();
    // hpZ gather-kind decision: backward re-gathers resolve inside the
    // node group once the forward pass captured the unit. Pure function
    // of SPMD-identical state (phase + capture flags), so every rank
    // picks the same kind for the same materialization.
    const bool use_local = ctx_->hpz && phase == Phase::kBackward &&
                           unit_captured_[static_cast<std::size_t>(u)] != 0;
    bool claimed = false;
    if (prefetcher_.has_value() && ctx_->cfg->fp16 &&
        prefetcher_->Claim(u, &mu.f16, nullptr, use_local)) {
      mu.f32.resize(static_cast<std::size_t>(n));
      tensor::CastHalfToFloat(mu.f16.f16().data(), mu.f32.data(), n);
      claimed = true;
    } else if (prefetcher_.has_value() && !ctx_->cfg->fp16 &&
               prefetcher_->Claim(u, nullptr, &mu.f32)) {
      claimed = true;
    }
    if (!claimed) {
      const Range unit_range{ub, ue};
      if (ctx_->cfg->fp16) {
        mu.f16 = ctx_->NewDevice(n, DType::kF16);
        if (use_local) {
          // hpZ: gather from the intra-node secondary shard — zero
          // bytes cross the node boundary.
          const Range own2 = hpz_part_->PartitionRange(ctx_->local->rank());
          for (const auto& [j2, overlap] : hpz_part_->Overlaps(unit_range)) {
            std::span<Half> dst = mu.f16.f16().subspan(
                static_cast<std::size_t>(overlap.begin - ub),
                static_cast<std::size_t>(overlap.size()));
            if (j2 == ctx_->local->rank()) {
              std::memcpy(dst.data(),
                          secondary_.f16().data() + (overlap.begin - own2.begin),
                          dst.size_bytes());
            }
            ctx_->local->Broadcast(dst, j2);
          }
        } else {
          const Range own = ctx_->part->PartitionRange(ctx_->rank());
          for (const auto& [j, overlap] : ctx_->part->Overlaps(unit_range)) {
            std::span<Half> dst = mu.f16.f16().subspan(
                static_cast<std::size_t>(overlap.begin - ub),
                static_cast<std::size_t>(overlap.size()));
            if (j == ctx_->rank()) {
              std::memcpy(dst.data(),
                          params_.f16().data() + (overlap.begin - own.begin),
                          dst.size_bytes());
            }
            if (ctx_->qwz) {
              // qwZ: int8 on the wire; the machine dequantizes on every
              // rank (the owner included), so all replicas agree.
              comm::IQuantBroadcast(*ctx_->dp, dst, j, ctx_->quant_block)
                  .Wait();
            } else {
              ctx_->dp->Broadcast(dst, j);
            }
          }
        }
        mu.f32.resize(static_cast<std::size_t>(n));
        tensor::CastHalfToFloat(mu.f16.f16().data(), mu.f32.data(), n);
      } else {
        const Range own = ctx_->part->PartitionRange(ctx_->rank());
        mu.f32.assign(static_cast<std::size_t>(n), 0.0f);
        for (const auto& [j, overlap] : ctx_->part->Overlaps(unit_range)) {
          std::span<float> dst{mu.f32.data() + (overlap.begin - ub),
                               static_cast<std::size_t>(overlap.size())};
          if (j == ctx_->rank()) {
            std::memcpy(dst.data(),
                        params_.f32().data() + (overlap.begin - own.begin),
                        dst.size_bytes());
          }
          ctx_->dp->Broadcast(dst, j);
        }
      }
      if (prefetcher_.has_value()) prefetcher_->Record(u, use_local);
    }
    if (ctx_->hpz && phase == Phase::kForward) CaptureSecondary(u, mu.f16);
  } else if (prefetcher_.has_value()) {
    prefetcher_->Progress();
  }
  ++mu.refcount;
  return mu.f32;
}

void PosGPStrategy::ReleaseUnit(int u, Phase phase) {
  (void)phase;
  if (prefetcher_.has_value()) prefetcher_->Progress();
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
  bucketizer_->Drain();
  if (prefetcher_.has_value()) prefetcher_->OnStepEnd();
}

void PosGPStrategy::ImportMasterParams(std::span<const float> padded_master) {
  WriteParams(padded_master.data());
  // Imported params invalidate every hpZ capture (elastic resume may
  // even have changed what the unit held).
  if (!unit_captured_.empty())
    unit_captured_.assign(unit_captured_.size(), 0);
}

void PosGPStrategy::ResetInFlight() {
  bucketizer_->Reset();
  if (prefetcher_.has_value()) prefetcher_->CancelAll();
  grads_.FillZero();
  units_.clear();
  if (!unit_captured_.empty())
    unit_captured_.assign(unit_captured_.size(), 0);
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
