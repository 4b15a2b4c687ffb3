#include "core/stages/full_param_strategy.hpp"

#include <cstring>
#include "comm/quant_collectives.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels.hpp"

namespace zero::core {

void FullParamStrategy::InitParams(std::span<const float> padded_init) {
  params_ = ctx_->NewDevice(ctx_->part->padded_total(), ctx_->work_dtype());
  WriteParams(padded_init.data());
}

void FullParamStrategy::WriteParams(const float* padded_src) {
  const std::size_t n = static_cast<std::size_t>(params_.numel());
  if (ctx_->cfg->fp16) {
    tensor::CastFloatToHalf(padded_src, params_.f16().data(),
                            static_cast<std::int64_t>(n));
  } else {
    std::memcpy(params_.f32().data(), padded_src, n * sizeof(float));
  }
}

std::span<const float> FullParamStrategy::AcquireUnit(int u,
                                                      model::Phase phase) {
  (void)phase;
  const auto [ub, ue] = ctx_->model->layout().UnitRange(u);
  const std::int64_t n = ue - ub;
  if (!ctx_->cfg->fp16) {
    // fp32, full copy resident: hand out a direct view.
    return params_.f32().subspan(static_cast<std::size_t>(ub),
                                 static_cast<std::size_t>(n));
  }
  // fp16, full copy resident: widen the unit into fp32 scratch.
  WidenedUnit& wu = units_[u];
  if (wu.refcount == 0) {
    wu.f32.resize(static_cast<std::size_t>(n));
    tensor::CastHalfToFloat(params_.f16().data() + ub, wu.f32.data(), n);
  }
  ++wu.refcount;
  return wu.f32;
}

void FullParamStrategy::ReleaseUnit(int u, model::Phase phase) {
  (void)phase;
  auto it = units_.find(u);
  if (it == units_.end()) {
    // fp32 mode hands out direct views with nothing to release.
    ZERO_CHECK(!ctx_->cfg->fp16, "ReleaseUnit without matching AcquireUnit");
    return;
  }
  ZERO_CHECK(it->second.refcount > 0, "ReleaseUnit refcount underflow");
  if (--it->second.refcount == 0) {
    units_.erase(it);
  }
}

void FullParamStrategy::CheckUnitsReleased() const {
  ZERO_CHECK(units_.empty(), "model leaked acquired units");
}

std::span<Half> FullParamStrategy::UpdateTargetF16() {
  if (!state_partitioned()) return params_.f16();
  const Range own = ctx_->part->PartitionRange(ctx_->rank());
  return params_.f16().subspan(static_cast<std::size_t>(own.begin),
                               static_cast<std::size_t>(own.size()));
}

std::span<float> FullParamStrategy::UpdateTargetF32() {
  if (!state_partitioned()) return params_.f32();
  const Range own = ctx_->part->PartitionRange(ctx_->rank());
  return params_.f32().subspan(static_cast<std::size_t>(own.begin),
                               static_cast<std::size_t>(own.size()));
}

void FullParamStrategy::ImportMasterParams(
    std::span<const float> padded_master) {
  WriteParams(padded_master.data());
}

void FullParamStrategy::GatherFullParams(std::span<float> out) {
  if (ctx_->cfg->fp16) {
    tensor::CastHalfToFloat(params_.f16().data(), out.data(),
                            static_cast<std::int64_t>(out.size()));
  } else {
    std::memcpy(out.data(), params_.f32().data(),
                out.size() * sizeof(float));
  }
}

void FullParamStrategy::AllGatherParams() {
  TRACE_SPAN("params/all_gather");
  const std::uint64_t t0 = obs::TraceNowNs();
  // Copy the owned chunk out first: AllGather writes the chunk into the
  // full buffer at this rank's offset, which would otherwise alias.
  const Range own = ctx_->part->PartitionRange(ctx_->rank());
  const std::int64_t shard = ctx_->part->partition_size();
  if (ctx_->cfg->fp16) {
    std::vector<Half> chunk(static_cast<std::size_t>(shard));
    std::memcpy(chunk.data(), params_.f16().data() + own.begin,
                chunk.size() * sizeof(Half));
    if (ctx_->qwz) {
      // qwZ: the step-end all-gather ships int8 + per-block scales.
      // Lossy on this rank's own chunk too, but that is safe — the next
      // update overwrites the working copy from the fp32 master, and
      // dequantizing everywhere keeps all replicas bit-identical.
      comm::IQuantAllGather(*ctx_->dp, std::span<const Half>(chunk),
                            params_.f16(), ctx_->quant_block)
          .Wait();
    } else {
      ctx_->dp->AllGather(std::span<const Half>(chunk), params_.f16());
    }
  } else {
    std::vector<float> chunk(static_cast<std::size_t>(shard));
    std::memcpy(chunk.data(), params_.f32().data() + own.begin,
                chunk.size() * sizeof(float));
    ctx_->dp->AllGather(std::span<const float>(chunk), params_.f32());
  }
  static obs::Histogram& gather_us =
      obs::Metrics().histogram("params.allgather_us");
  gather_us.Observe(static_cast<double>(obs::TraceNowNs() - t0) / 1000.0);
}

}  // namespace zero::core
