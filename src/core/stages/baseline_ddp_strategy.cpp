#include "core/stages/baseline_ddp_strategy.hpp"

#include "obs/trace.hpp"

namespace zero::core {

void BaselineDdpStrategy::InitParams(std::span<const float> padded_init) {
  FullParamStrategy::InitParams(padded_init);
  grads_ = ctx_->NewDevice(ctx_->part->padded_total(), ctx_->work_dtype());
  grads_.FillZero();
}

void BaselineDdpStrategy::EmitUnitGrad(int u, std::span<const float> grad) {
  StoreUnitGradFull(*ctx_, grads_, u, grad);
}

void BaselineDdpStrategy::ReduceGradients() {
  CheckUnitsReleased();
  TRACE_SPAN("grads/all_reduce");
  // All-reduce full gradients in place.
  if (ctx_->cfg->fp16) {
    ctx_->dp->AllReduce(grads_.f16(), comm::ReduceOp::kSum);
  } else if (ctx_->cfg->exact_reductions) {
    ctx_->ExactAllReduceSum(grads_.f32());
  } else {
    ctx_->dp->AllReduce(grads_.f32(), comm::ReduceOp::kSum);
  }
  // The whole (unpartitioned) gradient buffer is final now.
  ctx_->NotifyGradFinal(0, grads_.numel(),
                        std::span<const std::byte>(grads_.raw(),
                                                   grads_.nbytes()));
}

}  // namespace zero::core
