#include "core/stages/stage_strategy.hpp"

#include <cstring>
#include <vector>

#include "core/stages/baseline_ddp_strategy.hpp"
#include "core/stages/pos_g_p_strategy.hpp"
#include "core/stages/pos_g_strategy.hpp"
#include "core/stages/pos_strategy.hpp"

namespace zero::core {

tensor::Tensor StageContext::NewDevice(std::int64_t numel, DType dt) const {
  if (device != nullptr) {
    return tensor::Tensor::Device(*device, {numel}, dt);
  }
  return tensor::Tensor::Heap({numel}, dt);
}

void StageContext::ExactReduceToRoot(std::span<float> data, int root) {
  // Gather to root and sum in rank order 0..Nd-1: the bracketing is
  // independent of which collective algorithm a stage uses, so every
  // stage produces bit-identical sums.
  const std::uint64_t tag = p2p_tag++;
  if (rank() == root) {
    std::vector<float> acc(data.size(), 0.0f);
    std::vector<float> incoming(data.size());
    for (int r = 0; r < nd(); ++r) {
      if (r == rank()) {
        for (std::size_t i = 0; i < data.size(); ++i) acc[i] += data[i];
      } else {
        dp->Recv(r, std::span<float>(incoming), tag);
        for (std::size_t i = 0; i < data.size(); ++i) acc[i] += incoming[i];
      }
    }
    std::memcpy(data.data(), acc.data(), data.size_bytes());
  } else {
    dp->Send(root, std::span<const float>(data.data(), data.size()), tag);
  }
}

void StageContext::ExactAllReduceSum(std::span<float> data) {
  ExactReduceToRoot(data, 0);
  dp->Broadcast(data, 0);
}

void StoreUnitGradFull(StageContext& ctx, tensor::Tensor& grads, int u,
                       std::span<const float> grad) {
  const auto [ub, ue] = ctx.model->layout().UnitRange(u);
  (void)ue;
  if (ctx.cfg->fp16) {
    ScaledFloatToHalf(grad.data(), ctx.loss_scale, grads.f16().data() + ub,
                      grad.size());
  } else {
    std::memcpy(grads.f32().data() + ub, grad.data(), grad.size_bytes());
  }
}

std::unique_ptr<StageStrategy> MakeStageStrategy(StageContext& ctx) {
  switch (ctx.cfg->stage) {
    case model::ZeroStage::kNone:
      return std::make_unique<BaselineDdpStrategy>(ctx);
    case model::ZeroStage::kOs:
      return std::make_unique<PosStrategy>(ctx);
    case model::ZeroStage::kOsG:
      return std::make_unique<PosGStrategy>(ctx);
    case model::ZeroStage::kOsGP:
      return std::make_unique<PosGPStrategy>(ctx);
  }
  ZERO_CHECK(false, "unknown ZeRO stage");
  return nullptr;
}

}  // namespace zero::core
