// Timing decorator for a FlatParamModel.
//
// The ZeRO engine drives the model through Step(batch, provider, sink)
// and the model calls back into the engine's ParamProvider / GradSink
// for every unit. Wrapping the model splits one Step into the model's
// own compute and the nested calls into the stage strategy (parameter
// acquire/release, gradient emission) without touching the runtime: the
// decorator forwards every call unchanged, so the arithmetic is
// identical to the undecorated model.
#pragma once

#include <cstdint>
#include <vector>

#include "model/flat_model.hpp"

namespace perfbench {

// Wall time of one Step and of the calls it made into the engine.
struct StepTiming {
  double step_ms = 0.0;
  double acquire_ms = 0.0;
  double release_ms = 0.0;
  double emit_ms = 0.0;
  std::int64_t acquire_calls = 0;
  std::int64_t emit_calls = 0;

  [[nodiscard]] double nested_ms() const {
    return acquire_ms + release_ms + emit_ms;
  }
  // Step time the model spent in its own code.
  [[nodiscard]] double self_ms() const { return step_ms - nested_ms(); }
};

class TimedModel final : public zero::model::FlatParamModel {
 public:
  explicit TimedModel(zero::model::FlatParamModel& inner) : inner_(&inner) {}

  [[nodiscard]] const zero::model::ParamLayout& layout() const override {
    return inner_->layout();
  }
  void InitParameters(std::span<float> flat,
                      std::uint64_t seed) const override {
    inner_->InitParameters(flat, seed);
  }
  float Step(const zero::model::Batch& batch,
             zero::model::ParamProvider& params,
             zero::model::GradSink& grads) override;

  // One entry per Step call since construction or the last Clear().
  [[nodiscard]] const std::vector<StepTiming>& steps() const {
    return steps_;
  }
  void Clear() { steps_.clear(); }

 private:
  zero::model::FlatParamModel* inner_;
  std::vector<StepTiming> steps_;
};

}  // namespace perfbench
