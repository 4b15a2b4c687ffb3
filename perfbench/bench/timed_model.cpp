#include "timed_model.hpp"

#include <chrono>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace model = zero::model;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Forwards to the engine's provider and sink, charging each call's wall
// time to the current step's record.
class TimingProxy final : public model::ParamProvider,
                          public model::GradSink {
 public:
  TimingProxy(model::ParamProvider& params, model::GradSink& grads,
              StepTiming& rec)
      : params_(&params), grads_(&grads), rec_(&rec) {}

  std::span<const float> AcquireUnit(int u, model::Phase phase) override {
    const auto t0 = Clock::now();
    const std::span<const float> s = params_->AcquireUnit(u, phase);
    rec_->acquire_ms += MsSince(t0);
    ++rec_->acquire_calls;
    return s;
  }
  void ReleaseUnit(int u, model::Phase phase) override {
    const auto t0 = Clock::now();
    params_->ReleaseUnit(u, phase);
    rec_->release_ms += MsSince(t0);
  }
  void EmitUnitGrad(int u, std::span<const float> grad) override {
    const auto t0 = Clock::now();
    grads_->EmitUnitGrad(u, grad);
    rec_->emit_ms += MsSince(t0);
    ++rec_->emit_calls;
  }

 private:
  model::ParamProvider* params_;
  model::GradSink* grads_;
  StepTiming* rec_;
};

}  // namespace

float TimedModel::Step(const model::Batch& batch, model::ParamProvider& params,
                       model::GradSink& grads) {
  StepTiming rec;
  TimingProxy proxy(params, grads, rec);
  const auto t0 = Clock::now();
  const float loss = inner_->Step(batch, proxy, proxy);
  rec.step_ms = MsSince(t0);
  steps_.push_back(rec);
  return loss;
}

}  // namespace perfbench
