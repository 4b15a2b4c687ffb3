#include "core/dp_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "comm/topology.hpp"
#include "core/offload_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels.hpp"
#include "tensor/parallel_for.hpp"

namespace zero::core {

using model::Phase;
using tensor::Tensor;

ZeroDpEngine::ZeroDpEngine(EngineConfig config, model::FlatParamModel& model,
                           comm::Communicator& dp,
                           alloc::CachingAllocator* device, std::uint64_t seed,
                           alloc::HostMemory* host_pool)
    : cfg_(config),
      model_(&model),
      dp_(&dp),
      device_(device),
      host_pool_(host_pool),
      part_(model.layout().total_numel(), dp.size()) {
  ValidateEngineConfig(cfg_);
  if (cfg_.intra_op_workers > 0) {
    // One engine per rank thread runs concurrently; divide the machine
    // so rank_threads x workers never oversubscribes it. (The worker
    // count is deliberately not part of the numeric contract — kernels
    // are bitwise-identical at any setting.)
    const int budget =
        std::max(1, tensor::HardwareConcurrency() / dp.size());
    tensor::SetIntraOpWorkers(std::min(cfg_.intra_op_workers, budget));
  }
  InitState(seed);
}

ZeroDpEngine::~ZeroDpEngine() = default;

void ZeroDpEngine::InitState(std::uint64_t seed) {
  const std::int64_t padded = part_.padded_total();
  const std::int64_t shard = part_.partition_size();
  const Range own = part_.PartitionRange(rank());

  // Deterministic full initialization, identical on every DP rank.
  std::vector<float> init(static_cast<std::size_t>(padded), 0.0f);
  model_->InitParameters(
      std::span<float>(init.data(), static_cast<std::size_t>(part_.total())),
      seed);

  ctx_.cfg = &cfg_;
  ctx_.model = model_;
  ctx_.dp = dp_;
  ctx_.device = device_;
  ctx_.part = &part_;
  // ---- resolve the node topology + ZeRO++ compression flags ----
  // Every node-aware schedule needs equal node sizes; an uneven DP
  // degree falls back to flat (NodeTopology itself degrades cleanly but
  // the two-level shard math would not).
  const bool nodes_uniform = cfg_.ranks_per_node > 1 && nd() > 1 &&
                             nd() % cfg_.ranks_per_node == 0;
  // exact_reductions is the bit-exact escape hatch: it disables every
  // lossy or re-bracketed path wholesale, qwZ/hpZ/qgZ included.
  const bool lossy_ok = cfg_.fp16 && !cfg_.exact_reductions;
  ctx_.qwz = cfg_.qwz && lossy_ok && nd() > 1;
  ctx_.hpz = cfg_.hpz && lossy_ok && nodes_uniform &&
             cfg_.stage == model::ZeroStage::kOsGP;
  ctx_.qgz = cfg_.qgz && lossy_ok && nodes_uniform &&
             (cfg_.stage == model::ZeroStage::kOsG ||
              cfg_.stage == model::ZeroStage::kOsGP);
  if (ctx_.hpz || ctx_.qgz) {
    // Slice the DP group into node-sized blocks: the hpZ secondary shard
    // and the qgZ intra-node fold run on the local slice.
    comm::NodeTopology topo(*dp_, cfg_.ranks_per_node);
    local_comm_.emplace(topo.MakeLocalComm(dp_->context()));
    ctx_.local = &*local_comm_;
    ctx_.node_size = cfg_.ranks_per_node;
  }
  strategy_ = MakeStageStrategy(ctx_);
  strategy_->InitParams(init);

  if (cfg_.accumulation_steps > 1) {
    acc_ = ctx_.NewDevice(strategy_->state_partitioned() ? shard : padded,
                          DType::kF32);
    acc_.FillZero();
  }
  if (cfg_.dynamic_loss_scale) scaler_.emplace(cfg_.scaler);

  // Optimizer: full for baseline DDP, this rank's partition otherwise.
  // The fp32 master copy is seeded from the *unrounded* initialization —
  // it is the authoritative weight state (Sec 3.1). With an offload
  // tier the K=12 bytes/param live behind the storage tier (host DRAM
  // or simulated NVMe) and stream through the OffloadEngine instead of
  // sitting on the device.
  const std::span<const float> opt_init =
      strategy_->state_partitioned()
          ? std::span<const float>(init.data() + own.begin,
                                   static_cast<std::size_t>(shard))
          : std::span<const float>(init);
  if (cfg_.offload_tier == alloc::TierKind::kDevice) {
    opt_ = std::make_unique<optim::MixedPrecisionAdam>(cfg_.adam, device_,
                                                       opt_init);
  } else {
    if (cfg_.offload_tier == alloc::TierKind::kHost && host_pool_ == nullptr) {
      owned_host_.emplace();
      host_pool_ = &*owned_host_;
    }
    tier_ = alloc::MakeStorageTier(cfg_.offload_tier, host_pool_,
                                   cfg_.offload_bandwidth);
    OffloadOptions opts;
    opts.slice_elems = cfg_.offload_slice_elems;
    opts.eager_grads =
        cfg_.offload_eager_grads && cfg_.accumulation_steps == 1;
    auto offload = std::make_unique<OffloadEngine>(cfg_.adam, *tier_,
                                                   opt_init, opts);
    // Gradient slices stream to the tier as the backward reduction
    // finalizes them (rank-local: cannot perturb SPMD schedules).
    if (opts.eager_grads) ctx_.grad_stream = offload.get();
    opt_ = std::move(offload);
  }
}

const alloc::ChannelStats* ZeroDpEngine::offload_channel_stats() const {
  return tier_ != nullptr ? &tier_->channel()->stats() : nullptr;
}

// ---------------------------------------------------------------------
// ParamProvider / GradSink
// ---------------------------------------------------------------------

std::span<const float> ZeroDpEngine::AcquireUnit(int u, Phase phase) {
  return strategy_->AcquireUnit(u, phase);
}

void ZeroDpEngine::ReleaseUnit(int u, Phase phase) {
  strategy_->ReleaseUnit(u, phase);
}

void ZeroDpEngine::EmitUnitGrad(int u, std::span<const float> grad) {
  const auto [ub, ue] = model_->layout().UnitRange(u);
  ZERO_CHECK(grad.size() == static_cast<std::size_t>(ue - ub),
             "unit gradient size mismatch");
  strategy_->EmitUnitGrad(u, grad);
}

// ---------------------------------------------------------------------
// Step orchestration
// ---------------------------------------------------------------------

float ZeroDpEngine::TrainStep(const model::Batch& batch) {
  TRACE_SPAN("engine/step");
  // Named injectable point: a crash/hang/slow rule scheduled "at the
  // step" fires here, before any collective of the step has started.
  dp_->FaultPoint("step");
  const std::uint64_t step_t0 = obs::TraceNowNs();
  ctx_.loss_scale = current_loss_scale();
  strategy_->OnStepBegin();

  float loss;
  {
    TRACE_SPAN("engine/fwd_bwd");
    loss = model_->Step(batch, *this, *this);
  }

  {
    TRACE_SPAN("engine/reduce_grads");
    strategy_->ReduceGradients();
  }

  if (cfg_.accumulation_steps > 1) {
    TRACE_SPAN("engine/accumulate");
    AccumulateReduced();
    if (++micro_ < cfg_.accumulation_steps) {
      return loss;  // mid-cycle micro-step: no update, no all-gather
    }
  } else {
    micro_ = 1;
  }

  {
    TRACE_SPAN("engine/apply_update");
    ApplyUpdate();
  }
  micro_ = 0;
  if (acc_.defined()) acc_.FillZero();
  ++steps_;

  static obs::Counter& steps_total = obs::Metrics().counter("engine.steps");
  static obs::Histogram& step_ms = obs::Metrics().histogram("engine.step_ms");
  static obs::Gauge& scale = obs::Metrics().gauge("engine.loss_scale");
  steps_total.Add();
  step_ms.Observe(static_cast<double>(obs::TraceNowNs() - step_t0) / 1e6);
  scale.Set(current_loss_scale());
  return loss;
}

float ZeroDpEngine::EvalLoss(const model::Batch& batch) {
  struct DiscardSink final : model::GradSink {
    void EmitUnitGrad(int, std::span<const float>) override {}
  };
  DiscardSink sink;
  return model_->Step(batch, *this, sink);
}

void ZeroDpEngine::AccumulateReduced() {
  std::span<float> acc = acc_.f32();
  if (cfg_.fp16) {
    std::span<const Half> src = strategy_->ReducedF16();
    ZERO_CHECK(src.size() == acc.size(), "accumulator size mismatch");
    AccumulateHalf(src.data(), acc.data(), acc.size());
  } else {
    std::span<const float> src = strategy_->ReducedF32();
    ZERO_CHECK(src.size() == acc.size(), "accumulator size mismatch");
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += src[i];
  }
  // Stage 2/3 shard buffers are fully overwritten by the next flush and
  // stage 0/1 buffers by the next emission, so no zeroing is needed.
}

bool ZeroDpEngine::DetectGlobalOverflow() {
  bool local = false;
  if (acc_.defined()) {
    local = AnyInfOrNan(acc_.f32().data(), acc_.f32().size());
  } else if (cfg_.fp16) {
    const std::span<const Half> g = strategy_->ReducedF16();
    local = AnyInfOrNan(g.data(), g.size());
  } else {
    const std::span<const float> g = strategy_->ReducedF32();
    local = AnyInfOrNan(g.data(), g.size());
  }
  // Every rank must agree before the scaler is consulted, or the SPMD
  // ranks would diverge on whether the update happened.
  float flag = local ? 1.0f : 0.0f;
  dp_->AllReduce(std::span<float>(&flag, 1), comm::ReduceOp::kMax);
  return flag > 0.5f;
}

float ZeroDpEngine::ComputeClipCoefficient(float base_scale) {
  float total_sq = 0.0f;
  if (acc_.defined()) {
    const auto v = acc_.f32();
    total_sq = tensor::SquaredNorm(v.data(),
                                   static_cast<std::int64_t>(v.size()));
  } else if (cfg_.fp16) {
    const auto v = strategy_->ReducedF16();
    total_sq = tensor::SquaredNormF16(v.data(),
                                      static_cast<std::int64_t>(v.size()));
  } else {
    const auto v = strategy_->ReducedF32();
    total_sq = tensor::SquaredNorm(v.data(),
                                   static_cast<std::int64_t>(v.size()));
  }
  if (strategy_->state_partitioned()) {
    // Partitioned stages each hold 1/Nd of the gradient: sum the shard
    // norms. (The baseline holds the full reduced gradient everywhere.)
    dp_->AllReduce(std::span<float>(&total_sq, 1), comm::ReduceOp::kSum);
  }
  const float norm =
      std::sqrt(std::max(total_sq, 0.0f)) * base_scale;  // unscaled norm
  last_grad_norm_ = norm;
  if (cfg_.max_grad_norm <= 0.0f || norm <= cfg_.max_grad_norm) {
    return 1.0f;
  }
  return cfg_.max_grad_norm / (norm + 1e-6f);
}

void ZeroDpEngine::ApplyUpdate() {
  const int accum = cfg_.accumulation_steps;
  // Reduced gradients carry a factor of loss_scale (fp16) and a sum over
  // Nd ranks and accum micro-steps; the optimizer divides it back out.
  const float base_scale =
      1.0f / (static_cast<float>(nd()) * static_cast<float>(accum) *
              (cfg_.fp16 ? current_loss_scale() : 1.0f));

  if (cfg_.fp16) {
    bool overflow;
    {
      TRACE_SPAN("engine/overflow_detect");
      overflow = DetectGlobalOverflow();
    }
    // A static scale never changes; a dynamic one backs off on overflow.
    if (scaler_.has_value() ? !scaler_->Update(overflow) : overflow) {
      // Skip this update entirely. The strategy's post-update work
      // (parameter all-gather, gradient zeroing) is skipped with it —
      // grads are overwritten next step.
      ++skipped_;
      static obs::Counter& skipped =
          obs::Metrics().counter("engine.skipped_steps");
      skipped.Add();
      // Gradient slices staged ahead for the offloaded update are for a
      // step that will never run.
      opt_->DiscardStagedGradients();
      return;
    }
  }

  float grad_scale = base_scale;
  if (cfg_.max_grad_norm > 0.0f) {
    TRACE_SPAN("engine/clip_norm");
    grad_scale *= ComputeClipCoefficient(base_scale);
  }

  if (acc_.defined()) {
    if (cfg_.fp16) {
      opt_->StepFromF32(strategy_->UpdateTargetF16(), acc_.f32(), grad_scale);
    } else {
      opt_->StepF32(strategy_->UpdateTargetF32(), acc_.f32(), grad_scale);
    }
  } else if (cfg_.fp16) {
    // MixedPrecisionAdam::Step divides by its loss_scale argument.
    opt_->Step(strategy_->UpdateTargetF16(), strategy_->ReducedF16(),
               1.0f / grad_scale);
  } else {
    opt_->StepF32(strategy_->UpdateTargetF32(), strategy_->ReducedF32(),
                  grad_scale);
  }

  strategy_->OnUpdateApplied();
}

// ---------------------------------------------------------------------
// Training-state checkpointing
// ---------------------------------------------------------------------

TrainingState ZeroDpEngine::ExportState() {
  ZERO_CHECK(micro_ == 0, "cannot export state mid accumulation cycle");
  TrainingState state;
  state.total_numel = part_.total();
  state.step_count = opt_->step_count();
  state.loss_scale = current_loss_scale();
  if (scaler_.has_value()) {
    const optim::DynamicLossScaler::State s = scaler_->Export();
    state.scaler_steps_since_backoff = s.steps_since_backoff;
    state.scaler_skipped = s.skipped;
    state.scaler_good = s.good;
  }

  const std::size_t total = static_cast<std::size_t>(part_.total());
  const std::size_t padded = static_cast<std::size_t>(part_.padded_total());
  const std::size_t shard = static_cast<std::size_t>(part_.partition_size());

  auto assemble = [&](optim::OptStateKind kind) {
    std::vector<float> full(total);
    if (!strategy_->state_partitioned()) {
      // Every rank already holds the full (padded) state.
      std::vector<float> local(padded);
      opt_->CopyStateOut(kind, local);
      std::memcpy(full.data(), local.data(), total * sizeof(float));
    } else {
      std::vector<float> local(shard);
      opt_->CopyStateOut(kind, local);
      std::vector<float> gathered(padded);
      dp_->AllGather(std::span<const float>(local),
                     std::span<float>(gathered));
      std::memcpy(full.data(), gathered.data(), total * sizeof(float));
    }
    return full;
  };

  state.master = assemble(optim::OptStateKind::kMaster);
  state.momentum = assemble(optim::OptStateKind::kMomentum);
  state.variance = assemble(optim::OptStateKind::kVariance);
  return state;
}

void ZeroDpEngine::ImportState(const TrainingState& state) {
  ZERO_CHECK(state.total_numel == part_.total(),
             "checkpoint is for a different model (numel mismatch)");
  const Range own = part_.PartitionRange(rank());
  const std::size_t total = static_cast<std::size_t>(part_.total());
  const std::size_t padded = static_cast<std::size_t>(part_.padded_total());

  auto scatter = [&](optim::OptStateKind kind, const std::vector<float>& full) {
    // Pad the full array so tail shards read zeros beyond total().
    std::vector<float> padded_full(padded, 0.0f);
    std::memcpy(padded_full.data(), full.data(), total * sizeof(float));
    if (!strategy_->state_partitioned()) {
      opt_->CopyStateIn(kind, padded_full);
    } else {
      opt_->CopyStateIn(
          kind, std::span<const float>(padded_full.data() + own.begin,
                                       static_cast<std::size_t>(own.size())));
    }
  };

  scatter(optim::OptStateKind::kMaster, state.master);
  scatter(optim::OptStateKind::kMomentum, state.momentum);
  scatter(optim::OptStateKind::kVariance, state.variance);
  opt_->set_step_count(state.step_count);
  steps_ = state.step_count;

  // Rebuild the working parameters from the (authoritative) master copy.
  std::vector<float> padded_master(padded, 0.0f);
  std::memcpy(padded_master.data(), state.master.data(),
              total * sizeof(float));
  strategy_->ImportMasterParams(padded_master);

  // Reset in-flight step state.
  strategy_->ResetInFlight();
  opt_->DiscardStagedGradients();
  if (acc_.defined()) acc_.FillZero();
  micro_ = 0;
  if (scaler_.has_value()) {
    // Resume the full control loop, not just the scale: the growth
    // countdown must pick up exactly where the checkpoint left it or
    // the next doubling lands on a different step.
    scaler_.emplace(cfg_.scaler);
    scaler_->Restore({state.loss_scale, state.scaler_steps_since_backoff,
                      state.scaler_skipped, state.scaler_good});
    skipped_ = state.scaler_skipped;
  }
}

float ZeroDpEngine::current_loss_scale() const {
  if (!cfg_.fp16) return 1.0f;
  return scaler_.has_value() ? scaler_->scale() : cfg_.loss_scale;
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

ModelStateReport ZeroDpEngine::MeasureModelStates() const {
  ModelStateReport r;
  r.param_bytes = strategy_->param_bytes();
  r.grad_bytes = strategy_->grad_bytes();
  r.optimizer_bytes = static_cast<std::size_t>(
      static_cast<double>(opt_->numel()) *
      optim::MixedPrecisionAdam::kStateBytesPerParam);
  r.optimizer_on_host = cfg_.offload_tier != alloc::TierKind::kDevice;
  return r;
}

std::vector<float> ZeroDpEngine::GatherFullParams() {
  std::vector<float> out(static_cast<std::size_t>(part_.total()));
  strategy_->GatherFullParams(out);
  return out;
}

}  // namespace zero::core
