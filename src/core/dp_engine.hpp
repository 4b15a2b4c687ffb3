// ZeRO-DP: the paper's primary contribution (Sec 5 and Sec 7).
//
// One ZeroDpEngine runs per rank over its data-parallel group. It owns
// all persistent training state for that rank and implements the
// ParamProvider / GradSink contract the model trains through:
//
//   stage 0 (baseline DDP)  params 2Psi | grads 2Psi | opt K*Psi
//     gradients all-reduced at step end; full local Adam.
//   stage 1 (Pos)           params 2Psi | grads 2Psi | opt K*Psi/Nd
//     gradients reduce-scattered; rank updates only its partition's
//     optimizer state; updated fp16 parameters all-gathered.
//   stage 2 (Pos+g)         params 2Psi | grads 2Psi/Nd | opt K*Psi/Nd
//     gradients reduced to their partition owner *during backward* in
//     partition-aligned buckets and released immediately; otherwise as
//     stage 1. Same 2Psi communication volume as baseline (Sec 7.2.1).
//   stage 3 (Pos+g+p)       everything /Nd
//     parameters stored partitioned; each unit is materialized by
//     broadcast from its owners right before use and discarded right
//     after (forward and again in backward), totalling 3Psi volume
//     (Sec 7.2.2). No parameter all-gather at step end.
//
// The engine itself is a thin orchestrator: it runs the machinery every
// stage shares — gradient accumulation, overflow detection and loss
// scaling, gradient clipping, the (possibly partitioned) mixed-precision
// Adam update, offload accounting, and checkpoint export/import.
// Everything the paper varies per stage (parameter residency, the
// gradient path, the post-backward reduction) lives behind the
// StageStrategy picked by MakeStageStrategy at construction; see
// core/stages/stage_strategy.hpp.
//
// Precision: fp16 mode stores parameters and gradients as real fp16
// device tensors with loss scaling and keeps fp32 master+momentum+
// variance in the (possibly partitioned) MixedPrecisionAdam — K = 12.
// fp32 mode exists for exact-equivalence tests, optionally with
// deterministic rank-ordered reductions so every stage produces
// bit-identical trajectories.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "alloc/caching_allocator.hpp"
#include "alloc/host_memory.hpp"
#include "alloc/tier.hpp"
#include "comm/communicator.hpp"
#include "core/engine_config.hpp"
#include "core/partition.hpp"
#include "core/stages/stage_strategy.hpp"
#include "core/state_checkpoint.hpp"
#include "model/flat_model.hpp"
#include "model/transformer_spec.hpp"
#include "optim/adam.hpp"
#include "optim/loss_scaler.hpp"
#include "optim/shard_optimizer.hpp"
#include "tensor/tensor.hpp"

namespace zero::core {

// Persistent per-rank model-state footprint, measured from live tensors.
struct ModelStateReport {
  std::size_t param_bytes = 0;
  std::size_t grad_bytes = 0;
  std::size_t optimizer_bytes = 0;
  bool optimizer_on_host = false;  // offload_tier moved it off-device
  [[nodiscard]] std::size_t total() const {
    return param_bytes + grad_bytes + optimizer_bytes;
  }
  [[nodiscard]] std::size_t device_total() const {
    return param_bytes + grad_bytes +
           (optimizer_on_host ? 0 : optimizer_bytes);
  }
};

class ZeroDpEngine final : public model::ParamProvider, public model::GradSink {
 public:
  // `device` may be null (heap-backed state, no capacity accounting).
  // `host_pool` backs the host storage tier when the optimizer is
  // offloaded; null makes the engine own a private pool. All DP ranks
  // must construct with identical config/seed.
  ZeroDpEngine(EngineConfig config, model::FlatParamModel& model,
               comm::Communicator& dp, alloc::CachingAllocator* device,
               std::uint64_t seed, alloc::HostMemory* host_pool = nullptr);
  ~ZeroDpEngine() override;

  // One synchronous data-parallel training step on this rank's
  // microbatch. Collective; all DP ranks must call together. With
  // accumulation_steps > 1, the optimizer (and the stage-1/2 parameter
  // all-gather) only runs on every Nth call.
  float TrainStep(const model::Batch& batch);

  // Forward/backward without touching any training state — gradients are
  // discarded at the sink. Collective for stage 3 (parameters are
  // fetched from their owners); all DP ranks must call together.
  float EvalLoss(const model::Batch& batch);

  // ---- ParamProvider / GradSink (called by the model inside Step) ----
  std::span<const float> AcquireUnit(int u, model::Phase phase) override;
  void ReleaseUnit(int u, model::Phase phase) override;
  void EmitUnitGrad(int u, std::span<const float> grad) override;

  // ---- introspection ----
  [[nodiscard]] ModelStateReport MeasureModelStates() const;
  [[nodiscard]] const Partitioner& partitioner() const { return part_; }
  [[nodiscard]] const EngineConfig& config() const { return cfg_; }
  [[nodiscard]] std::int64_t steps_taken() const { return steps_; }
  // The loss scale currently applied to emitted gradients.
  [[nodiscard]] float current_loss_scale() const;
  // Optimizer updates skipped due to fp16 gradient overflow, under a
  // static or a dynamic loss scale.
  [[nodiscard]] std::int64_t skipped_steps() const { return skipped_; }
  // Global (clipped-from) gradient norm of the last completed update; 0
  // before the first update or when clipping is off.
  [[nodiscard]] float last_grad_norm() const { return last_grad_norm_; }
  // Host<->device bytes attributable to optimizer offload so far
  // (measured on the storage tier's link; 0 when device-resident).
  [[nodiscard]] std::uint64_t optimizer_transfer_bytes() const {
    return opt_->transfer_bytes();
  }
  // Link ledger of the offload tier; null when device-resident.
  [[nodiscard]] const alloc::ChannelStats* offload_channel_stats() const;
  // The intra-node slice of the DP group; null unless hpZ or qgZ is
  // active. Its CommStats ledger is the intra-node traffic the DP ledger
  // no longer sees — the step report splits measured volume on this
  // boundary.
  [[nodiscard]] const comm::Communicator* local_comm() const {
    return local_comm_.has_value() ? &*local_comm_ : nullptr;
  }
  // The ZeRO++ compression paths actually engaged after the engine
  // resolved fp16/exactness/topology requirements (in qwz/hpz/qgz
  // order).
  [[nodiscard]] bool qwz_active() const { return ctx_.qwz; }
  [[nodiscard]] bool hpz_active() const { return ctx_.hpz; }
  [[nodiscard]] bool qgz_active() const { return ctx_.qgz; }
  // Materializes the full fp32 parameter vector. Collective for stage 3
  // (parameters must be fetched from their owners).
  [[nodiscard]] std::vector<float> GatherFullParams();

  // ---- training-state checkpointing (collective) ----
  // Re-assembles the full, Nd-independent training state (fp32 master
  // parameters, Adam momentum/variance, step clock, loss scale) by
  // all-gathering every rank's shard. All DP ranks must call together;
  // every rank receives the same state. Must not be called mid
  // accumulation cycle.
  [[nodiscard]] TrainingState ExportState();
  // Re-partitions `state` onto this engine — possibly under a different
  // DP degree than it was saved with (elastic resume). Rebuilds the
  // working fp16/fp32 parameters from the imported master copy and
  // resets any in-flight accumulation.
  void ImportState(const TrainingState& state);

 private:
  // -- setup --
  void InitState(std::uint64_t seed);

  void AccumulateReduced();
  [[nodiscard]] bool DetectGlobalOverflow();
  // Returns the multiplicative clip coefficient (1 when disabled) and
  // records last_grad_norm_.
  [[nodiscard]] float ComputeClipCoefficient(float base_scale);
  void ApplyUpdate();

  [[nodiscard]] int rank() const { return dp_->rank(); }
  [[nodiscard]] int nd() const { return dp_->size(); }

  EngineConfig cfg_;
  model::FlatParamModel* model_;
  comm::Communicator* dp_;
  alloc::CachingAllocator* device_;
  alloc::HostMemory* host_pool_;  // backs the host tier (may be owned_host_)
  Partitioner part_;
  std::int64_t steps_ = 0;

  // This rank's intra-node block of the DP group (hpZ/qgZ only).
  std::optional<comm::Communicator> local_comm_;

  // Per-stage behavior: parameter residency, gradient path, reduction.
  StageContext ctx_;
  std::unique_ptr<StageStrategy> strategy_;

  // fp32 accumulation buffer (allocated only when accumulation_steps >
  // 1): shard-sized for partitioned stages, full for the baseline.
  tensor::Tensor acc_;
  int micro_ = 0;

  // Storage tier behind the optimizer state (host/NVMe; null for
  // kDevice). Declared before opt_: the offload engine releases its
  // regions into the tier on destruction.
  std::optional<alloc::HostMemory> owned_host_;
  std::unique_ptr<alloc::StorageTier> tier_;
  // Partitioned (stages 1-3) or full (stage 0) optimizer shard:
  // MixedPrecisionAdam on the device (kDevice), the streaming
  // OffloadEngine otherwise.
  std::unique_ptr<optim::ShardOptimizer> opt_;

  std::optional<optim::DynamicLossScaler> scaler_;
  std::int64_t skipped_ = 0;
  float last_grad_norm_ = 0.0f;
};

}  // namespace zero::core
