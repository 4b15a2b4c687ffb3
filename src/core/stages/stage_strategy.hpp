// Per-stage behavior of the ZeRO-DP engine, factored behind one
// interface (the paper's Sec 5 and Sec 7).
//
// ZeroDpEngine is a thin orchestrator: it owns the machinery every stage
// shares — gradient accumulation, overflow detection and loss scaling,
// gradient clipping, the (possibly partitioned) mixed-precision Adam
// update, optimizer offload accounting, and checkpoint export/import.
// Everything the paper varies *per stage* lives behind StageStrategy,
// along three seams:
//
//   1. Parameter residency (AcquireUnit/ReleaseUnit): full resident copy
//      handed out as a view (stages 0-2) vs. this rank's partition plus
//      broadcast-on-demand materialization of each unit (stage 3).
//   2. The gradient path (EmitUnitGrad): store into a full-size gradient
//      vector (stages 0-1) vs. partition-aligned bucketized reduce to
//      the owner during backward (stages 2-3).
//   3. The post-backward reduction (ReduceGradients): all-reduce vs.
//      reduce-scatter vs. already-reduced-at-owner drain.
//
// One strategy instance exists per engine; the factory maps
//   ZeroStage::kNone -> BaselineDdpStrategy   params 2Ψ | grads 2Ψ
//   ZeroStage::kOs   -> PosStrategy           optimizer KΨ/Nd
//   ZeroStage::kOsG  -> PosGStrategy          + grads 2Ψ/Nd
//   ZeroStage::kOsGP -> PosGPStrategy         + params 2Ψ/Nd
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "alloc/caching_allocator.hpp"
#include "comm/communicator.hpp"
#include "core/engine_config.hpp"
#include "core/partition.hpp"
#include "model/flat_model.hpp"
#include "tensor/tensor.hpp"

namespace zero::core {

// Observer for gradient finality during the backward reduction. A
// strategy notifies when a contiguous element range of *this rank's
// reduced gradient shard* holds its final bits (fully reduced, no
// further writes this step): whole-shard after an all-reduce (stages
// 0-1), per merged chunk as the bucketized reduce-to-owner completes
// (stages 2-3). The byte span is in the working dtype and only valid
// for the duration of the call. The offload engine uses this to stream
// gradient slices off the device while backward is still running.
class GradStreamSink {
 public:
  virtual ~GradStreamSink() = default;
  // `bytes` views `numel` elements starting at shard element
  // `begin_elem` (element width = bytes.size() / numel).
  virtual void OnShardGradFinal(std::int64_t begin_elem, std::int64_t numel,
                                std::span<const std::byte> bytes) = 0;
};

// Everything a strategy needs from its engine. Owned by the engine and
// outlives the strategy; strategies hold a pointer.
struct StageContext {
  const EngineConfig* cfg = nullptr;
  model::FlatParamModel* model = nullptr;
  comm::Communicator* dp = nullptr;
  // The intra-node block of `dp` (EngineConfig::ranks_per_node) that
  // hpZ and qgZ run on. Null when neither is active.
  comm::Communicator* local = nullptr;
  // ---- ZeRO++ compression, resolved by the engine (fp16 && !exact
  // reductions && the topology requirements hold; see engine_config) ----
  bool qwz = false;  // int8-quantized parameter gathers/broadcasts
  bool hpz = false;  // secondary intra-node shard for backward gathers
  bool qgz = false;  // hierarchical quantized gradient reduce
  // Equal node size backing hpz/qgz (== local->size() when they are on).
  int node_size = 1;
  alloc::CachingAllocator* device = nullptr;  // null => heap-backed state
  const Partitioner* part = nullptr;
  // Loss scale applied to fp16 gradient emission; the orchestrator
  // refreshes it before each backward pass (dynamic scaling).
  float loss_scale = 1.0f;
  // Deterministic point-to-point tag sequence. SPMD-consistent: every
  // rank advances it at the same call sites, so a value drawn here
  // matches across ranks without negotiation.
  std::uint64_t p2p_tag = 1;
  // When set, strategies report gradient finality here (see
  // GradStreamSink). Rank-local: notifications never touch the
  // communicator, so installing the sink cannot perturb SPMD schedules.
  GradStreamSink* grad_stream = nullptr;

  void NotifyGradFinal(std::int64_t begin_elem, std::int64_t numel,
                       std::span<const std::byte> bytes) const {
    if (grad_stream != nullptr) {
      grad_stream->OnShardGradFinal(begin_elem, numel, bytes);
    }
  }

  [[nodiscard]] int rank() const { return dp->rank(); }
  [[nodiscard]] int nd() const { return dp->size(); }
  [[nodiscard]] DType work_dtype() const {
    return cfg->fp16 ? DType::kF16 : DType::kF32;
  }
  // `device` may be null (heap-backed state, no capacity accounting).
  [[nodiscard]] tensor::Tensor NewDevice(std::int64_t numel, DType dt) const;

  // Deterministic rank-ordered reductions (exact_reductions mode):
  // gather at `root` / rank 0 and sum in rank order 0..Nd-1. The
  // bracketing is independent of which collective schedule a stage uses,
  // so every stage produces bit-identical sums.
  void ExactReduceToRoot(std::span<float> data, int root);
  void ExactAllReduceSum(std::span<float> data);
};

class StageStrategy {
 public:
  explicit StageStrategy(StageContext& ctx) : ctx_(&ctx) {}
  virtual ~StageStrategy() = default;
  StageStrategy(const StageStrategy&) = delete;
  StageStrategy& operator=(const StageStrategy&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  // ---- layout facts the orchestrator sizes shared machinery by ----
  // fp16/fp32 working parameters stored as this rank's 1/Nd partition
  // (stage 3) rather than a full replica.
  [[nodiscard]] virtual bool params_partitioned() const { return false; }
  // Reduced gradients, the accumulation buffer, and the optimizer state
  // are 1/Nd-sized (stages 1-3); the baseline keeps them full-size.
  [[nodiscard]] virtual bool state_partitioned() const { return true; }

  // ---- setup ----
  // `padded_init` is the deterministic full initialization, identical on
  // every rank, padded to part->padded_total().
  virtual void InitParams(std::span<const float> padded_init) = 0;

  // ---- seam 1: parameter residency ----
  virtual std::span<const float> AcquireUnit(int u, model::Phase phase) = 0;
  virtual void ReleaseUnit(int u, model::Phase phase) = 0;

  // ---- seam 2: gradient path ----
  virtual void OnStepBegin() = 0;
  virtual void EmitUnitGrad(int u, std::span<const float> grad) = 0;

  // ---- seam 3: post-backward reduction ----
  // Afterwards this rank's reduced gradients are what ReducedF16/F32
  // return; also verifies the model released every unit and covered the
  // full parameter space.
  virtual void ReduceGradients() = 0;

  // ---- optimizer seams ----
  [[nodiscard]] virtual std::span<const Half> ReducedF16() = 0;
  [[nodiscard]] virtual std::span<const float> ReducedF32() = 0;
  // The fp16 (or fp32) parameter span the optimizer updates.
  [[nodiscard]] virtual std::span<Half> UpdateTargetF16() = 0;
  [[nodiscard]] virtual std::span<float> UpdateTargetF32() = 0;
  // Runs only after an applied (non-skipped) optimizer update: stages
  // 1-2 re-gather the updated parameters, stages 2-3 zero their shard.
  virtual void OnUpdateApplied() = 0;

  // ---- checkpoint / introspection ----
  // Rebuilds the working parameters from an imported (padded) fp32
  // master copy.
  virtual void ImportMasterParams(std::span<const float> padded_master) = 0;
  // Drops any in-flight step state (elastic resume aborts mid-step).
  virtual void ResetInFlight() = 0;
  // Materializes the full fp32 parameter vector (collective for
  // stage 3). `out` has part->total() elements.
  virtual void GatherFullParams(std::span<float> out) = 0;
  [[nodiscard]] virtual std::size_t param_bytes() const = 0;
  [[nodiscard]] virtual std::size_t grad_bytes() const = 0;

 protected:
  StageContext* ctx_;
};

// The one place that maps EngineConfig::stage to an implementation.
[[nodiscard]] std::unique_ptr<StageStrategy> MakeStageStrategy(
    StageContext& ctx);

// Store one unit gradient into a full-size gradient vector (the
// stage 0/1 gradient path), applying the loss scale in fp16 mode.
void StoreUnitGradFull(StageContext& ctx, tensor::Tensor& grads, int u,
                       std::span<const float> grad);

}  // namespace zero::core
