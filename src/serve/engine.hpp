// Forward-only inference engine: loads a trainer checkpoint (v1 or v2
// header) into GptModel weights and runs batched incremental decode
// against a paged KV cache. Checkpoints store the mp=1 (full) parameter
// layout; an MP-sharded engine re-slices that vector per rank with the
// Megatron column/row rules (GptModel::ImportFullParams), so every MP
// degree serves the same global model — and, with fp32 weights,
// bit-exactly the logits of the same-degree eval forward (DESIGN.md
// §16).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/state_checkpoint.hpp"
#include "model/flat_model.hpp"
#include "model/gpt.hpp"
#include "model/serving_weights.hpp"
#include "serve/kv_cache.hpp"

namespace zero::serve {

struct InferenceOptions {
  model::GptConfig model;
  std::int64_t kv_block_tokens = 8;
  std::int64_t kv_max_blocks = 256;
  bool record_metrics = true;
  // GEMM backend for engine-resident weights ("fp32", "fp16", "int8" —
  // tensor/gemm_backend.hpp). fp32 serves bit-exact vs trainer eval;
  // fp16/int8 halve/quarter weight bytes with bounded logit error.
  std::string weights = "fp32";
  // Copy-on-write prefix sharing: requests whose token prefix matches a
  // published sequence adopt its full KV blocks and skip that prefill.
  bool prefix_cache = false;
};

class InferenceEngine {
 public:
  // `session.mp` non-null gives MP-sharded serving; `session.device`
  // non-null carves weights' KV blocks from that caching allocator.
  InferenceEngine(InferenceOptions options, model::GptSession session);

  // Full (mp=1 layout) fp32 weights; resharded for this rank, then
  // packed into the configured GEMM backend's precision. The fp32
  // staging copy is dropped after packing, so steady-state weight
  // memory is exactly the packed footprint.
  void LoadFullWeights(std::span<const float> full);
  // The master fp32 array of a trainer checkpoint is the full weight
  // vector. Rejects checkpoints whose numel does not match the config
  // (e.g. shards exported by an mp>1 training run).
  void LoadState(const core::TrainingState& state);
  void LoadCheckpointFile(const std::string& path);

  // One packed serving step over `tokens`; logits_out must hold
  // [groups x vocab]. Returns the group count.
  int Decode(std::span<const model::DecodeToken> tokens,
             std::span<float> logits_out);

  [[nodiscard]] model::GptModel& model() { return model_; }
  [[nodiscard]] SlotKvCache& kv() { return kv_; }
  [[nodiscard]] KvBlockPool& pool() { return pool_; }
  [[nodiscard]] bool loaded() const { return loaded_; }
  [[nodiscard]] const InferenceOptions& options() const { return options_; }
  [[nodiscard]] const model::ServingWeights& weights() const {
    return weights_;
  }

 private:
  InferenceOptions options_;
  model::GptModel model_;
  model::ServingWeights weights_;  // this rank's shard, backend-packed
  KvBlockPool pool_;
  SlotKvCache kv_;
  bool loaded_ = false;
};

}  // namespace zero::serve
