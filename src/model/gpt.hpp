// GPT-2-style transformer with manual backpropagation and optional
// Megatron-LM tensor model parallelism.
//
// This is the runnable counterpart of TransformerSpec: embedding (+
// positional), L pre-norm blocks (causal multi-head attention + GELU
// MLP, residual connections), final layer norm, tied output embedding,
// cross-entropy loss. All forward and backward math is implemented here
// against the fp32 kernels in tensor/kernels.hpp.
//
// Model parallelism follows Megatron's column/row split (Sec 8's
// baseline): Wqkv and Wfc are column-parallel (each MP rank owns a head
// slice / inner slice), Wattn_out and Wproj are row-parallel, and each
// block performs exactly two all-reduces in forward, two in backward,
// and two more when recomputing under activation checkpointing — the
// communication pattern the paper's Sec 8 analysis counts.
//
// As a FlatParamModel, the *local* parameter shard is one flat vector
// with units {embedding, block 1, ..., block L, final norm}; ZeRO-DP
// engines partition that vector across the data-parallel group.
#pragma once

#include <memory>
#include <optional>

#include "alloc/caching_allocator.hpp"
#include "comm/communicator.hpp"
#include "model/checkpoint_store.hpp"
#include "model/flat_model.hpp"
#include "tensor/tensor.hpp"

namespace zero::model {

class ServingWeights;  // model/serving_weights.hpp

struct GptConfig {
  std::int64_t vocab = 64;
  std::int64_t seq = 16;
  std::int64_t hidden = 32;
  std::int64_t layers = 2;
  std::int64_t heads = 2;
  float ln_eps = 1e-5f;
  bool activation_checkpointing = false;

  [[nodiscard]] std::int64_t inner() const { return 4 * hidden; }
};

// Per-rank execution resources. All optional: a null device means heap
// tensors (reference/single-process runs); a null mp communicator means
// MP degree 1.
struct GptSession {
  alloc::CachingAllocator* device = nullptr;
  CheckpointStore* checkpoints = nullptr;  // required when checkpointing
  comm::Communicator* mp = nullptr;
};

// One token of a packed serving step. Tokens for the same sequence must
// be contiguous in the span with consecutive positions; the serve
// scheduler packs any mix of prefill chunks (many tokens per sequence)
// and decode steps (one token per sequence) into a single span.
struct DecodeToken {
  std::int32_t token = 0;
  std::int32_t slot = 0;    // KV-cache sequence slot (serve-layer handle)
  std::int64_t pos = 0;     // absolute position within the sequence
};

// Paged per-sequence K/V storage, provided by the serve layer. Rows hold
// this rank's local heads only (hidden / mp floats, head-major — the
// same column order as a qkv projection row), so an MP-sharded engine
// caches exactly its slice. Row pointers need not be contiguous across
// positions: the serve pool hands out block-granular storage.
class KvCache {
 public:
  virtual ~KvCache() = default;
  virtual float* KRow(std::int32_t slot, std::int64_t layer,
                      std::int64_t pos) = 0;
  virtual float* VRow(std::int32_t slot, std::int64_t layer,
                      std::int64_t pos) = 0;
};

class GptModel final : public FlatParamModel {
 public:
  GptModel(GptConfig config, GptSession session);

  [[nodiscard]] const ParamLayout& layout() const override {
    return layout_;
  }

  // Initializes this rank's *shard* such that the implied global model is
  // identical for every MP degree (row streams are seeded by global row
  // index, and row-parallel shards slice the global row) — this is what
  // lets tests compare MP=1 against MP=2 losses exactly.
  void InitParameters(std::span<float> flat,
                      std::uint64_t seed) const override;

  float Step(const Batch& batch, ParamProvider& params,
             GradSink& grads) override;

  // Forward-only pass over full sequences: fills `logits_out` ([rows*seq,
  // vocab]) and returns the mean cross-entropy loss when targets are
  // present (0 otherwise). It is Step's forward half, so its logits are
  // the bitwise reference the serving regression tests compare
  // incremental decode against.
  float EvalForwardLogits(const Batch& batch, ParamProvider& params,
                          std::span<float> logits_out);

  // Packed incremental decode over engine-resident serving weights (a
  // GEMM-backend encoding of the local shard): one batched block forward
  // over all tokens of a serving step. Appends every token's K/V rows to
  // `kv`, attends against the cached prefix, and writes logits for the
  // *last* token of each sequence group into consecutive rows of
  // `logits_out` (group order). Returns the number of groups. It runs
  // the same block body as EvalForwardLogits, and the GEMM contract
  // (DESIGN.md §9) keeps a row's bits independent of how many rows and
  // cached positions a call covers, so with the "fp32" backend decode
  // logits are bit-exact vs EvalForwardLogits at any model size;
  // reduced-precision backends stay within the bounded logit error
  // DESIGN.md §16 documents.
  int DecodeForward(std::span<const DecodeToken> tokens,
                    const ServingWeights& weights, KvCache& kv,
                    std::span<float> logits_out);

  // Floats per cached K (or V) row on this rank: hidden / mp.
  [[nodiscard]] std::int64_t kv_row_floats() const {
    return config_.hidden / mp_size();
  }

  // Maps a full (MP-degree-1 layout) flat parameter vector — what the
  // trainer checkpoints under mp=1 — onto this rank's local shard,
  // applying the Megatron column/row slicing rules per matrix.
  void ImportFullParams(std::span<const float> full,
                        std::span<float> local) const;

  // Parameter count of the mp=1 layout for `config` (checkpoint size).
  [[nodiscard]] static std::int64_t FullParamNumel(const GptConfig& config);

  [[nodiscard]] const GptConfig& config() const { return config_; }
  [[nodiscard]] int mp_size() const;
  [[nodiscard]] int mp_rank() const;

 private:
  struct LayerOffsets {
    std::int64_t ln1_g, ln1_b;
    std::int64_t w_qkv, b_qkv;  // column-parallel: [3*H/m, H], [3*H/m]
    std::int64_t w_o, b_o;      // row-parallel: [H, H/m], bias [H] replicated
    std::int64_t ln2_g, ln2_b;
    std::int64_t w_fc, b_fc;    // column-parallel: [I/m, H], [I/m]
    std::int64_t w_pr, b_pr;    // row-parallel: [H, I/m], bias [H] replicated
  };

  // Everything backward needs from one block's forward.
  struct LayerStash {
    tensor::Tensor x_in;   // [BS, H] block input (or checkpoint handle)
    std::int64_t ckpt_handle = -1;
    tensor::Tensor ln1_mean, ln1_rstd;  // [BS]
    tensor::Tensor a;      // [BS, H] ln1 output
    tensor::Tensor qkv;    // [BS, 3H/m]: q | k | v, head h at cols h*hd
    tensor::Tensor att;    // [B*lh, S, S] softmax probabilities
    tensor::Tensor ctx;    // [BS, H/m]
    tensor::Tensor x_mid;  // [BS, H] after first residual
    tensor::Tensor ln2_mean, ln2_rstd;
    tensor::Tensor b2;     // [BS, H] ln2 output
    tensor::Tensor h1;     // [BS, I/m] pre-GELU
    tensor::Tensor f;      // [BS, I/m] GELU output
    void DropAll();
  };

  class UnitWeights;    // fp32 unit span or serving weights (gpt.cpp)
  struct DecodeStep;    // one packed serving step's tokens and KV cache
  struct ForwardStash;  // what Step's backward reads from its forward

  [[nodiscard]] tensor::Tensor NewAct(tensor::Shape shape) const;
  [[nodiscard]] std::int64_t LocalHeads() const;

  // x[i] = wte[ids[i]] + wpe[pos[i]].
  void Embed(const UnitWeights& u0, std::span<const std::int32_t> ids,
             std::span<const std::int64_t> pos, float* x) const;

  // Forward over whole sequences: embedding, blocks, final norm, tied
  // logits and, when the batch has targets, the loss. With `keep`, the
  // activations backward needs are kept there and the logits are a
  // temporary; otherwise the logits go to `logits_out`.
  float SequenceForward(const Batch& batch, ParamProvider& params,
                        std::span<float> logits_out,
                        ForwardStash* keep) const;

  // The one block forward: consumes x_in ([rows, H]), produces x_out,
  // filling `st`. With `decode` null the rows are whole sequences and
  // attention runs over them; otherwise the rows are decode->tokens and
  // attention is CachedAttention.
  void BlockForward(const UnitWeights& w, const float* x_in, float* x_out,
                    std::int64_t rows, LayerStash& st,
                    const DecodeStep* decode) const;

  // The one causal attention body, for `seqs` sequences x the local heads,
  // reading and writing every operand in place. Sequence s's q_len query
  // rows start at row s*q_len of `q` (rows ldq floats apart), its k_len
  // key rows at row s*k_len of `kv` (rows ldkv apart), with each value
  // row H/m floats to the right of its key row; head h is the column
  // slice [h*hd, (h+1)*hd) of every row. Writes the softmax probabilities
  // to `probs` ([seqs * lh, q_len, k_len]) and the context to `ctx` (rows
  // ldctx apart, sequence s from row s*q_len). Query i attends to key
  // positions up to k_len - q_len + i.
  void Attend(std::int64_t seqs, std::int64_t q_len, std::int64_t k_len,
              const float* q, std::int64_t ldq, const float* kv,
              std::int64_t ldkv, float* probs, float* ctx,
              std::int64_t ldctx) const;

  // Appends each token's K/V (from st.qkv) to the cache, gathers each
  // group's cached K/V prefix, and attends the group's queries over it
  // into st.ctx.
  void CachedAttention(const DecodeStep& d, LayerStash& st) const;

  // Backward one block given d_out; produces d_in (may alias d_out) and
  // accumulates the block's parameter gradients into `ugrad`.
  void BlockBackward(std::span<const float> unit_params, const LayerStash& st,
                     const float* x_in, const float* d_out, float* d_in,
                     std::int64_t bs, std::span<float> ugrad) const;

  void MpAllReduce(float* data, std::int64_t n) const;

  GptConfig config_;
  GptSession session_;
  ParamLayout layout_;
  LayerOffsets lo_;               // offsets within a block unit
  std::int64_t off_wte_ = 0;      // within unit 0
  std::int64_t off_wpe_ = 0;
  std::int64_t off_lnf_g_ = 0;    // within unit L+1
  std::int64_t off_lnf_b_ = 0;
};

}  // namespace zero::model
