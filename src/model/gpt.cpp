#include "model/gpt.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "model/serving_weights.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels.hpp"

namespace zero::model {

using tensor::Tensor;

namespace {

// Parameter codes for deterministic per-row init streams.
enum ParamCode : std::uint64_t {
  kWte = 1,
  kWpe = 2,
  kWq = 3,
  kWk = 4,
  kWv = 5,
  kWo = 6,
  kWfc = 7,
  kWpr = 8,
};

// Fills one global row of a weight matrix from its dedicated stream; for
// column-sliced (row-parallel) shards, skips `col_begin` samples first so
// every MP degree sees the same global matrix.
void FillRowSlice(Rng stream, float stddev, std::int64_t col_begin,
                  std::span<float> out) {
  for (std::int64_t i = 0; i < col_begin; ++i) stream.NextGaussian();
  for (float& x : out) x = stream.NextGaussian() * stddev;
}

Rng RowStream(std::uint64_t seed, ParamCode code, std::int64_t layer,
              std::int64_t global_row) {
  return Rng(seed).Split((static_cast<std::uint64_t>(code) << 48) ^
                         (static_cast<std::uint64_t>(layer) << 32) ^
                         static_cast<std::uint64_t>(global_row));
}

void CopyFloats(float* dst, const float* src, std::int64_t n) {
  std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(float));
}

}  // namespace

void GptModel::LayerStash::DropAll() {
  const std::int64_t handle = ckpt_handle;  // outlives the tensors
  *this = LayerStash();
  ckpt_handle = handle;
}

GptModel::GptModel(GptConfig config, GptSession session)
    : config_(config), session_(session) {
  const std::int64_t h = config_.hidden;
  const std::int64_t i_total = config_.inner();
  const int m = mp_size();
  ZERO_CHECK(config_.heads % m == 0, "heads must divide by MP degree");
  ZERO_CHECK(config_.hidden % config_.heads == 0,
             "hidden must divide by heads");
  ZERO_CHECK(i_total % m == 0, "inner dim must divide by MP degree");
  ZERO_CHECK(!config_.activation_checkpointing ||
                 session_.checkpoints != nullptr,
             "activation checkpointing requires a CheckpointStore");
  const std::int64_t hm = h / m;       // local attention width
  const std::int64_t im = i_total / m; // local MLP inner width

  // Unit 0: embeddings (replicated across MP). Unit 0 starts at flat
  // offset 0, so absolute offsets are already unit-relative.
  off_wte_ = layout_.Add("wte", config_.vocab * h, 0, config_.vocab, h);
  off_wpe_ = layout_.Add("wpe", config_.seq * h, 0);

  // Units 1..L: one per transformer block. Offsets are identical for all
  // blocks relative to the block's unit start, so compute once.
  bool offsets_done = false;
  for (std::int64_t l = 0; l < config_.layers; ++l) {
    const int unit = static_cast<int>(l) + 1;
    const std::string p = "h" + std::to_string(l) + ".";
    const std::int64_t base = layout_.total_numel();
    LayerOffsets off;
    off.ln1_g = layout_.Add(p + "ln1.g", h, unit) - base;
    off.ln1_b = layout_.Add(p + "ln1.b", h, unit) - base;
    off.w_qkv =
        layout_.Add(p + "attn.w_qkv", 3 * hm * h, unit, 3 * hm, h) - base;
    off.b_qkv = layout_.Add(p + "attn.b_qkv", 3 * hm, unit) - base;
    off.w_o = layout_.Add(p + "attn.w_o", h * hm, unit, h, hm) - base;
    off.b_o = layout_.Add(p + "attn.b_o", h, unit) - base;
    off.ln2_g = layout_.Add(p + "ln2.g", h, unit) - base;
    off.ln2_b = layout_.Add(p + "ln2.b", h, unit) - base;
    off.w_fc = layout_.Add(p + "mlp.w_fc", im * h, unit, im, h) - base;
    off.b_fc = layout_.Add(p + "mlp.b_fc", im, unit) - base;
    off.w_pr = layout_.Add(p + "mlp.w_pr", h * im, unit, h, im) - base;
    off.b_pr = layout_.Add(p + "mlp.b_pr", h, unit) - base;
    if (!offsets_done) {
      lo_ = off;
      offsets_done = true;
    }
  }

  // Final unit: closing layer norm.
  const int unit_f = static_cast<int>(config_.layers) + 1;
  const std::int64_t basef = layout_.total_numel();
  off_lnf_g_ = layout_.Add("lnf.g", h, unit_f) - basef;
  off_lnf_b_ = layout_.Add("lnf.b", h, unit_f) - basef;
}

int GptModel::mp_size() const {
  return session_.mp != nullptr ? session_.mp->size() : 1;
}

int GptModel::mp_rank() const {
  return session_.mp != nullptr ? session_.mp->rank() : 0;
}

std::int64_t GptModel::LocalHeads() const {
  return config_.heads / mp_size();
}

Tensor GptModel::NewAct(tensor::Shape shape) const {
  if (session_.device != nullptr) {
    return Tensor::Device(*session_.device, std::move(shape), DType::kF32);
  }
  return Tensor::Heap(std::move(shape), DType::kF32);
}

void GptModel::MpAllReduce(float* data, std::int64_t n) const {
  if (session_.mp != nullptr && session_.mp->size() > 1) {
    session_.mp->AllReduce(
        std::span<float>(data, static_cast<std::size_t>(n)),
        comm::ReduceOp::kSum);
  }
}

void GptModel::InitParameters(std::span<float> flat,
                              std::uint64_t seed) const {
  ZERO_CHECK(flat.size() == static_cast<std::size_t>(layout_.total_numel()),
             "init buffer size mismatch");
  std::fill(flat.begin(), flat.end(), 0.0f);

  const std::int64_t h = config_.hidden;
  const std::int64_t im = config_.inner() / mp_size();
  const std::int64_t hm = h / mp_size();
  const int m_rank = mp_rank();
  const float std_w = 0.02f;
  const float std_proj =
      0.02f / std::sqrt(2.0f * static_cast<float>(config_.layers));

  auto unit_span = [&](int u) {
    auto [b, e] = layout_.UnitRange(u);
    return flat.subspan(static_cast<std::size_t>(b),
                        static_cast<std::size_t>(e - b));
  };

  // Embeddings (replicated; same stream on every MP rank).
  auto u0 = unit_span(0);
  for (std::int64_t r = 0; r < config_.vocab; ++r) {
    FillRowSlice(RowStream(seed, kWte, 0, r), std_w, 0,
                 u0.subspan(static_cast<std::size_t>(off_wte_ + r * h),
                            static_cast<std::size_t>(h)));
  }
  for (std::int64_t r = 0; r < config_.seq; ++r) {
    FillRowSlice(RowStream(seed, kWpe, 0, r), std_w, 0,
                 u0.subspan(static_cast<std::size_t>(off_wpe_ + r * h),
                            static_cast<std::size_t>(h)));
  }

  for (std::int64_t l = 0; l < config_.layers; ++l) {
    auto u = unit_span(static_cast<int>(l) + 1);
    // Layer norms: gamma = 1, beta = 0.
    for (std::int64_t c = 0; c < h; ++c) {
      u[static_cast<std::size_t>(lo_.ln1_g + c)] = 1.0f;
      u[static_cast<std::size_t>(lo_.ln2_g + c)] = 1.0f;
    }
    // Column-parallel qkv: local q rows are global q rows
    // [m_rank*hm, (m_rank+1)*hm), ditto k and v; full row width h.
    for (std::int64_t r = 0; r < hm; ++r) {
      const std::int64_t gr = m_rank * hm + r;
      FillRowSlice(RowStream(seed, kWq, l, gr), std_w, 0,
                   u.subspan(static_cast<std::size_t>(lo_.w_qkv + r * h),
                             static_cast<std::size_t>(h)));
      FillRowSlice(
          RowStream(seed, kWk, l, gr), std_w, 0,
          u.subspan(static_cast<std::size_t>(lo_.w_qkv + (hm + r) * h),
                    static_cast<std::size_t>(h)));
      FillRowSlice(
          RowStream(seed, kWv, l, gr), std_w, 0,
          u.subspan(static_cast<std::size_t>(lo_.w_qkv + (2 * hm + r) * h),
                    static_cast<std::size_t>(h)));
    }
    // Row-parallel attn out: global [h, h]; local keeps columns
    // [m_rank*hm, ...), every global row.
    for (std::int64_t r = 0; r < h; ++r) {
      FillRowSlice(RowStream(seed, kWo, l, r), std_proj, m_rank * hm,
                   u.subspan(static_cast<std::size_t>(lo_.w_o + r * hm),
                             static_cast<std::size_t>(hm)));
    }
    // Column-parallel fc: local rows are global rows [m_rank*im, ...).
    for (std::int64_t r = 0; r < im; ++r) {
      FillRowSlice(RowStream(seed, kWfc, l, m_rank * im + r), std_w, 0,
                   u.subspan(static_cast<std::size_t>(lo_.w_fc + r * h),
                             static_cast<std::size_t>(h)));
    }
    // Row-parallel proj: global [h, 4h]; local keeps columns
    // [m_rank*im, ...).
    for (std::int64_t r = 0; r < h; ++r) {
      FillRowSlice(RowStream(seed, kWpr, l, r), std_proj, m_rank * im,
                   u.subspan(static_cast<std::size_t>(lo_.w_pr + r * im),
                             static_cast<std::size_t>(im)));
    }
  }

  auto uf = unit_span(static_cast<int>(config_.layers) + 1);
  for (std::int64_t c = 0; c < h; ++c) {
    uf[static_cast<std::size_t>(off_lnf_g_ + c)] = 1.0f;
  }
}

// Read access to one unit's weights for the shared forward body: the
// unit's fp32 parameter span (training, eval) or the engine-resident
// serving weights (decode). A plain branch rather than a virtual seam:
// these are the only two weight sources.
class GptModel::UnitWeights {
 public:
  explicit UnitWeights(std::span<const float> unit) : f32_(unit.data()) {}
  UnitWeights(const ServingWeights& serving, int unit)
      : serving_(&serving), unit_(unit) {}

  // The fp32 vector entry at unit-relative offset `off`.
  [[nodiscard]] const float* Vec(std::int64_t off) const {
    return serving_ != nullptr ? serving_->Vec(unit_, off) : f32_ + off;
  }

  // Row `row` of the [*, cols] matrix at `off`; serving weights decode it
  // into `scratch`.
  [[nodiscard]] const float* Row(std::int64_t off, std::int64_t row,
                                 std::int64_t cols, float* scratch) const {
    if (serving_ == nullptr) return f32_ + off + row * cols;
    serving_->DecodeRow(unit_, off, row, cols, scratch);
    return scratch;
  }

  // c[m, n] = a[m, k] * W[n, k]^T for the matrix W at `off`.
  void GemmT(std::int64_t off, std::int64_t m, std::int64_t n, std::int64_t k,
             const float* a, float* c) const {
    if (serving_ != nullptr) {
      serving_->GemmWeightT(unit_, off, m, n, k, 1.0f, a, 0.0f, c);
    } else {
      tensor::Gemm(false, true, m, n, k, 1.0f, a, f32_ + off, 0.0f, c);
    }
  }

 private:
  const float* f32_ = nullptr;
  const ServingWeights* serving_ = nullptr;
  int unit_ = 0;
};

// One packed serving step as the cached-attention step sees it.
struct GptModel::DecodeStep {
  struct Group {
    std::int64_t begin, end;  // contiguous token run of one slot
  };
  std::span<const DecodeToken> tokens;
  std::vector<Group> groups;
  KvCache* kv = nullptr;
  int layer = 0;  // block being run
};

// What Step's backward half reads from its forward half.
struct GptModel::ForwardStash {
  std::vector<LayerStash> layers;
  Tensor x;                   // [BS, H] last block output
  Tensor lnf_mean, lnf_rstd;  // [BS]
  Tensor y;                   // [BS, H] final norm output
  Tensor dlogits;             // [BS, V] loss gradient
};

void GptModel::Embed(const UnitWeights& u0, std::span<const std::int32_t> ids,
                     std::span<const std::int64_t> pos, float* x) const {
  const std::int64_t h = config_.hidden;
  const float* wpe = u0.Vec(off_wpe_);
  std::vector<float> te_row(static_cast<std::size_t>(h));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ZERO_CHECK(ids[i] >= 0 && ids[i] < config_.vocab, "token id out of range");
    const float* te = u0.Row(off_wte_, ids[i], h, te_row.data());
    const float* pe = wpe + pos[i] * h;
    float* row = x + static_cast<std::int64_t>(i) * h;
    for (std::int64_t c = 0; c < h; ++c) row[c] = te[c] + pe[c];
  }
}

void GptModel::BlockForward(const UnitWeights& w, const float* x_in,
                            float* x_out, std::int64_t rows, LayerStash& st,
                            const DecodeStep* decode) const {
  namespace K = tensor;
  const std::int64_t h = config_.hidden;
  const std::int64_t m = mp_size();
  const std::int64_t hm = h / m;
  const std::int64_t im = config_.inner() / m;

  st.ln1_mean = NewAct({rows});
  st.ln1_rstd = NewAct({rows});
  st.a = NewAct({rows, h});
  K::LayerNormForward(x_in, w.Vec(lo_.ln1_g), w.Vec(lo_.ln1_b),
                      st.a.f32().data(), st.ln1_mean.f32().data(),
                      st.ln1_rstd.f32().data(), rows, h, config_.ln_eps);

  // qkv projection (column-parallel), then attention into st.ctx.
  st.qkv = NewAct({rows, 3 * hm});
  float* qkv = st.qkv.f32().data();
  w.GemmT(lo_.w_qkv, rows, 3 * hm, h, st.a.f32().data(), qkv);
  K::AddBiasRows(qkv, w.Vec(lo_.b_qkv), rows, 3 * hm);
  if (decode != nullptr) {
    CachedAttention(*decode, st);
    st.qkv = Tensor();  // decode keeps no stash past the attention step
  } else {
    const std::int64_t lh = LocalHeads();
    const std::int64_t s_count = config_.seq;
    const std::int64_t b_count = rows / s_count;
    st.att = NewAct({b_count * lh, s_count, s_count});
    st.ctx = NewAct({rows, hm});
    Attend(b_count, s_count, s_count, qkv, 3 * hm, qkv + hm, 3 * hm,
           st.att.f32().data(), st.ctx.f32().data(), hm);
  }

  // Attention output projection (row-parallel): partial matmul, then
  // MP all-reduce #1, then the replicated bias.
  st.x_mid = NewAct({rows, h});
  {
    Tensor o = NewAct({rows, h});
    w.GemmT(lo_.w_o, rows, h, hm, st.ctx.f32().data(), o.f32().data());
    MpAllReduce(o.f32().data(), rows * h);
    K::AddBiasRows(o.f32().data(), w.Vec(lo_.b_o), rows, h);
    const float* ov = o.f32().data();
    float* xm = st.x_mid.f32().data();
    for (std::int64_t i = 0; i < rows * h; ++i) xm[i] = x_in[i] + ov[i];
  }

  st.ln2_mean = NewAct({rows});
  st.ln2_rstd = NewAct({rows});
  st.b2 = NewAct({rows, h});
  K::LayerNormForward(st.x_mid.f32().data(), w.Vec(lo_.ln2_g),
                      w.Vec(lo_.ln2_b), st.b2.f32().data(),
                      st.ln2_mean.f32().data(), st.ln2_rstd.f32().data(),
                      rows, h, config_.ln_eps);

  st.h1 = NewAct({rows, im});
  w.GemmT(lo_.w_fc, rows, im, h, st.b2.f32().data(), st.h1.f32().data());

  // Fused epilogue: st.h1 becomes z = fc_out + bias (stashed for
  // backward), st.f the activation.
  st.f = NewAct({rows, im});
  {
    TRACE_SPAN("model/gelu");
    K::BiasGeluForward(st.h1.f32().data(), w.Vec(lo_.b_fc),
                       st.h1.f32().data(), st.f.f32().data(), rows, im);
  }

  // MLP output projection (row-parallel): MP all-reduce #2.
  {
    Tensor p = NewAct({rows, h});
    w.GemmT(lo_.w_pr, rows, h, im, st.f.f32().data(), p.f32().data());
    MpAllReduce(p.f32().data(), rows * h);
    K::AddBiasRows(p.f32().data(), w.Vec(lo_.b_pr), rows, h);
    const float* pv = p.f32().data();
    const float* xm = st.x_mid.f32().data();
    for (std::int64_t i = 0; i < rows * h; ++i) x_out[i] = xm[i] + pv[i];
  }
}

void GptModel::Attend(std::int64_t seqs, std::int64_t q_len,
                      std::int64_t k_len, const float* q, std::int64_t ldq,
                      const float* kv, std::int64_t ldkv, float* probs,
                      float* ctx, std::int64_t ldctx) const {
  namespace K = tensor;
  const std::int64_t hm = config_.hidden / mp_size();
  const std::int64_t lh = LocalHeads();
  const std::int64_t hd = config_.hidden / config_.heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  for (std::int64_t s = 0; s < seqs; ++s) {
    for (std::int64_t head = 0; head < lh; ++head) {
      K::Gemm(false, true, q_len, k_len, hd, scale,
              q + s * q_len * ldq + head * hd, ldq,
              kv + s * k_len * ldkv + head * hd, ldkv, 0.0f,
              probs + (s * lh + head) * q_len * k_len, k_len);
    }
  }
  {
    TRACE_SPAN("model/softmax");
    K::CausalMaskedSoftmax(probs, seqs * lh, q_len, k_len);
  }
  // The context GEMM reduces over the k_len keys; past the causal edge
  // the probabilities are +0, trailing terms the GEMM contract makes
  // exact no-ops, so a decode step over a cached prefix matches the full
  // forward bitwise.
  for (std::int64_t s = 0; s < seqs; ++s) {
    for (std::int64_t head = 0; head < lh; ++head) {
      K::Gemm(false, false, q_len, hd, k_len, 1.0f,
              probs + (s * lh + head) * q_len * k_len, k_len,
              kv + s * k_len * ldkv + hm + head * hd, ldkv, 0.0f,
              ctx + s * q_len * ldctx + head * hd, ldctx);
    }
  }
}

void GptModel::CachedAttention(const DecodeStep& d, LayerStash& st) const {
  const std::int64_t n = static_cast<std::int64_t>(d.tokens.size());
  const std::int64_t hm = config_.hidden / mp_size();
  const std::int64_t lh = LocalHeads();

  // Append this step's K/V rows to the cache before attending, so
  // tokens later in a prefill chunk see earlier ones.
  const float* qkv = st.qkv.f32().data();
  for (std::int64_t i = 0; i < n; ++i) {
    const DecodeToken& t = d.tokens[static_cast<std::size_t>(i)];
    CopyFloats(d.kv->KRow(t.slot, d.layer, t.pos), qkv + i * 3 * hm + hm, hm);
    CopyFloats(d.kv->VRow(t.slot, d.layer, t.pos), qkv + i * 3 * hm + 2 * hm,
               hm);
  }

  // Each group's cached prefix is gathered once, as whole rows laid out
  // like the k | v columns of a qkv row; every head of the group reads
  // its Q rows from qkv and its K/V columns from the gather in place.
  const auto k_len_of = [&](const DecodeStep::Group& g) {
    return d.tokens[static_cast<std::size_t>(g.end - 1)].pos + 1;
  };
  std::int64_t max_q = 0;
  std::int64_t max_k = 0;
  for (const DecodeStep::Group& g : d.groups) {
    max_q = std::max(max_q, g.end - g.begin);
    max_k = std::max(max_k, k_len_of(g));
  }
  st.ctx = NewAct({n, hm});
  Tensor kv = NewAct({max_k, 2 * hm});
  Tensor probs = NewAct({lh, max_q, max_k});
  for (const DecodeStep::Group& g : d.groups) {
    const std::int64_t k_len = k_len_of(g);
    const std::int32_t slot = d.tokens[static_cast<std::size_t>(g.begin)].slot;
    float* kvp = kv.f32().data();
    for (std::int64_t j = 0; j < k_len; ++j) {
      CopyFloats(kvp + j * 2 * hm, d.kv->KRow(slot, d.layer, j), hm);
      CopyFloats(kvp + j * 2 * hm + hm, d.kv->VRow(slot, d.layer, j), hm);
    }
    Attend(1, g.end - g.begin, k_len, qkv + g.begin * 3 * hm, 3 * hm, kvp,
           2 * hm, probs.f32().data(), st.ctx.f32().data() + g.begin * hm,
           hm);
  }
}

void GptModel::BlockBackward(std::span<const float> up, const LayerStash& st,
                             const float* x_in, const float* d_out,
                             float* d_in, std::int64_t bs,
                             std::span<float> ugrad) const {
  namespace K = tensor;
  const std::int64_t h = config_.hidden;
  const std::int64_t m = mp_size();
  const std::int64_t hm = h / m;
  const std::int64_t im = config_.inner() / m;
  const std::int64_t lh = LocalHeads();
  const std::int64_t hd = h / config_.heads;
  const std::int64_t b_count = bs / config_.seq;
  const std::int64_t s_count = config_.seq;
  float* g = ugrad.data();

  // ---- MLP branch ----
  Tensor dx_mid_t = NewAct({bs, h});
  float* dx_mid = dx_mid_t.f32().data();
  std::memcpy(dx_mid, d_out, static_cast<std::size_t>(bs * h) * sizeof(float));

  K::BiasGradFromRows(d_out, g + lo_.b_pr, bs, h);
  Tensor df_t = NewAct({bs, im});
  K::Gemm(false, false, bs, im, h, 1.0f, d_out, up.data() + lo_.w_pr, 0.0f,
          df_t.f32().data());
  K::Gemm(true, false, h, im, bs, 1.0f, d_out, st.f.f32().data(), 1.0f,
          g + lo_.w_pr);

  Tensor dh1_t = NewAct({bs, im});
  {
    TRACE_SPAN("model/gelu");
    K::BiasGeluBackward(st.h1.f32().data(), df_t.f32().data(),
                        dh1_t.f32().data(), g + lo_.b_fc, bs, im);
  }
  df_t = Tensor();

  K::Gemm(true, false, im, h, bs, 1.0f, dh1_t.f32().data(),
          st.b2.f32().data(), 1.0f, g + lo_.w_fc);

  Tensor db2_t = NewAct({bs, h});
  K::Gemm(false, false, bs, h, im, 1.0f, dh1_t.f32().data(),
          up.data() + lo_.w_fc, 0.0f, db2_t.f32().data());
  dh1_t = Tensor();
  // MP backward all-reduce #1 (input grad of the column-parallel fc).
  MpAllReduce(db2_t.f32().data(), bs * h);

  {
    Tensor dxt = NewAct({bs, h});
    K::LayerNormBackward(st.x_mid.f32().data(), up.data() + lo_.ln2_g,
                         st.ln2_mean.f32().data(), st.ln2_rstd.f32().data(),
                         db2_t.f32().data(), dxt.f32().data(), g + lo_.ln2_g,
                         g + lo_.ln2_b, bs, h);
    K::Axpy(1.0f, dxt.f32().data(), dx_mid, bs * h);
  }
  db2_t = Tensor();

  // ---- attention branch (gradient at x_mid is now complete) ----
  K::BiasGradFromRows(dx_mid, g + lo_.b_o, bs, h);
  Tensor dctx_t = NewAct({bs, hm});
  K::Gemm(false, false, bs, hm, h, 1.0f, dx_mid, up.data() + lo_.w_o, 0.0f,
          dctx_t.f32().data());
  K::Gemm(true, false, h, hm, bs, 1.0f, dx_mid, st.ctx.f32().data(), 1.0f,
          g + lo_.w_o);

  // Per (sequence, head), every operand is read and written in place:
  // head h of sequence b is the column slice at h*hd of rows
  // [b*S, (b+1)*S) of dctx, of q | k | v in st.qkv, and of dq | dk | dv in
  // dqkv, which the four GEMMs fill completely.
  const float* qkv = st.qkv.f32().data();
  const float* dctx = dctx_t.f32().data();
  const float* att = st.att.f32().data();
  const std::int64_t ld = 3 * hm;
  const auto head_rows = [&](std::int64_t bh) {
    return (bh / lh) * s_count * ld + (bh % lh) * hd;
  };
  Tensor datt_t = NewAct({b_count * lh, s_count, s_count});
  Tensor dqkv_t = NewAct({bs, 3 * hm});
  float* datt = datt_t.f32().data();
  float* dqkv = dqkv_t.f32().data();
  for (std::int64_t bh = 0; bh < b_count * lh; ++bh) {
    const std::int64_t r = head_rows(bh);
    const float* dctx_h = dctx + (bh / lh) * s_count * hm + (bh % lh) * hd;
    K::Gemm(false, true, s_count, s_count, hd, 1.0f, dctx_h, hm,
            qkv + r + 2 * hm, ld, 0.0f, datt + bh * s_count * s_count,
            s_count);
    K::Gemm(true, false, s_count, hd, s_count, 1.0f,
            att + bh * s_count * s_count, s_count, dctx_h, hm, 0.0f,
            dqkv + r + 2 * hm, ld);
  }
  dctx_t = Tensor();

  // Softmax backward (masked entries have probability 0, so their
  // gradient vanishes automatically).
  {
    TRACE_SPAN("model/softmax");
    K::SoftmaxBackwardRows(att, datt, datt, b_count * lh * s_count, s_count);
  }

  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  for (std::int64_t bh = 0; bh < b_count * lh; ++bh) {
    const std::int64_t r = head_rows(bh);
    const float* datt_h = datt + bh * s_count * s_count;
    K::Gemm(false, false, s_count, hd, s_count, scale, datt_h, s_count,
            qkv + r + hm, ld, 0.0f, dqkv + r, ld);
    K::Gemm(true, false, s_count, hd, s_count, scale, datt_h, s_count,
            qkv + r, ld, 0.0f, dqkv + r + hm, ld);
  }
  datt_t = Tensor();

  K::BiasGradFromRows(dqkv_t.f32().data(), g + lo_.b_qkv, bs, 3 * hm);
  K::Gemm(true, false, 3 * hm, h, bs, 1.0f, dqkv_t.f32().data(),
          st.a.f32().data(), 1.0f, g + lo_.w_qkv);

  Tensor da_t = NewAct({bs, h});
  K::Gemm(false, false, bs, h, 3 * hm, 1.0f, dqkv_t.f32().data(),
          up.data() + lo_.w_qkv, 0.0f, da_t.f32().data());
  dqkv_t = Tensor();
  // MP backward all-reduce #2 (input grad of the column-parallel qkv).
  MpAllReduce(da_t.f32().data(), bs * h);

  {
    Tensor dxt = NewAct({bs, h});
    K::LayerNormBackward(x_in, up.data() + lo_.ln1_g,
                         st.ln1_mean.f32().data(), st.ln1_rstd.f32().data(),
                         da_t.f32().data(), dxt.f32().data(), g + lo_.ln1_g,
                         g + lo_.ln1_b, bs, h);
    const float* dxtp = dxt.f32().data();
    for (std::int64_t i = 0; i < bs * h; ++i) d_in[i] = dx_mid[i] + dxtp[i];
  }
}

float GptModel::SequenceForward(const Batch& batch, ParamProvider& params,
                                std::span<float> logits_out,
                                ForwardStash* keep) const {
  namespace K = tensor;
  const std::int64_t s_count = batch.cols;
  ZERO_CHECK(s_count == config_.seq, "batch seq length must match config");
  const std::int64_t bs = batch.rows * s_count;
  const std::int64_t h = config_.hidden;
  const std::int64_t v = config_.vocab;
  const int layers = static_cast<int>(config_.layers);
  ZERO_CHECK(batch.inputs.size() == static_cast<std::size_t>(bs),
             "batch token count mismatch");
  ForwardStash local;
  ForwardStash& fw = keep != nullptr ? *keep : local;

  // ---- embedding ----
  fw.x = NewAct({bs, h});
  {
    std::vector<std::int64_t> pos(static_cast<std::size_t>(bs));
    for (std::int64_t i = 0; i < bs; ++i) {
      pos[static_cast<std::size_t>(i)] = i % s_count;
    }
    Embed(UnitWeights(params.AcquireUnit(0, Phase::kForward)), batch.inputs,
          pos, fw.x.f32().data());
    params.ReleaseUnit(0, Phase::kForward);
  }

  // ---- blocks ----
  fw.layers.resize(static_cast<std::size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    LayerStash& st = fw.layers[static_cast<std::size_t>(l)];
    const UnitWeights w(params.AcquireUnit(l + 1, Phase::kForward));
    Tensor x_next = NewAct({bs, h});
    BlockForward(w, fw.x.f32().data(), x_next.f32().data(), bs, st, nullptr);
    params.ReleaseUnit(l + 1, Phase::kForward);
    if (keep == nullptr) {
      st.DropAll();
    } else if (config_.activation_checkpointing) {
      st.ckpt_handle = session_.checkpoints->Save(l, fw.x.f32());
      st.DropAll();  // recomputed during backward
    } else {
      st.x_in = std::move(fw.x);
    }
    fw.x = std::move(x_next);
  }

  // ---- final norm + tied-embedding logits ----
  const int unit_f = layers + 1;
  fw.lnf_mean = NewAct({bs});
  fw.lnf_rstd = NewAct({bs});
  fw.y = NewAct({bs, h});
  {
    const UnitWeights uf(params.AcquireUnit(unit_f, Phase::kForward));
    K::LayerNormForward(fw.x.f32().data(), uf.Vec(off_lnf_g_),
                        uf.Vec(off_lnf_b_), fw.y.f32().data(),
                        fw.lnf_mean.f32().data(), fw.lnf_rstd.f32().data(),
                        bs, h, config_.ln_eps);
    params.ReleaseUnit(unit_f, Phase::kForward);
  }

  // Step keeps the loss gradient, not the logits.
  if (keep != nullptr) fw.dlogits = NewAct({bs, v});
  float loss = 0.0f;
  {
    const UnitWeights u0(params.AcquireUnit(0, Phase::kForward));
    Tensor logits_tmp = keep != nullptr ? NewAct({bs, v}) : Tensor();
    float* logits =
        keep != nullptr ? logits_tmp.f32().data() : logits_out.data();
    u0.GemmT(off_wte_, bs, v, h, fw.y.f32().data(), logits);
    if (batch.targets.size() == static_cast<std::size_t>(bs)) {
      loss = K::CrossEntropyLoss(
          logits, batch.targets.data(), bs, v,
          keep != nullptr ? fw.dlogits.f32().data() : nullptr);
    }
    params.ReleaseUnit(0, Phase::kForward);
  }
  return loss;
}

float GptModel::EvalForwardLogits(const Batch& batch, ParamProvider& params,
                                  std::span<float> logits_out) {
  ZERO_CHECK(logits_out.size() >= static_cast<std::size_t>(
                                      batch.rows * batch.cols * config_.vocab),
             "logits buffer too small");
  return SequenceForward(batch, params, logits_out, nullptr);
}

int GptModel::DecodeForward(std::span<const DecodeToken> tokens,
                            const ServingWeights& weights, KvCache& kv,
                            std::span<float> logits_out) {
  namespace K = tensor;
  const std::int64_t n = static_cast<std::int64_t>(tokens.size());
  ZERO_CHECK(n > 0, "empty decode step");
  const std::int64_t h = config_.hidden;
  const std::int64_t v = config_.vocab;
  const int layers = static_cast<int>(config_.layers);

  // Group boundaries: contiguous runs of one slot, consecutive positions.
  DecodeStep step;
  step.tokens = tokens;
  step.kv = &kv;
  std::vector<std::int32_t> ids(static_cast<std::size_t>(n));
  std::vector<std::int64_t> pos(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const DecodeToken& t = tokens[static_cast<std::size_t>(i)];
    ZERO_CHECK(t.pos >= 0 && t.pos < config_.seq,
               "decode position out of range");
    ids[static_cast<std::size_t>(i)] = t.token;
    pos[static_cast<std::size_t>(i)] = t.pos;
    const DecodeToken* prev =
        i > 0 ? &tokens[static_cast<std::size_t>(i - 1)] : nullptr;
    if (prev == nullptr || t.slot != prev->slot) {
      step.groups.push_back({i, i + 1});
    } else {
      ZERO_CHECK(t.pos == prev->pos + 1,
                 "group positions must be consecutive");
      step.groups.back().end = i + 1;
    }
  }
  const std::int64_t n_groups = static_cast<std::int64_t>(step.groups.size());
  ZERO_CHECK(logits_out.size() >= static_cast<std::size_t>(n_groups * v),
             "logits buffer too small");

  Tensor x = NewAct({n, h});
  Embed(UnitWeights(weights, 0), ids, pos, x.f32().data());

  LayerStash st;
  for (int l = 0; l < layers; ++l) {
    step.layer = l;
    Tensor x_next = NewAct({n, h});
    BlockForward(UnitWeights(weights, l + 1), x.f32().data(),
                 x_next.f32().data(), n, st, &step);
    st.DropAll();
    x = std::move(x_next);
  }

  // ---- final norm + logits for each group's last row ----
  Tensor last = NewAct({n_groups, h});
  for (std::int64_t g = 0; g < n_groups; ++g) {
    CopyFloats(last.f32().data() + g * h,
               x.f32().data() +
                   (step.groups[static_cast<std::size_t>(g)].end - 1) * h,
               h);
  }
  const UnitWeights uf(weights, layers + 1);
  Tensor lnf_mean = NewAct({n_groups});
  Tensor lnf_rstd = NewAct({n_groups});
  Tensor y = NewAct({n_groups, h});
  K::LayerNormForward(last.f32().data(), uf.Vec(off_lnf_g_),
                      uf.Vec(off_lnf_b_), y.f32().data(),
                      lnf_mean.f32().data(), lnf_rstd.f32().data(), n_groups,
                      h, config_.ln_eps);
  UnitWeights(weights, 0).GemmT(off_wte_, n_groups, v, h, y.f32().data(),
                                logits_out.data());
  return static_cast<int>(n_groups);
}

std::int64_t GptModel::FullParamNumel(const GptConfig& c) {
  GptConfig full = c;
  full.activation_checkpointing = false;  // layout only, no session
  return GptModel(full, {}).layout().total_numel();
}

void GptModel::ImportFullParams(std::span<const float> full,
                                std::span<float> local) const {
  const std::int64_t h = config_.hidden;
  const std::int64_t i_total = config_.inner();
  const std::int64_t hm = h / mp_size();
  const std::int64_t im = i_total / mp_size();
  const std::int64_t r = mp_rank();
  // The mp=1 model's layout gives the full vector's offsets.
  GptConfig full_config = config_;
  full_config.activation_checkpointing = false;
  const GptModel ref(full_config, {});
  const LayerOffsets& fo = ref.lo_;
  ZERO_CHECK(
      full.size() == static_cast<std::size_t>(ref.layout_.total_numel()),
      "full parameter vector size mismatch");
  ZERO_CHECK(local.size() == static_cast<std::size_t>(layout_.total_numel()),
             "local parameter vector size mismatch");

  auto unit_span = [](const ParamLayout& layout, auto flat, int u) {
    auto [b, e] = layout.UnitRange(u);
    return flat.subspan(static_cast<std::size_t>(b),
                        static_cast<std::size_t>(e - b));
  };
  auto copy = [](std::span<float> dst, std::int64_t dst_off,
                 std::span<const float> src, std::int64_t src_off,
                 std::int64_t count) {
    CopyFloats(dst.data() + dst_off, src.data() + src_off, count);
  };

  // Embeddings and the final norm are replicated: straight copies.
  const int layers = static_cast<int>(config_.layers);
  for (int u : {0, layers + 1}) {
    std::span<float> lu = unit_span(layout_, local, u);
    copy(lu, 0, unit_span(ref.layout_, full, u), 0,
         static_cast<std::int64_t>(lu.size()));
  }

  for (int l = 0; l < layers; ++l) {
    std::span<float> lu = unit_span(layout_, local, l + 1);
    std::span<const float> fu = unit_span(ref.layout_, full, l + 1);
    copy(lu, lo_.ln1_g, fu, fo.ln1_g, h);
    copy(lu, lo_.ln1_b, fu, fo.ln1_b, h);
    // Column-parallel qkv: local q/k/v segments are global row slices
    // [r*hm, (r+1)*hm) of each [h, h] segment (row width h on both sides).
    for (std::int64_t seg = 0; seg < 3; ++seg) {
      copy(lu, lo_.w_qkv + seg * hm * h, fu,
           fo.w_qkv + (seg * h + r * hm) * h, hm * h);
      copy(lu, lo_.b_qkv + seg * hm, fu, fo.b_qkv + seg * h + r * hm, hm);
    }
    // Row-parallel attn out: keep columns [r*hm, ...) of every global row.
    for (std::int64_t row = 0; row < h; ++row) {
      copy(lu, lo_.w_o + row * hm, fu, fo.w_o + row * h + r * hm, hm);
    }
    copy(lu, lo_.b_o, fu, fo.b_o, h);
    copy(lu, lo_.ln2_g, fu, fo.ln2_g, h);
    copy(lu, lo_.ln2_b, fu, fo.ln2_b, h);
    // Column-parallel fc: global row slice [r*im, ...), full row width.
    copy(lu, lo_.w_fc, fu, fo.w_fc + r * im * h, im * h);
    copy(lu, lo_.b_fc, fu, fo.b_fc + r * im, im);
    // Row-parallel proj: keep columns [r*im, ...) of every global row.
    for (std::int64_t row = 0; row < h; ++row) {
      copy(lu, lo_.w_pr + row * im, fu, fo.w_pr + row * i_total + r * im, im);
    }
    copy(lu, lo_.b_pr, fu, fo.b_pr, h);
  }
}

float GptModel::Step(const Batch& batch, ParamProvider& params,
                     GradSink& grads) {
  namespace K = tensor;
  ZERO_CHECK(batch.targets.size() == batch.inputs.size(),
             "batch token count mismatch");
  ForwardStash fw;
  const float loss = SequenceForward(batch, params, {}, &fw);
  const std::int64_t s_count = batch.cols;
  const std::int64_t bs = batch.rows * s_count;
  const std::int64_t h = config_.hidden;
  const std::int64_t v = config_.vocab;
  const int layers = static_cast<int>(config_.layers);
  const int unit_f = layers + 1;

  // ---- backward ----
  // Unit-0 gradient accumulates across the whole backward pass (logits
  // contribution now, embedding scatter at the end), so it is emitted
  // last — the order stage-2 bucketization expects.
  std::vector<float> g0(
      static_cast<std::size_t>(layout_.UnitNumel(0)), 0.0f);

  Tensor dy = NewAct({bs, h});
  {
    std::span<const float> u0 = params.AcquireUnit(0, Phase::kBackward);
    K::Gemm(false, false, bs, h, v, 1.0f, fw.dlogits.f32().data(),
            u0.data() + off_wte_, 0.0f, dy.f32().data());
    K::Gemm(true, false, v, h, bs, 1.0f, fw.dlogits.f32().data(),
            fw.y.f32().data(), 1.0f, g0.data() + off_wte_);
    params.ReleaseUnit(0, Phase::kBackward);
  }
  fw.dlogits = Tensor();
  fw.y = Tensor();

  Tensor dx = NewAct({bs, h});
  {
    std::span<const float> uf = params.AcquireUnit(unit_f, Phase::kBackward);
    std::vector<float> gf(static_cast<std::size_t>(layout_.UnitNumel(unit_f)),
                          0.0f);
    K::LayerNormBackward(fw.x.f32().data(), uf.data() + off_lnf_g_,
                         fw.lnf_mean.f32().data(), fw.lnf_rstd.f32().data(),
                         dy.f32().data(), dx.f32().data(),
                         gf.data() + off_lnf_g_, gf.data() + off_lnf_b_, bs,
                         h);
    params.ReleaseUnit(unit_f, Phase::kBackward);
    grads.EmitUnitGrad(unit_f, gf);
  }
  dy = Tensor();
  fw.x = Tensor();
  fw.lnf_mean = Tensor();
  fw.lnf_rstd = Tensor();

  std::vector<float> ugrad;
  for (int l = layers - 1; l >= 0; --l) {
    LayerStash& st = fw.layers[static_cast<std::size_t>(l)];
    std::span<const float> up = params.AcquireUnit(l + 1, Phase::kBackward);

    if (config_.activation_checkpointing) {
      // Restore the block input and recompute the forward pass to rebuild
      // the stash (the "33% recomputation overhead").
      st.x_in = NewAct({bs, h});
      session_.checkpoints->Load(st.ckpt_handle, st.x_in.f32());
      Tensor x_scratch = NewAct({bs, h});
      BlockForward(UnitWeights(up), st.x_in.f32().data(),
                   x_scratch.f32().data(), bs, st, nullptr);
    }

    ugrad.assign(static_cast<std::size_t>(layout_.UnitNumel(l + 1)), 0.0f);
    BlockBackward(up, st, st.x_in.f32().data(), dx.f32().data(),
                  dx.f32().data(), bs, ugrad);
    params.ReleaseUnit(l + 1, Phase::kBackward);
    grads.EmitUnitGrad(l + 1, ugrad);
    st.DropAll();
  }

  // ---- backward: embedding ----
  {
    const float* dxp = dx.f32().data();
    float* dwte = g0.data() + off_wte_;
    float* dwpe = g0.data() + off_wpe_;
    for (std::int64_t i = 0; i < bs; ++i) {
      const std::int64_t id = batch.inputs[static_cast<std::size_t>(i)];
      const std::int64_t pos = i % s_count;
      const float* row = dxp + i * h;
      float* te = dwte + id * h;
      float* pe = dwpe + pos * h;
      for (std::int64_t c = 0; c < h; ++c) {
        te[c] += row[c];
        pe[c] += row[c];
      }
    }
  }
  grads.EmitUnitGrad(0, g0);

  if (config_.activation_checkpointing) {
    session_.checkpoints->Reset();
  }
  return loss;
}

}  // namespace zero::model
