#include "model/gpt.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "model/serving_weights.hpp"
#include "tensor/kernels.hpp"

namespace zero::model {

using tensor::Tensor;

// Parameter-access seam the two DecodeForward overloads share (declared
// in gpt.hpp, implemented below for the provider and the packed store).
// Offsets are unit-relative — the same coordinates LayerOffsets holds.
class DecodeParamAccess {
 public:
  virtual ~DecodeParamAccess() = default;
  // Bracket every parameter touch of `unit`; Vec pointers stay valid
  // until the matching EndUnit.
  virtual void BeginUnit(int unit) = 0;
  virtual void EndUnit(int unit) = 0;
  // fp32 pointer to the start of a vector-class entry (bias, LN, wpe).
  virtual const float* Vec(int unit, std::int64_t off) = 0;
  // C[m,n] = alpha * A[m,k] * W[n,k]^T + beta * C for the weight matrix
  // entry at (unit, off).
  virtual void WeightGemm(int unit, std::int64_t off, std::int64_t m,
                          std::int64_t n, std::int64_t k, float alpha,
                          const float* a, float beta, float* c) = 0;
  // dst[0..cols) = fp32 row `row` of the [rows, cols] matrix at
  // (unit, off) — embedding gathers.
  virtual void WeightRow(int unit, std::int64_t off, std::int64_t row,
                         std::int64_t cols, float* dst) = 0;
};

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

// Copy head-sliced columns [col0, col0+lh*hd) of src [B*S, row_width]
// into dst laid out as [B*lh, S, hd] with contiguous (S, hd) per head.
void SplitHeads(const float* src, std::int64_t row_width, std::int64_t col0,
                float* dst, std::int64_t b_count, std::int64_t s_count,
                std::int64_t lh, std::int64_t hd) {
  for (std::int64_t b = 0; b < b_count; ++b) {
    for (std::int64_t h = 0; h < lh; ++h) {
      for (std::int64_t s = 0; s < s_count; ++s) {
        const float* from = src + (b * s_count + s) * row_width + col0 + h * hd;
        float* to = dst + ((b * lh + h) * s_count + s) * hd;
        std::memcpy(to, from, static_cast<std::size_t>(hd) * sizeof(float));
      }
    }
  }
}

// Inverse of SplitHeads (writes into the given column range of dst rows).
void MergeHeads(const float* src, float* dst, std::int64_t row_width,
                std::int64_t col0, std::int64_t b_count, std::int64_t s_count,
                std::int64_t lh, std::int64_t hd) {
  for (std::int64_t b = 0; b < b_count; ++b) {
    for (std::int64_t h = 0; h < lh; ++h) {
      for (std::int64_t s = 0; s < s_count; ++s) {
        const float* from = src + ((b * lh + h) * s_count + s) * hd;
        float* to = dst + (b * s_count + s) * row_width + col0 + h * hd;
        std::memcpy(to, from, static_cast<std::size_t>(hd) * sizeof(float));
      }
    }
  }
}

}  // namespace

void GptModel::LayerStash::DropAll() {
  x_in = Tensor();
  ln1_mean = Tensor();
  ln1_rstd = Tensor();
  a = Tensor();
  q = Tensor();
  k = Tensor();
  v = Tensor();
  att = Tensor();
  ctx = Tensor();
  x_mid = Tensor();
  ln2_mean = Tensor();
  ln2_rstd = Tensor();
  b2 = Tensor();
  h1 = Tensor();
  f = Tensor();
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

void GptModel::BlockForward(std::span<const float> up, const float* x_in,
                            float* x_out, std::int64_t bs,
                            LayerStash& st) const {
  namespace K = tensor;
  const std::int64_t h = config_.hidden;
  const std::int64_t m = mp_size();
  const std::int64_t hm = h / m;
  const std::int64_t im = config_.inner() / m;
  const std::int64_t lh = LocalHeads();
  const std::int64_t hd = h / config_.heads;
  const std::int64_t b_count = bs / config_.seq;
  const std::int64_t s_count = config_.seq;

  st.ln1_mean = NewAct({bs});
  st.ln1_rstd = NewAct({bs});
  st.a = NewAct({bs, h});
  K::LayerNormForward(x_in, up.data() + lo_.ln1_g, up.data() + lo_.ln1_b,
                      st.a.f32().data(), st.ln1_mean.f32().data(),
                      st.ln1_rstd.f32().data(), bs, h, config_.ln_eps);

  // qkv projection (column-parallel), then split per local head.
  {
    Tensor qkv = NewAct({bs, 3 * hm});
    K::Gemm(false, true, bs, 3 * hm, h, 1.0f, st.a.f32().data(),
            up.data() + lo_.w_qkv, 0.0f, qkv.f32().data());
    K::AddBiasRows(qkv.f32().data(), up.data() + lo_.b_qkv, bs, 3 * hm);
    st.q = NewAct({b_count * lh, s_count, hd});
    st.k = NewAct({b_count * lh, s_count, hd});
    st.v = NewAct({b_count * lh, s_count, hd});
    SplitHeads(qkv.f32().data(), 3 * hm, 0, st.q.f32().data(), b_count,
               s_count, lh, hd);
    SplitHeads(qkv.f32().data(), 3 * hm, hm, st.k.f32().data(), b_count,
               s_count, lh, hd);
    SplitHeads(qkv.f32().data(), 3 * hm, 2 * hm, st.v.f32().data(), b_count,
               s_count, lh, hd);
  }

  // Scaled dot-product attention with causal mask, per (batch, head).
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  st.att = NewAct({b_count * lh, s_count, s_count});
  for (std::int64_t bh = 0; bh < b_count * lh; ++bh) {
    K::Gemm(false, true, s_count, s_count, hd, scale,
            st.q.f32().data() + bh * s_count * hd,
            st.k.f32().data() + bh * s_count * hd, 0.0f,
            st.att.f32().data() + bh * s_count * s_count);
  }
  K::CausalMaskedSoftmax(st.att.f32().data(), b_count * lh, s_count, s_count);

  st.ctx = NewAct({bs, hm});
  {
    Tensor ctx_heads = NewAct({b_count * lh, s_count, hd});
    for (std::int64_t bh = 0; bh < b_count * lh; ++bh) {
      K::Gemm(false, false, s_count, hd, s_count, 1.0f,
              st.att.f32().data() + bh * s_count * s_count,
              st.v.f32().data() + bh * s_count * hd, 0.0f,
              ctx_heads.f32().data() + bh * s_count * hd);
    }
    MergeHeads(ctx_heads.f32().data(), st.ctx.f32().data(), hm, 0, b_count,
               s_count, lh, hd);
  }

  // Attention output projection (row-parallel): partial matmul, then
  // MP all-reduce #1, then the replicated bias.
  st.x_mid = NewAct({bs, h});
  {
    Tensor o = NewAct({bs, h});
    K::Gemm(false, true, bs, h, hm, 1.0f, st.ctx.f32().data(),
            up.data() + lo_.w_o, 0.0f, o.f32().data());
    MpAllReduce(o.f32().data(), bs * h);
    K::AddBiasRows(o.f32().data(), up.data() + lo_.b_o, bs, h);
    const float* ov = o.f32().data();
    float* xm = st.x_mid.f32().data();
    for (std::int64_t i = 0; i < bs * h; ++i) xm[i] = x_in[i] + ov[i];
  }

  st.ln2_mean = NewAct({bs});
  st.ln2_rstd = NewAct({bs});
  st.b2 = NewAct({bs, h});
  K::LayerNormForward(st.x_mid.f32().data(), up.data() + lo_.ln2_g,
                      up.data() + lo_.ln2_b, st.b2.f32().data(),
                      st.ln2_mean.f32().data(), st.ln2_rstd.f32().data(), bs,
                      h, config_.ln_eps);

  st.h1 = NewAct({bs, im});
  K::Gemm(false, true, bs, im, h, 1.0f, st.b2.f32().data(),
          up.data() + lo_.w_fc, 0.0f, st.h1.f32().data());

  // Fused epilogue: st.h1 becomes z = fc_out + bias (stashed for
  // backward), st.f the activation.
  st.f = NewAct({bs, im});
  K::BiasGeluForward(st.h1.f32().data(), up.data() + lo_.b_fc,
                     st.h1.f32().data(), st.f.f32().data(), bs, im);

  // MLP output projection (row-parallel): MP all-reduce #2.
  {
    Tensor p = NewAct({bs, h});
    K::Gemm(false, true, bs, h, im, 1.0f, st.f.f32().data(),
            up.data() + lo_.w_pr, 0.0f, p.f32().data());
    MpAllReduce(p.f32().data(), bs * h);
    K::AddBiasRows(p.f32().data(), up.data() + lo_.b_pr, bs, h);
    const float* pv = p.f32().data();
    const float* xm = st.x_mid.f32().data();
    for (std::int64_t i = 0; i < bs * h; ++i) x_out[i] = xm[i] + pv[i];
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
  K::BiasGeluBackward(st.h1.f32().data(), df_t.f32().data(),
                      dh1_t.f32().data(), g + lo_.b_fc, bs, im);
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

  Tensor dctxh_t = NewAct({b_count * lh, s_count, hd});
  SplitHeads(dctx_t.f32().data(), hm, 0, dctxh_t.f32().data(), b_count,
             s_count, lh, hd);
  dctx_t = Tensor();

  Tensor datt_t = NewAct({b_count * lh, s_count, s_count});
  Tensor dv_t = NewAct({b_count * lh, s_count, hd});
  for (std::int64_t bh = 0; bh < b_count * lh; ++bh) {
    K::Gemm(false, true, s_count, s_count, hd, 1.0f,
            dctxh_t.f32().data() + bh * s_count * hd,
            st.v.f32().data() + bh * s_count * hd, 0.0f,
            datt_t.f32().data() + bh * s_count * s_count);
    K::Gemm(true, false, s_count, hd, s_count, 1.0f,
            st.att.f32().data() + bh * s_count * s_count,
            dctxh_t.f32().data() + bh * s_count * hd, 0.0f,
            dv_t.f32().data() + bh * s_count * hd);
  }
  dctxh_t = Tensor();

  // Softmax backward (masked entries have probability 0, so their
  // gradient vanishes automatically).
  K::SoftmaxBackwardRows(st.att.f32().data(), datt_t.f32().data(),
                         datt_t.f32().data(), b_count * lh * s_count,
                         s_count);

  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  Tensor dq_t = NewAct({b_count * lh, s_count, hd});
  Tensor dk_t = NewAct({b_count * lh, s_count, hd});
  for (std::int64_t bh = 0; bh < b_count * lh; ++bh) {
    K::Gemm(false, false, s_count, hd, s_count, scale,
            datt_t.f32().data() + bh * s_count * s_count,
            st.k.f32().data() + bh * s_count * hd, 0.0f,
            dq_t.f32().data() + bh * s_count * hd);
    K::Gemm(true, false, s_count, hd, s_count, scale,
            datt_t.f32().data() + bh * s_count * s_count,
            st.q.f32().data() + bh * s_count * hd, 0.0f,
            dk_t.f32().data() + bh * s_count * hd);
  }
  datt_t = Tensor();

  Tensor dqkv_t = NewAct({bs, 3 * hm});
  MergeHeads(dq_t.f32().data(), dqkv_t.f32().data(), 3 * hm, 0, b_count,
             s_count, lh, hd);
  MergeHeads(dk_t.f32().data(), dqkv_t.f32().data(), 3 * hm, hm, b_count,
             s_count, lh, hd);
  MergeHeads(dv_t.f32().data(), dqkv_t.f32().data(), 3 * hm, 2 * hm, b_count,
             s_count, lh, hd);
  dq_t = Tensor();
  dk_t = Tensor();
  dv_t = Tensor();

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

float GptModel::EvalForwardLogits(const Batch& batch, ParamProvider& params,
                                  std::span<float> logits_out) {
  namespace K = tensor;
  const std::int64_t b_count = batch.rows;
  const std::int64_t s_count = batch.cols;
  ZERO_CHECK(s_count == config_.seq, "batch seq length must match config");
  const std::int64_t bs = b_count * s_count;
  const std::int64_t h = config_.hidden;
  const std::int64_t v = config_.vocab;
  const int layers = static_cast<int>(config_.layers);
  ZERO_CHECK(batch.inputs.size() == static_cast<std::size_t>(bs),
             "batch token count mismatch");
  ZERO_CHECK(logits_out.size() >= static_cast<std::size_t>(bs * v),
             "logits buffer too small");

  Tensor x = NewAct({bs, h});
  {
    std::span<const float> u0 = params.AcquireUnit(0, Phase::kForward);
    const float* wte = u0.data() + off_wte_;
    const float* wpe = u0.data() + off_wpe_;
    float* xp = x.f32().data();
    for (std::int64_t i = 0; i < bs; ++i) {
      const std::int64_t id = batch.inputs[static_cast<std::size_t>(i)];
      ZERO_CHECK(id >= 0 && id < v, "token id out of range");
      const std::int64_t pos = i % s_count;
      const float* te = wte + id * h;
      const float* pe = wpe + pos * h;
      float* row = xp + i * h;
      for (std::int64_t c = 0; c < h; ++c) row[c] = te[c] + pe[c];
    }
    params.ReleaseUnit(0, Phase::kForward);
  }

  LayerStash st;
  for (int l = 0; l < layers; ++l) {
    std::span<const float> up = params.AcquireUnit(l + 1, Phase::kForward);
    Tensor x_next = NewAct({bs, h});
    BlockForward(up, x.f32().data(), x_next.f32().data(), bs, st);
    params.ReleaseUnit(l + 1, Phase::kForward);
    st.DropAll();
    x = std::move(x_next);
  }

  const int unit_f = layers + 1;
  Tensor lnf_mean = NewAct({bs});
  Tensor lnf_rstd = NewAct({bs});
  Tensor y = NewAct({bs, h});
  {
    std::span<const float> uf = params.AcquireUnit(unit_f, Phase::kForward);
    K::LayerNormForward(x.f32().data(), uf.data() + off_lnf_g_,
                        uf.data() + off_lnf_b_, y.f32().data(),
                        lnf_mean.f32().data(), lnf_rstd.f32().data(), bs, h,
                        config_.ln_eps);
    params.ReleaseUnit(unit_f, Phase::kForward);
  }

  float loss = 0.0f;
  {
    std::span<const float> u0 = params.AcquireUnit(0, Phase::kForward);
    K::Gemm(false, true, bs, v, h, 1.0f, y.f32().data(),
            u0.data() + off_wte_, 0.0f, logits_out.data());
    if (batch.targets.size() == static_cast<std::size_t>(bs)) {
      Tensor dlogits = NewAct({bs, v});
      loss = K::CrossEntropyLoss(logits_out.data(), batch.targets.data(), bs,
                                 v, dlogits.f32().data());
    }
    params.ReleaseUnit(0, Phase::kForward);
  }
  return loss;
}

namespace {

// Provider-backed access: identical pointers through the identical
// tensor::Gemm calls the pre-seam DecodeForward made, so this path is
// bitwise what it always was.
class ProviderDecodeAccess final : public DecodeParamAccess {
 public:
  explicit ProviderDecodeAccess(ParamProvider& params) : params_(params) {}
  void BeginUnit(int unit) override {
    cur_ = params_.AcquireUnit(unit, Phase::kForward);
  }
  void EndUnit(int unit) override {
    params_.ReleaseUnit(unit, Phase::kForward);
    cur_ = {};
  }
  const float* Vec(int, std::int64_t off) override {
    return cur_.data() + off;
  }
  void WeightGemm(int, std::int64_t off, std::int64_t m, std::int64_t n,
                  std::int64_t k, float alpha, const float* a, float beta,
                  float* c) override {
    tensor::Gemm(false, true, m, n, k, alpha, a, cur_.data() + off, beta, c);
  }
  void WeightRow(int, std::int64_t off, std::int64_t row, std::int64_t cols,
                 float* dst) override {
    std::memcpy(dst, cur_.data() + off + row * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }

 private:
  ParamProvider& params_;
  std::span<const float> cur_;
};

// Packed-store access: weights live engine-side in a GEMM backend's
// native precision; units are always resident, so Begin/End are no-ops.
class PackedDecodeAccess final : public DecodeParamAccess {
 public:
  explicit PackedDecodeAccess(const ServingWeights& weights)
      : weights_(weights) {}
  void BeginUnit(int) override {}
  void EndUnit(int) override {}
  const float* Vec(int unit, std::int64_t off) override {
    return weights_.Vec(unit, off);
  }
  void WeightGemm(int unit, std::int64_t off, std::int64_t m, std::int64_t n,
                  std::int64_t k, float alpha, const float* a, float beta,
                  float* c) override {
    weights_.GemmWeightT(unit, off, m, n, k, alpha, a, beta, c);
  }
  void WeightRow(int unit, std::int64_t off, std::int64_t row,
                 std::int64_t cols, float* dst) override {
    weights_.DecodeRow(unit, off, row, cols, dst);
  }

 private:
  const ServingWeights& weights_;
};

}  // namespace

int GptModel::DecodeForward(std::span<const DecodeToken> tokens,
                            ParamProvider& params, KvCache& kv,
                            std::span<float> logits_out) {
  ProviderDecodeAccess access(params);
  return DecodeForwardImpl(tokens, access, kv, logits_out);
}

int GptModel::DecodeForward(std::span<const DecodeToken> tokens,
                            const ServingWeights& weights, KvCache& kv,
                            std::span<float> logits_out) {
  PackedDecodeAccess access(weights);
  return DecodeForwardImpl(tokens, access, kv, logits_out);
}

int GptModel::DecodeForwardImpl(std::span<const DecodeToken> tokens,
                                DecodeParamAccess& access, KvCache& kv,
                                std::span<float> logits_out) {
  namespace K = tensor;
  const std::int64_t n = static_cast<std::int64_t>(tokens.size());
  ZERO_CHECK(n > 0, "empty decode step");
  const std::int64_t h = config_.hidden;
  const std::int64_t v = config_.vocab;
  const std::int64_t hm = h / mp_size();
  const std::int64_t im = config_.inner() / mp_size();
  const std::int64_t lh = LocalHeads();
  const std::int64_t hd = h / config_.heads;
  const int layers = static_cast<int>(config_.layers);

  // Group boundaries: contiguous runs of one slot, consecutive positions.
  struct Group {
    std::int64_t begin, end;
  };
  std::vector<Group> groups;
  for (std::int64_t i = 0; i < n; ++i) {
    ZERO_CHECK(tokens[static_cast<std::size_t>(i)].pos >= 0 &&
                   tokens[static_cast<std::size_t>(i)].pos < config_.seq,
               "decode position out of range");
    if (i == 0 ||
        tokens[static_cast<std::size_t>(i)].slot !=
            tokens[static_cast<std::size_t>(i - 1)].slot) {
      groups.push_back({i, i + 1});
    } else {
      ZERO_CHECK(tokens[static_cast<std::size_t>(i)].pos ==
                     tokens[static_cast<std::size_t>(i - 1)].pos + 1,
                 "group positions must be consecutive");
      groups.back().end = i + 1;
    }
  }
  ZERO_CHECK(logits_out.size() >=
                 groups.size() * static_cast<std::size_t>(v),
             "logits buffer too small");

  // ---- embedding ----
  Tensor x = NewAct({n, h});
  {
    access.BeginUnit(0);
    const float* wpe = access.Vec(0, off_wpe_);
    std::vector<float> te(static_cast<std::size_t>(h));
    float* xp = x.f32().data();
    for (std::int64_t i = 0; i < n; ++i) {
      const DecodeToken& t = tokens[static_cast<std::size_t>(i)];
      ZERO_CHECK(t.token >= 0 && t.token < v, "token id out of range");
      access.WeightRow(0, off_wte_, t.token, h, te.data());
      const float* pe = wpe + t.pos * h;
      float* row = xp + i * h;
      for (std::int64_t c = 0; c < h; ++c) row[c] = te[c] + pe[c];
    }
    access.EndUnit(0);
  }

  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  // Per-(group, head) scratch, packed contiguous so attention runs
  // through the same Gemm kernel as BlockForward (see the bit-exactness
  // note below).
  std::vector<float> q_pack, k_pack, v_pack, scores, att_pad, ctx_head;

  for (int l = 0; l < layers; ++l) {
    const int unit = l + 1;
    access.BeginUnit(unit);

    Tensor ln1_mean = NewAct({n});
    Tensor ln1_rstd = NewAct({n});
    Tensor a = NewAct({n, h});
    K::LayerNormForward(x.f32().data(), access.Vec(unit, lo_.ln1_g),
                        access.Vec(unit, lo_.ln1_b), a.f32().data(),
                        ln1_mean.f32().data(), ln1_rstd.f32().data(), n, h,
                        config_.ln_eps);

    Tensor qkv = NewAct({n, 3 * hm});
    access.WeightGemm(unit, lo_.w_qkv, n, 3 * hm, h, 1.0f, a.f32().data(),
                      0.0f, qkv.f32().data());
    K::AddBiasRows(qkv.f32().data(), access.Vec(unit, lo_.b_qkv), n, 3 * hm);

    // Append this step's K/V rows to the cache before attending, so
    // tokens later in a prefill chunk see earlier ones.
    const float* qkvp = qkv.f32().data();
    for (std::int64_t i = 0; i < n; ++i) {
      const DecodeToken& t = tokens[static_cast<std::size_t>(i)];
      std::memcpy(kv.KRow(t.slot, l, t.pos), qkvp + i * 3 * hm + hm,
                  static_cast<std::size_t>(hm) * sizeof(float));
      std::memcpy(kv.VRow(t.slot, l, t.pos), qkvp + i * 3 * hm + 2 * hm,
                  static_cast<std::size_t>(hm) * sizeof(float));
    }

    // Paged causal attention against the cached prefix. Q and the
    // cached K/V prefix are packed contiguous per (group, head) and fed
    // through K::Gemm — the same compiled kernel BlockForward's
    // attention uses. The context GEMM is zero-padded out to k = seq so
    // its reduction length matches the full forward exactly: with
    // -ffp-contract the kernel's unrolled body and remainder path can
    // round mul+add differently, so the same values summed over k_len
    // versus seq terms may differ in the last bit. Padded terms multiply
    // a +0 attention weight and leave the accumulator bitwise unchanged,
    // which keeps decode logits bit-exact vs the full forward.
    const std::int64_t s_full = config_.seq;
    Tensor ctx = NewAct({n, hm});
    float* ctxp = ctx.f32().data();
    for (const Group& g : groups) {
      const std::int64_t q_len = g.end - g.begin;
      const DecodeToken& first = tokens[static_cast<std::size_t>(g.begin)];
      const std::int64_t k_len =
          tokens[static_cast<std::size_t>(g.end - 1)].pos + 1;
      const std::int32_t slot = first.slot;
      for (std::int64_t head = 0; head < lh; ++head) {
        q_pack.resize(static_cast<std::size_t>(q_len * hd));
        k_pack.resize(static_cast<std::size_t>(k_len * hd));
        v_pack.assign(static_cast<std::size_t>(s_full * hd), 0.0f);
        for (std::int64_t qi = 0; qi < q_len; ++qi) {
          std::memcpy(q_pack.data() + qi * hd,
                      qkvp + (g.begin + qi) * 3 * hm + head * hd,
                      static_cast<std::size_t>(hd) * sizeof(float));
        }
        for (std::int64_t j = 0; j < k_len; ++j) {
          std::memcpy(k_pack.data() + j * hd,
                      kv.KRow(slot, l, j) + head * hd,
                      static_cast<std::size_t>(hd) * sizeof(float));
          std::memcpy(v_pack.data() + j * hd,
                      kv.VRow(slot, l, j) + head * hd,
                      static_cast<std::size_t>(hd) * sizeof(float));
        }
        // Scores reduce over hd (a fixed length), so no padding needed.
        scores.resize(static_cast<std::size_t>(q_len * k_len));
        K::Gemm(false, true, q_len, k_len, hd, scale, q_pack.data(),
                k_pack.data(), 0.0f, scores.data());
        K::CausalMaskedSoftmax(scores.data(), 1, q_len, k_len);
        att_pad.assign(static_cast<std::size_t>(q_len * s_full), 0.0f);
        for (std::int64_t qi = 0; qi < q_len; ++qi) {
          std::memcpy(att_pad.data() + qi * s_full,
                      scores.data() + qi * k_len,
                      static_cast<std::size_t>(k_len) * sizeof(float));
        }
        ctx_head.resize(static_cast<std::size_t>(q_len * hd));
        K::Gemm(false, false, q_len, hd, s_full, 1.0f, att_pad.data(),
                v_pack.data(), 0.0f, ctx_head.data());
        for (std::int64_t qi = 0; qi < q_len; ++qi) {
          std::memcpy(ctxp + (g.begin + qi) * hm + head * hd,
                      ctx_head.data() + qi * hd,
                      static_cast<std::size_t>(hd) * sizeof(float));
        }
      }
    }

    // Attention output projection (row-parallel) + MP all-reduce #1.
    Tensor x_mid = NewAct({n, h});
    {
      Tensor o = NewAct({n, h});
      access.WeightGemm(unit, lo_.w_o, n, h, hm, 1.0f, ctxp, 0.0f,
                        o.f32().data());
      MpAllReduce(o.f32().data(), n * h);
      K::AddBiasRows(o.f32().data(), access.Vec(unit, lo_.b_o), n, h);
      const float* ov = o.f32().data();
      const float* xp = x.f32().data();
      float* xm = x_mid.f32().data();
      for (std::int64_t i = 0; i < n * h; ++i) xm[i] = xp[i] + ov[i];
    }

    Tensor ln2_mean = NewAct({n});
    Tensor ln2_rstd = NewAct({n});
    Tensor b2 = NewAct({n, h});
    K::LayerNormForward(x_mid.f32().data(), access.Vec(unit, lo_.ln2_g),
                        access.Vec(unit, lo_.ln2_b), b2.f32().data(),
                        ln2_mean.f32().data(), ln2_rstd.f32().data(), n, h,
                        config_.ln_eps);

    Tensor h1 = NewAct({n, im});
    access.WeightGemm(unit, lo_.w_fc, n, im, h, 1.0f, b2.f32().data(), 0.0f,
                      h1.f32().data());
    Tensor f = NewAct({n, im});
    K::BiasGeluForward(h1.f32().data(), access.Vec(unit, lo_.b_fc),
                       h1.f32().data(), f.f32().data(), n, im);

    // MLP output projection (row-parallel) + MP all-reduce #2.
    Tensor x_next = NewAct({n, h});
    {
      Tensor p = NewAct({n, h});
      access.WeightGemm(unit, lo_.w_pr, n, h, im, 1.0f, f.f32().data(), 0.0f,
                        p.f32().data());
      MpAllReduce(p.f32().data(), n * h);
      K::AddBiasRows(p.f32().data(), access.Vec(unit, lo_.b_pr), n, h);
      const float* pv = p.f32().data();
      const float* xm = x_mid.f32().data();
      float* xo = x_next.f32().data();
      for (std::int64_t i = 0; i < n * h; ++i) xo[i] = xm[i] + pv[i];
    }
    access.EndUnit(unit);
    x = std::move(x_next);
  }

  // ---- final norm + logits for each group's last row ----
  const std::int64_t n_groups = static_cast<std::int64_t>(groups.size());
  Tensor last = NewAct({n_groups, h});
  {
    float* lp = last.f32().data();
    const float* xp = x.f32().data();
    for (std::int64_t g = 0; g < n_groups; ++g) {
      std::memcpy(lp + g * h,
                  xp + (groups[static_cast<std::size_t>(g)].end - 1) * h,
                  static_cast<std::size_t>(h) * sizeof(float));
    }
  }
  const int unit_f = layers + 1;
  Tensor lnf_mean = NewAct({n_groups});
  Tensor lnf_rstd = NewAct({n_groups});
  Tensor y = NewAct({n_groups, h});
  {
    access.BeginUnit(unit_f);
    K::LayerNormForward(last.f32().data(), access.Vec(unit_f, off_lnf_g_),
                        access.Vec(unit_f, off_lnf_b_), y.f32().data(),
                        lnf_mean.f32().data(), lnf_rstd.f32().data(),
                        n_groups, h, config_.ln_eps);
    access.EndUnit(unit_f);
  }
  {
    access.BeginUnit(0);
    access.WeightGemm(0, off_wte_, n_groups, v, h, 1.0f, y.f32().data(),
                      0.0f, logits_out.data());
    access.EndUnit(0);
  }
  return static_cast<int>(n_groups);
}

std::int64_t GptModel::FullParamNumel(const GptConfig& c) {
  const std::int64_t h = c.hidden;
  const std::int64_t i = c.inner();
  const std::int64_t block =
      2 * h + (3 * h * h + 3 * h) + (h * h + h) + 2 * h + (i * h + i) +
      (h * i + h);
  return (c.vocab + c.seq) * h + c.layers * block + 2 * h;
}

void GptModel::ImportFullParams(std::span<const float> full,
                                std::span<float> local) const {
  const std::int64_t h = config_.hidden;
  const std::int64_t i_total = config_.inner();
  const std::int64_t hm = h / mp_size();
  const std::int64_t im = i_total / mp_size();
  const std::int64_t r = mp_rank();
  ZERO_CHECK(full.size() ==
                 static_cast<std::size_t>(FullParamNumel(config_)),
             "full parameter vector size mismatch");
  ZERO_CHECK(local.size() == static_cast<std::size_t>(layout_.total_numel()),
             "local parameter vector size mismatch");

  // Full (mp=1) layout offsets, mirroring the constructor's Add order.
  struct FullOffsets {
    std::int64_t ln1_g, ln1_b, w_qkv, b_qkv, w_o, b_o;
    std::int64_t ln2_g, ln2_b, w_fc, b_fc, w_pr, b_pr, block;
  } fo;
  fo.ln1_g = 0;
  fo.ln1_b = fo.ln1_g + h;
  fo.w_qkv = fo.ln1_b + h;
  fo.b_qkv = fo.w_qkv + 3 * h * h;
  fo.w_o = fo.b_qkv + 3 * h;
  fo.b_o = fo.w_o + h * h;
  fo.ln2_g = fo.b_o + h;
  fo.ln2_b = fo.ln2_g + h;
  fo.w_fc = fo.ln2_b + h;
  fo.b_fc = fo.w_fc + i_total * h;
  fo.w_pr = fo.b_fc + i_total;
  fo.b_pr = fo.w_pr + h * i_total;
  fo.block = fo.b_pr + h;

  auto copy = [](std::span<float> dst, std::int64_t dst_off,
                 std::span<const float> src, std::int64_t src_off,
                 std::int64_t count) {
    std::memcpy(dst.data() + dst_off, src.data() + src_off,
                static_cast<std::size_t>(count) * sizeof(float));
  };

  // Unit 0 (embeddings) is replicated: identical layout, straight copy.
  copy(local, 0, full, 0, (config_.vocab + config_.seq) * h);

  const std::int64_t full_blocks_base = (config_.vocab + config_.seq) * h;
  for (std::int64_t l = 0; l < config_.layers; ++l) {
    auto [ub, ue] = layout_.UnitRange(static_cast<int>(l) + 1);
    std::span<float> lu = local.subspan(static_cast<std::size_t>(ub),
                                        static_cast<std::size_t>(ue - ub));
    std::span<const float> fu = full.subspan(
        static_cast<std::size_t>(full_blocks_base + l * fo.block),
        static_cast<std::size_t>(fo.block));

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

  auto [fb, fe] = layout_.UnitRange(static_cast<int>(config_.layers) + 1);
  copy(local, fb, full, full_blocks_base + config_.layers * fo.block,
       fe - fb);
}

float GptModel::Step(const Batch& batch, ParamProvider& params,
                     GradSink& grads) {
  namespace K = tensor;
  const std::int64_t b_count = batch.rows;
  const std::int64_t s_count = batch.cols;
  ZERO_CHECK(s_count == config_.seq, "batch seq length must match config");
  const std::int64_t bs = b_count * s_count;
  const std::int64_t h = config_.hidden;
  const std::int64_t v = config_.vocab;
  const int layers = static_cast<int>(config_.layers);
  ZERO_CHECK(batch.inputs.size() == static_cast<std::size_t>(bs) &&
                 batch.targets.size() == static_cast<std::size_t>(bs),
             "batch token count mismatch");

  // ---- forward: embedding ----
  Tensor x = NewAct({bs, h});
  {
    std::span<const float> u0 = params.AcquireUnit(0, Phase::kForward);
    const float* wte = u0.data() + off_wte_;
    const float* wpe = u0.data() + off_wpe_;
    float* xp = x.f32().data();
    for (std::int64_t i = 0; i < bs; ++i) {
      const std::int64_t id = batch.inputs[static_cast<std::size_t>(i)];
      ZERO_CHECK(id >= 0 && id < v, "token id out of range");
      const std::int64_t pos = i % s_count;
      const float* te = wte + id * h;
      const float* pe = wpe + pos * h;
      float* row = xp + i * h;
      for (std::int64_t c = 0; c < h; ++c) row[c] = te[c] + pe[c];
    }
    params.ReleaseUnit(0, Phase::kForward);
  }

  // ---- forward: blocks ----
  std::vector<LayerStash> stashes(static_cast<std::size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    LayerStash& st = stashes[static_cast<std::size_t>(l)];
    std::span<const float> up = params.AcquireUnit(l + 1, Phase::kForward);
    Tensor x_next = NewAct({bs, h});
    BlockForward(up, x.f32().data(), x_next.f32().data(), bs, st);
    params.ReleaseUnit(l + 1, Phase::kForward);
    if (config_.activation_checkpointing) {
      st.ckpt_handle = session_.checkpoints->Save(l, x.f32());
      st.DropAll();  // recomputed during backward
    } else {
      st.x_in = std::move(x);
    }
    x = std::move(x_next);
  }

  // ---- forward: final norm + tied-embedding logits ----
  const int unit_f = layers + 1;
  Tensor lnf_mean = NewAct({bs});
  Tensor lnf_rstd = NewAct({bs});
  Tensor y = NewAct({bs, h});
  {
    std::span<const float> uf = params.AcquireUnit(unit_f, Phase::kForward);
    K::LayerNormForward(x.f32().data(), uf.data() + off_lnf_g_,
                        uf.data() + off_lnf_b_, y.f32().data(),
                        lnf_mean.f32().data(), lnf_rstd.f32().data(), bs, h,
                        config_.ln_eps);
    params.ReleaseUnit(unit_f, Phase::kForward);
  }

  Tensor dlogits = NewAct({bs, v});
  float loss = 0.0f;
  {
    std::span<const float> u0 = params.AcquireUnit(0, Phase::kForward);
    Tensor logits = NewAct({bs, v});
    K::Gemm(false, true, bs, v, h, 1.0f, y.f32().data(),
            u0.data() + off_wte_, 0.0f, logits.f32().data());
    loss = K::CrossEntropyLoss(logits.f32().data(), batch.targets.data(), bs,
                               v, dlogits.f32().data());
    params.ReleaseUnit(0, Phase::kForward);
  }

  // ---- backward ----
  // Unit-0 gradient accumulates across the whole backward pass (logits
  // contribution now, embedding scatter at the end), so it is emitted
  // last — the order stage-2 bucketization expects.
  std::vector<float> g0(
      static_cast<std::size_t>(layout_.UnitNumel(0)), 0.0f);

  Tensor dy = NewAct({bs, h});
  {
    std::span<const float> u0 = params.AcquireUnit(0, Phase::kBackward);
    K::Gemm(false, false, bs, h, v, 1.0f, dlogits.f32().data(),
            u0.data() + off_wte_, 0.0f, dy.f32().data());
    K::Gemm(true, false, v, h, bs, 1.0f, dlogits.f32().data(),
            y.f32().data(), 1.0f, g0.data() + off_wte_);
    params.ReleaseUnit(0, Phase::kBackward);
  }
  dlogits = Tensor();
  y = Tensor();

  Tensor dx = NewAct({bs, h});
  {
    std::span<const float> uf = params.AcquireUnit(unit_f, Phase::kBackward);
    std::vector<float> gf(static_cast<std::size_t>(layout_.UnitNumel(unit_f)),
                          0.0f);
    K::LayerNormBackward(x.f32().data(), uf.data() + off_lnf_g_,
                         lnf_mean.f32().data(), lnf_rstd.f32().data(),
                         dy.f32().data(), dx.f32().data(),
                         gf.data() + off_lnf_g_, gf.data() + off_lnf_b_, bs,
                         h);
    params.ReleaseUnit(unit_f, Phase::kBackward);
    grads.EmitUnitGrad(unit_f, gf);
  }
  dy = Tensor();
  x = Tensor();
  lnf_mean = Tensor();
  lnf_rstd = Tensor();

  std::vector<float> ugrad;
  for (int l = layers - 1; l >= 0; --l) {
    LayerStash& st = stashes[static_cast<std::size_t>(l)];
    std::span<const float> up = params.AcquireUnit(l + 1, Phase::kBackward);

    if (config_.activation_checkpointing) {
      // Restore the block input and recompute the forward pass to rebuild
      // the stash (the "33% recomputation overhead").
      st.x_in = NewAct({bs, h});
      session_.checkpoints->Load(st.ckpt_handle, st.x_in.f32());
      Tensor x_scratch = NewAct({bs, h});
      BlockForward(up, st.x_in.f32().data(), x_scratch.f32().data(), bs, st);
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
