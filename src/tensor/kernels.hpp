// fp32 compute kernels (forward + backward) for the transformer runtime.
//
// These are the CPU stand-ins for the cuBLAS/cuDNN calls the paper's
// implementation makes. The GEMM is a packed, register-blocked
// micro-kernel (BLIS-style: A/B panels are packed into contiguous tile
// buffers from thread-local scratch so all four transpose cases hit the
// same cache-friendly inner loop). One loop nest serves every operand
// encoding — fp32 B and int8 serving weights differ only in how the
// fp32 B tile is filled, and fp16 serving weights are read in place and
// widened in the micro-kernel's registers. The large kernels partition their
// output rows across the opt-in intra-op worker pool (parallel_for.hpp).
//
// Determinism contract: every kernel returns bitwise-identical results
// at any worker count. Elementwise and per-row kernels get this for
// free (each output element is produced by exactly one chunk in serial
// order); reductions (bias grads, dgamma/dbeta, squared norms, the
// cross-entropy total) use fixed-size chunks whose partials are
// combined in chunk-index order on the calling thread. This is what
// keeps the ZeRO stage-equivalence tests exact while the kernels run
// parallel. Nothing here requires -ffast-math, and NaN/Inf propagate
// exactly (0 * Inf = NaN is preserved — the fp16 overflow detection in
// the loss scaler depends on seeing it).
#pragma once

#include <cstdint>

#include "common/half.hpp"

namespace zero::tensor {

// C[m,n] = alpha * op(A)[m,k] * op(B)[k,n] + beta * C[m,n].
// op(X) = X or X^T according to the trans flags; dimensions m/n/k always
// refer to the post-op shapes. Row-major storage with BLAS leading
// dimensions: A is stored [m, k] ([k, m] transposed) with rows lda floats
// apart, B [k, n] ([n, k] transposed) with rows ldb apart, and C [m, n]
// with rows ldc apart, so an operand may be a column slice of a wider
// matrix (attention reads each head in place from the qkv rows). Only
// C's m x n elements are read or written; the gaps between its rows are
// left untouched. Every shape runs the one packed loop nest.
//
// Numeric contract (DESIGN.md §9): an element's bits depend only on its
// row of op(A), its column of op(B), k and alpha — row i of Gemm(m,n,k)
// is bitwise Gemm(1,n,k) on that row, at any strides — and trailing zero
// terms in k are exact no-ops.
void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc);

// Contiguous operands: each leading dimension is its row's width.
inline void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float* a, const float* b,
                 float beta, float* c) {
  Gemm(trans_a, trans_b, m, n, k, alpha, a, trans_a ? m : k, b,
       trans_b ? k : n, beta, c, n);
}

// Reduced-precision weight GEMMs for the serving backends
// (tensor/gemm_backend.hpp). The weight operand W is stored [n, k] and
// used transposed (the shape every projection in the model keeps), so
//   C[m,n] = alpha * A[m,k] * W[n,k]^T + beta * C[m,n]
// with A fp32 activations. No persistent fp32 copy of W exists. Each
// entry point runs Gemm's own loop nest with only the B operand swapped:
// int8 B tiles are decoded as they are packed, and fp16 B is widened in
// registers. Both produce bitwise the result of decoding W to fp32 and
// calling Gemm(false, true, ...) — same kernels, same summation order.
//
// Blockwise-int8 W: element i decodes to codes[i] * scales[i / qblock]
// (scales pre-decoded to fp32, matching tensor/quantize's
// dequantization bitwise).
void GemmQuantWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                      float alpha, const float* a, const std::int8_t* codes,
                      const float* scales, std::int64_t qblock, float beta,
                      float* c);

// fp16 W, pre-packed once at load into the exact tile and micro-panel
// layout the packed GEMM's B pack produces (kNr-column panels per
// (column-block, k-block) tile, zero-padded past n). Per call there is
// no B pack and no fp32 B tile: the micro-kernel reads the panels in
// place and widens each B load in registers, to the same floats the
// decode table gives (the encoder quiets NaNs, so the panels hold no
// signalling NaN for the hardware widening to change).
[[nodiscard]] std::int64_t HalfPanelElems(std::int64_t n, std::int64_t k);
void PackHalfPanelsT(const float* w, std::int64_t n, std::int64_t k,
                     Half* dst);
// Decodes row `row` of the panel-packed [n, k] matrix to fp32 (embedding
// gathers).
void DecodeHalfPanelRow(const Half* panels, std::int64_t n, std::int64_t k,
                        std::int64_t row, float* dst);
void GemmHalfPanelsT(std::int64_t m, std::int64_t n, std::int64_t k,
                     float alpha, const float* a, const Half* panels,
                     float beta, float* c);

// x[rows, cols] += bias[cols] broadcast over rows.
void AddBiasRows(float* x, const float* bias, std::int64_t rows,
                 std::int64_t cols);
// dbias[cols] += sum over rows of dy[rows, cols].
void BiasGradFromRows(const float* dy, float* dbias, std::int64_t rows,
                      std::int64_t cols);

// Fused bias + activation epilogues: one pass over the activations
// instead of separate bias-add and activation kernels. GELU is the tanh
// approximation GPT-2 uses, evaluated as v * sigmoid(2u) through the
// kernels' vectorizable exp; every element's bits are independent of
// its position in the row.
//   forward:  z = x + bias (saved for backward), y = act(z); z may alias x.
//   backward: dx = dy * act'(z), dbias[cols] += column sums of dx;
//             dx may alias dy.
void BiasGeluForward(const float* x, const float* bias, float* z, float* y,
                     std::int64_t rows, std::int64_t cols);
void BiasGeluBackward(const float* z, const float* dy, float* dx,
                      float* dbias, std::int64_t rows, std::int64_t cols);

// Row-wise layer norm over `cols` features. mean/rstd ([rows]) are saved
// for backward.
void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float* y, float* mean, float* rstd, std::int64_t rows,
                      std::int64_t cols, float eps);
// dgamma/dbeta are accumulated (+=); dx is overwritten.
void LayerNormBackward(const float* x, const float* gamma, const float* mean,
                       const float* rstd, const float* dy, float* dx,
                       float* dgamma, float* dbeta, std::int64_t rows,
                       std::int64_t cols);

// In-place row-wise softmax. -inf entries come out exactly 0, and the
// first L outputs of a row padded with -inf past L are bitwise those of
// the unpadded length-L row (decode relies on this to match eval).
void SoftmaxRows(float* x, std::int64_t rows, std::int64_t cols);
// dx from saved softmax output y. dx may alias dy.
void SoftmaxBackwardRows(const float* y, const float* dy, float* dx,
                         std::int64_t rows, std::int64_t cols);

// scores[b, i, j] for b in [0, batch_heads): mask j > i to -inf, then
// softmax each row — causal attention.
void CausalMaskedSoftmax(float* scores, std::int64_t batch_heads,
                         std::int64_t q_len, std::int64_t k_len);

// Mean cross-entropy over rows; writes dlogits = (softmax - onehot)/rows.
// dlogits may be null (loss only). Probability rows live in thread-local
// scratch — no per-call allocation.
float CrossEntropyLoss(const float* logits, const std::int32_t* targets,
                       std::int64_t rows, std::int64_t vocab, float* dlogits);

void Axpy(float a, const float* x, float* y, std::int64_t n);
void Scale(float* x, float a, std::int64_t n);
[[nodiscard]] float SquaredNorm(const float* x, std::int64_t n);
[[nodiscard]] float SquaredNormF16(const Half* x, std::int64_t n);

// Bulk fp16 <-> fp32 conversion, row-partitioned over the worker pool.
// Same bit-exact semantics as the serial common/half.hpp converters
// (LUT decode, round-to-nearest-even encode).
void CastHalfToFloat(const Half* src, float* dst, std::int64_t n);
void CastFloatToHalf(const float* src, Half* dst, std::int64_t n);

}  // namespace zero::tensor
