// GEMM backends for reduced-precision serving weights, selected by name
// at load time (the Dali idiom: every precision implements one
// interface and the hot path runs identical call sites for each).
//
// A backend owns the encoding of a [n, k] weight matrix plus the
// matching GEMM against it:
//
//   C[m,n] = alpha * A[m,k] * W[n,k]^T + beta * C
//
// with A fp32 activations. Each precision has exactly one encoding:
//
//   "fp32"  — passthrough: stores the identical floats and calls the
//             identical tensor::Gemm, so serving through it stays
//             memcmp-bit-exact with the trainer's eval forward.
//   "fp16"  — Half storage pre-packed into the GEMM's micro-panel
//             layout (kernels.hpp PackHalfPanelsT), read in place by
//             the micro-kernel and widened in registers; no fp32 copy
//             of the weights, not even a per-call tile, is materialized.
//   "int8"  — blockwise-int8 codes (tensor/quantize wire discipline)
//             with the per-block scales pre-decoded to fp32; ~4x
//             smaller than fp32, bounded per-element error absmax/127.
//
// Every GemmWeightT is bitwise equal to decoding W through DecodeRow and
// calling Gemm(false, true, ...) on the result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace zero::tensor {

class GemmBackend {
 public:
  virtual ~GemmBackend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  // Bytes of packed storage a [n, k] weight matrix needs.
  [[nodiscard]] virtual std::size_t PackedBytes(std::int64_t n,
                                                std::int64_t k) const = 0;

  // Encodes the row-major [n, k] fp32 matrix into `dst` (PackedBytes(n, k)
  // bytes, at least 4-byte aligned).
  virtual void Pack(const float* src, std::int64_t n, std::int64_t k,
                    std::byte* dst) const = 0;

  // Row `row` of the packed [n, k] matrix back to fp32 (embedding
  // gathers).
  virtual void DecodeRow(const std::byte* packed, std::int64_t n,
                         std::int64_t k, std::int64_t row,
                         float* dst) const = 0;

  // C[m,n] = alpha * A[m,k] * W[n,k]^T + beta * C for the packed W.
  virtual void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                           float alpha, const float* a,
                           const std::byte* packed, float beta,
                           float* c) const = 0;
};

// One of the fixed backends "fp32", "fp16" and "int8". The name is
// outside input (ZERO_SERVE_WEIGHTS, InferenceOptions::weights), so an
// unknown one throws ConfigError listing the known names. The reference
// stays valid for process lifetime.
[[nodiscard]] const GemmBackend& GemmBackendByName(std::string_view name);

}  // namespace zero::tensor
