// Blockwise symmetric int8 quantization (ZeRO++ qwZ/qgZ wire format).
//
// A tensor of n elements is split into ceil(n/block) blocks; each block
// carries one fp16 scale (absmax/127) followed by one int8 code per
// element: x ~= code * scale with |error| <= absmax/127 per element.
// The wire layout for a message is
//
//   [ Half scale[blocks] ][ int8 code[n] ]
//
// i.e. 2*blocks + n bytes — a ~3.8x reduction over the fp16 payload at
// the default block size of 64 and ~7.8x over fp32.
//
// Edge-case policy (property-tested in tests/tensor/quantize_test.cpp):
//  - absmax == 0 (or so small the fp16 scale rounds to 0): scale = 0,
//    all codes 0, dequantizes to exact +0.
//  - any non-finite element in a block: the scale is stored as fp16 NaN
//    (if a NaN was present) or Inf, and every code is 1 — the whole
//    block dequantizes to NaN/Inf so the engine's overflow detection
//    still fires after a quantized hop.
//  - amax/127 overflows fp16 (amax > ~8.3e6, fp32 inputs only): treated
//    as the non-finite case.
//
// Determinism: the public entry points dispatch to AVX-512 bodies when
// the build targets them and are bit-identical to the *Scalar reference
// implementations (division + round-to-nearest-even in both paths).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/half.hpp"

namespace zero::tensor {

// Elements per quantization block on the ZeRO++ wire (qwZ parameter
// gathers, qgZ gradient relays): one fp16 scale per 64 codes.
inline constexpr std::int64_t kQuantBlock = 64;

// Largest supported quantization block (bounds the on-stack fp32
// staging buffer used by the fp16 entry points).
inline constexpr std::int64_t kMaxQuantBlock = 4096;

[[nodiscard]] constexpr std::int64_t QuantBlocks(std::int64_t n,
                                                 std::int64_t block) {
  return block > 0 ? (n + block - 1) / block : 0;
}

// Bytes of one quantized message of n elements: fp16 scales + int8 codes.
[[nodiscard]] constexpr std::size_t QuantWireBytes(std::int64_t n,
                                                   std::int64_t block) {
  return static_cast<std::size_t>(2 * QuantBlocks(n, block) + n);
}

// fp32 <-> wire.
void QuantizeF32(const float* src, std::int64_t n, std::int64_t block,
                 std::byte* wire);
void DequantizeF32(const std::byte* wire, std::int64_t n, std::int64_t block,
                   float* dst);
// dst[i] += dequant(i) — the qgZ owner-side fold of a remote node's
// quantized partial sum (mul then add, never FMA, so the scalar and
// vector paths round identically).
void DequantizeAddF32(const std::byte* wire, std::int64_t n,
                      std::int64_t block, float* dst);

// fp16 <-> wire. Decodes through fp32 and produces exactly the codes the
// f32 path would over the decoded values; dequantization rounds back to
// fp16 with round-to-nearest-even.
void QuantizeHalf(const Half* src, std::int64_t n, std::int64_t block,
                  std::byte* wire);
void DequantizeHalf(const std::byte* wire, std::int64_t n, std::int64_t block,
                    Half* dst);

// Scalar reference implementations (always compiled; used by the
// vector-vs-scalar bit-equality tests).
void QuantizeF32Scalar(const float* src, std::int64_t n, std::int64_t block,
                       std::byte* wire);
void DequantizeF32Scalar(const std::byte* wire, std::int64_t n,
                         std::int64_t block, float* dst);
void DequantizeAddF32Scalar(const std::byte* wire, std::int64_t n,
                            std::int64_t block, float* dst);

}  // namespace zero::tensor
