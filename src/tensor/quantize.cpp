#include "tensor/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)
#include <immintrin.h>
#define ZERO_QUANT_AVX512 1
#else
#define ZERO_QUANT_AVX512 0
#endif

namespace zero::tensor {
namespace {

// fp16 bit patterns for the poison scales (see header policy).
constexpr std::uint16_t kScaleInfBits = 0x7C00u;
constexpr std::uint16_t kScaleNanBits = 0x7E00u;

struct BlockClass {
  float scale = 0.0f;           // decoded fp16 scale actually stored
  std::uint16_t bits = 0;       // fp16 scale bits on the wire
  enum Kind { kZero, kNormal, kPoison } kind = kZero;
};

// Classify one block: absmax over finite elements, non-finite detection,
// and the fp16 scale that will be used by BOTH quantize and dequantize
// (round-tripping through fp16 here is what makes the error bound hold).
BlockClass ClassifyBlock(const float* x, std::int64_t len) {
  float amax = 0.0f;
  bool nonfinite = false;
  bool nan = false;
  std::int64_t i = 0;
#if ZERO_QUANT_AVX512
  __m512i vamax = _mm512_setzero_si512();
  const __m512i abs_mask = _mm512_set1_epi32(0x7FFFFFFF);
  const __m512i exp_all = _mm512_set1_epi32(0x7F800000);
  for (; i + 16 <= len; i += 16) {
    const __m512i bits = _mm512_loadu_si512(x + i);
    const __m512i abs = _mm512_and_si512(bits, abs_mask);
    if (_mm512_cmpge_epu32_mask(abs, exp_all) != 0) {
      nonfinite = true;
      if (_mm512_cmpgt_epu32_mask(abs, exp_all) != 0) nan = true;
    }
    // Finite |x| compare exactly as unsigned ints, so an integer max is
    // an exact fp max over the finite lanes (non-finite lanes poison the
    // block anyway).
    vamax = _mm512_max_epu32(vamax, abs);
  }
  if (!nonfinite) {
    const std::uint32_t m = _mm512_reduce_max_epu32(vamax);
    float f;
    std::memcpy(&f, &m, sizeof(f));
    amax = f;
  }
#endif
  for (; i < len; ++i) {
    const float v = x[i];
    if (!std::isfinite(v)) {
      nonfinite = true;
      if (std::isnan(v)) nan = true;
      continue;
    }
    amax = std::max(amax, std::fabs(v));
  }
  BlockClass c;
  if (nonfinite) {
    c.kind = BlockClass::kPoison;
    c.bits = nan ? kScaleNanBits : kScaleInfBits;
    c.scale = Half::FromBits(c.bits).ToFloat();
    return c;
  }
  const Half hs(amax / 127.0f);
  const float s = hs.ToFloat();
  if (s == 0.0f) {
    c.kind = BlockClass::kZero;
    c.bits = 0;
    c.scale = 0.0f;
    return c;
  }
  if (!std::isfinite(s)) {  // amax/127 overflowed fp16 (fp32 inputs)
    c.kind = BlockClass::kPoison;
    c.bits = kScaleInfBits;
    c.scale = Half::FromBits(c.bits).ToFloat();
    return c;
  }
  c.kind = BlockClass::kNormal;
  c.bits = hs.bits();
  c.scale = s;
  return c;
}

// code[i] = clamp(nearbyint(x[i] / s), -127, 127) for a normal block.
void EncodeBlock(const float* x, std::int64_t len, float s,
                 std::int8_t* codes) {
  std::int64_t i = 0;
#if ZERO_QUANT_AVX512
  const __m512 vs = _mm512_set1_ps(s);
  const __m512i lo = _mm512_set1_epi32(-127);
  const __m512i hi = _mm512_set1_epi32(127);
  for (; i + 16 <= len; i += 16) {
    const __m512 q = _mm512_div_ps(_mm512_loadu_ps(x + i), vs);
    __m512i c = _mm512_cvtps_epi32(q);  // round-to-nearest-even (MXCSR)
    c = _mm512_max_epi32(lo, _mm512_min_epi32(hi, c));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + i),
                     _mm512_cvtepi32_epi8(c));
  }
#endif
  for (; i < len; ++i) {
    long c = std::lrintf(x[i] / s);
    if (c < -127) c = -127;
    if (c > 127) c = 127;
    codes[i] = static_cast<std::int8_t>(c);
  }
}

// dst[i] = code[i] * s (add = accumulate instead of overwrite).
template <bool kAdd>
void DecodeBlock(const std::int8_t* codes, std::int64_t len, float s,
                 float* dst) {
  std::int64_t i = 0;
#if ZERO_QUANT_AVX512
  const __m512 vs = _mm512_set1_ps(s);
  for (; i + 16 <= len; i += 16) {
    const __m128i c8 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    const __m512 v =
        _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(c8)), vs);
    if constexpr (kAdd) {
      _mm512_storeu_ps(dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i), v));
    } else {
      _mm512_storeu_ps(dst + i, v);
    }
  }
#endif
  for (; i < len; ++i) {
    const float v = static_cast<float>(codes[i]) * s;
    if constexpr (kAdd) {
      dst[i] = dst[i] + v;
    } else {
      dst[i] = v;
    }
  }
}

// The wire image may start at any byte offset (the qwZ all-gather packs
// per-rank slots back to back), so the fp16 scales are moved as 16-bit
// patterns through memcpy rather than accessed as Half objects.
struct WireView {
  std::byte* scales;
  std::int8_t* codes;
};
WireView ViewWire(std::byte* wire, std::int64_t n, std::int64_t block) {
  return {wire,
          reinterpret_cast<std::int8_t*>(wire + 2 * QuantBlocks(n, block))};
}
struct ConstWireView {
  const std::byte* scales;
  const std::int8_t* codes;
};
ConstWireView ViewWire(const std::byte* wire, std::int64_t n,
                       std::int64_t block) {
  return {wire,
          reinterpret_cast<const std::int8_t*>(wire +
                                               2 * QuantBlocks(n, block))};
}
void StoreScale(std::byte* scales, std::int64_t b, std::uint16_t bits) {
  std::memcpy(scales + 2 * b, &bits, sizeof(bits));
}
float LoadScale(const std::byte* scales, std::int64_t b) {
  std::uint16_t bits = 0;
  std::memcpy(&bits, scales + 2 * b, sizeof(bits));
  return Half::FromBits(bits).ToFloat();
}

void CheckShape(std::int64_t n, std::int64_t block) {
  ZERO_CHECK(n >= 0, "negative element count");
  ZERO_CHECK(block >= 1 && block <= kMaxQuantBlock,
             "quant block " + std::to_string(block) + " out of [1, " +
                 std::to_string(kMaxQuantBlock) + "]");
}

void QuantizeF32Impl(const float* src, std::int64_t n, std::int64_t block,
                     std::byte* wire) {
  CheckShape(n, block);
  WireView w = ViewWire(wire, n, block);
  const std::int64_t blocks = QuantBlocks(n, block);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t off = b * block;
    const std::int64_t len = std::min(block, n - off);
    const BlockClass c = ClassifyBlock(src + off, len);
    StoreScale(w.scales, b, c.bits);
    switch (c.kind) {
      case BlockClass::kZero:
        std::memset(w.codes + off, 0, static_cast<std::size_t>(len));
        break;
      case BlockClass::kPoison:
        std::memset(w.codes + off, 1, static_cast<std::size_t>(len));
        break;
      case BlockClass::kNormal:
        EncodeBlock(src + off, len, c.scale, w.codes + off);
        break;
    }
  }
}

template <bool kAdd>
void DequantizeF32Impl(const std::byte* wire, std::int64_t n,
                       std::int64_t block, float* dst) {
  CheckShape(n, block);
  ConstWireView w = ViewWire(wire, n, block);
  const std::int64_t blocks = QuantBlocks(n, block);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t off = b * block;
    const std::int64_t len = std::min(block, n - off);
    DecodeBlock<kAdd>(w.codes + off, len, LoadScale(w.scales, b), dst + off);
  }
}

}  // namespace

void QuantizeF32(const float* src, std::int64_t n, std::int64_t block,
                 std::byte* wire) {
  TRACE_SPAN("tensor/quantize");
  QuantizeF32Impl(src, n, block, wire);
}

void DequantizeF32(const std::byte* wire, std::int64_t n, std::int64_t block,
                   float* dst) {
  TRACE_SPAN("tensor/dequantize");
  DequantizeF32Impl<false>(wire, n, block, dst);
}

void DequantizeAddF32(const std::byte* wire, std::int64_t n,
                      std::int64_t block, float* dst) {
  TRACE_SPAN("tensor/dequantize");
  DequantizeF32Impl<true>(wire, n, block, dst);
}

void QuantizeHalf(const Half* src, std::int64_t n, std::int64_t block,
                  std::byte* wire) {
  TRACE_SPAN("tensor/quantize");
  CheckShape(n, block);
  alignas(64) float buf[kMaxQuantBlock];
  WireView w = ViewWire(wire, n, block);
  const std::int64_t blocks = QuantBlocks(n, block);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t off = b * block;
    const std::int64_t len = std::min(block, n - off);
    CastHalfToFloat(src + off, buf, len);
    const BlockClass c = ClassifyBlock(buf, len);
    StoreScale(w.scales, b, c.bits);
    switch (c.kind) {
      case BlockClass::kZero:
        std::memset(w.codes + off, 0, static_cast<std::size_t>(len));
        break;
      case BlockClass::kPoison:
        std::memset(w.codes + off, 1, static_cast<std::size_t>(len));
        break;
      case BlockClass::kNormal:
        EncodeBlock(buf, len, c.scale, w.codes + off);
        break;
    }
  }
}

void DequantizeHalf(const std::byte* wire, std::int64_t n, std::int64_t block,
                    Half* dst) {
  TRACE_SPAN("tensor/dequantize");
  CheckShape(n, block);
  alignas(64) float buf[kMaxQuantBlock];
  ConstWireView w = ViewWire(wire, n, block);
  const std::int64_t blocks = QuantBlocks(n, block);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t off = b * block;
    const std::int64_t len = std::min(block, n - off);
    const float s = LoadScale(w.scales, b);
    DecodeBlock<false>(w.codes + off, len, s, buf);
    // The fp16 scale rounds amax/127 either way, so 127*s can exceed the
    // largest finite fp16 (65504) by up to half a scale ulp and the
    // narrowing below would turn a finite block's extremes into Inf.
    // Saturate those — and only those — blocks; poison blocks keep their
    // non-finite scale and must pass NaN/Inf through untouched.
    if (std::isfinite(s) && s * 127.0f > 65504.0f) {
      for (std::int64_t i = 0; i < len; ++i) {
        buf[i] = std::clamp(buf[i], -65504.0f, 65504.0f);
      }
    }
    CastFloatToHalf(buf, dst + off, len);
  }
}

// ---- scalar reference implementations ------------------------------------
// Same structure with the vector bodies compiled out; kept in one
// translation unit so policy changes cannot drift between the paths.

namespace {

BlockClass ClassifyBlockScalar(const float* x, std::int64_t len) {
  float amax = 0.0f;
  bool nonfinite = false;
  bool nan = false;
  for (std::int64_t i = 0; i < len; ++i) {
    const float v = x[i];
    if (!std::isfinite(v)) {
      nonfinite = true;
      if (std::isnan(v)) nan = true;
      continue;
    }
    amax = std::max(amax, std::fabs(v));
  }
  BlockClass c;
  if (nonfinite) {
    c.kind = BlockClass::kPoison;
    c.bits = nan ? kScaleNanBits : kScaleInfBits;
    c.scale = Half::FromBits(c.bits).ToFloat();
    return c;
  }
  const Half hs(amax / 127.0f);
  const float s = hs.ToFloat();
  if (s == 0.0f) {
    c.kind = BlockClass::kZero;
    return c;
  }
  if (!std::isfinite(s)) {
    c.kind = BlockClass::kPoison;
    c.bits = kScaleInfBits;
    c.scale = Half::FromBits(c.bits).ToFloat();
    return c;
  }
  c.kind = BlockClass::kNormal;
  c.bits = hs.bits();
  c.scale = s;
  return c;
}

}  // namespace

void QuantizeF32Scalar(const float* src, std::int64_t n, std::int64_t block,
                       std::byte* wire) {
  CheckShape(n, block);
  WireView w = ViewWire(wire, n, block);
  const std::int64_t blocks = QuantBlocks(n, block);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t off = b * block;
    const std::int64_t len = std::min(block, n - off);
    const BlockClass c = ClassifyBlockScalar(src + off, len);
    StoreScale(w.scales, b, c.bits);
    if (c.kind == BlockClass::kZero) {
      std::memset(w.codes + off, 0, static_cast<std::size_t>(len));
    } else if (c.kind == BlockClass::kPoison) {
      std::memset(w.codes + off, 1, static_cast<std::size_t>(len));
    } else {
      for (std::int64_t i = 0; i < len; ++i) {
        long q = std::lrintf(src[off + i] / c.scale);
        if (q < -127) q = -127;
        if (q > 127) q = 127;
        w.codes[off + i] = static_cast<std::int8_t>(q);
      }
    }
  }
}

void DequantizeF32Scalar(const std::byte* wire, std::int64_t n,
                         std::int64_t block, float* dst) {
  CheckShape(n, block);
  ConstWireView w = ViewWire(wire, n, block);
  const std::int64_t blocks = QuantBlocks(n, block);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t off = b * block;
    const std::int64_t len = std::min(block, n - off);
    const float s = LoadScale(w.scales, b);
    for (std::int64_t i = 0; i < len; ++i) {
      dst[off + i] = static_cast<float>(w.codes[off + i]) * s;
    }
  }
}

void DequantizeAddF32Scalar(const std::byte* wire, std::int64_t n,
                            std::int64_t block, float* dst) {
  CheckShape(n, block);
  ConstWireView w = ViewWire(wire, n, block);
  const std::int64_t blocks = QuantBlocks(n, block);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t off = b * block;
    const std::int64_t len = std::min(block, n - off);
    const float s = LoadScale(w.scales, b);
    for (std::int64_t i = 0; i < len; ++i) {
      dst[off + i] = dst[off + i] + static_cast<float>(w.codes[off + i]) * s;
    }
  }
}

}  // namespace zero::tensor
