#include "common/half.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace zero {

std::uint16_t Half::FromFloat(float f) {
  std::uint32_t x;
  std::memcpy(&x, &f, sizeof(x));

  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t exp32 = (x >> 23) & 0xFFu;
  std::uint32_t mant = x & 0x007FFFFFu;

  if (exp32 == 0xFFu) {  // Inf / NaN
    if (mant != 0) {
      // Preserve a quiet NaN; keep a nonzero mantissa.
      return static_cast<std::uint16_t>(sign | 0x7C00u | 0x0200u |
                                        (mant >> 13));
    }
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  // Re-bias exponent: fp32 bias 127, fp16 bias 15.
  int exp = static_cast<int>(exp32) - 127 + 15;

  if (exp >= 0x1F) {  // overflow -> Inf
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  if (exp <= 0) {
    // Subnormal half (or underflow to zero). Shift in the implicit bit.
    if (exp < -10) {
      return static_cast<std::uint16_t>(sign);  // rounds to +-0
    }
    mant |= 0x00800000u;  // implicit leading 1
    const int shift = 14 - exp;  // 14..24
    const std::uint32_t q = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1);
    const std::uint32_t halfway = 1u << (shift - 1);
    std::uint32_t result = q;
    if (rem > halfway || (rem == halfway && (q & 1u))) {
      ++result;  // round to nearest even; may carry into the normal range
    }
    return static_cast<std::uint16_t>(sign | result);
  }

  // Normal number: keep top 10 mantissa bits, round to nearest even.
  std::uint32_t result =
      (static_cast<std::uint32_t>(exp) << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (result & 1u))) {
    ++result;  // carry may bump exponent, including into Inf — that is correct
  }
  return static_cast<std::uint16_t>(sign | result);
}

float Half::ToFloatImpl(std::uint16_t bits) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(bits) & 0x8000u) << 16;
  const std::uint32_t exp = (bits >> 10) & 0x1Fu;
  const std::uint32_t mant = bits & 0x03FFu;

  std::uint32_t out;
  if (exp == 0) {
    if (mant == 0) {
      out = sign;  // signed zero
    } else {
      // Subnormal: normalize.
      int e = -1;
      std::uint32_t m = mant;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x0400u) == 0);
      out = sign | ((127 - 15 - e) << 23) | ((m & 0x03FFu) << 13);
    }
  } else if (exp == 0x1F) {
    out = sign | 0x7F800000u | (mant << 13);  // Inf / NaN
  } else {
    out = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }

  float f;
  std::memcpy(&f, &out, sizeof(f));
  return f;
}

const float* HalfDecodeTable() {
  struct Table {
    float v[1u << 16];
    Table() {
      for (std::uint32_t b = 0; b < (1u << 16); ++b) {
        v[b] = Half::ToFloatImpl(static_cast<std::uint16_t>(b));
      }
    }
  };
  static const Table table;  // thread-safe one-time init
  return table.v;
}

// The bulk converters carry a bit-exactness contract with the scalar
// Half conversions (tests/common/half_lut_test.cpp checks it, decode
// exhaustively). The AVX-512 paths below were verified to satisfy it:
//  - decode: VCVTPH2PS is exact for every half (subnormals included)
//    except that it sets the quiet bit of a signalling NaN; NaN lanes
//    get the source's own quiet bit back, so NaN payloads survive.
//  - encode: VCVTPS2PH rounds to nearest-even and quiets SNaNs by
//    setting the same 0x0200 bit FromFloat sets.
void ScaledFloatToHalf(const float* src, float scale, Half* dst,
                       std::size_t n) {
  std::size_t i = 0;
#if defined(__AVX512F__)
  const __m512 s = _mm512_set1_ps(scale);
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_mul_ps(_mm512_loadu_ps(src + i), s);
    const __m256i h =
        _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), h);
  }
#endif
  for (; i < n; ++i) {
    dst[i] = Half::FromBits(Half::FromFloat(src[i] * scale));
  }
}

// x * 1.0f is x bit for bit, except that a signalling NaN comes out
// quiet, and the encoder quiets NaNs with that same bit anyway.
void FloatToHalf(const float* src, Half* dst, std::size_t n) {
  ScaledFloatToHalf(src, 1.0f, dst, n);
}

void HalfToFloat(const Half* src, float* dst, std::size_t n) {
  std::size_t i = 0;
#if defined(__AVX512F__)
  const __m512i quiet_bit = _mm512_set1_epi32(0x00400000);
  const __m512i half_quiet_bit = _mm512_set1_epi32(0x0200);
  for (; i + 16 <= n; i += 16) {
    const __m256i h16 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m512 out = _mm512_cvtph_ps(h16);
    const __mmask16 is_nan = _mm512_cmp_ps_mask(out, out, _CMP_UNORD_Q);
    if (is_nan != 0) {
      const __m512i h = _mm512_cvtepu16_epi32(h16);
      const __m512i src_quiet =
          _mm512_slli_epi32(_mm512_and_si512(h, half_quiet_bit), 13);
      const __m512i fixed = _mm512_or_si512(
          _mm512_andnot_si512(quiet_bit, _mm512_castps_si512(out)), src_quiet);
      out = _mm512_mask_mov_ps(out, is_nan, _mm512_castsi512_ps(fixed));
    }
    _mm512_storeu_ps(dst + i, out);
  }
#endif
  const float* table = HalfDecodeTable();
  for (; i < n; ++i) dst[i] = table[src[i].bits()];
}

void AccumulateHalf(const Half* src, float* acc, std::size_t n) {
  constexpr std::size_t kBlock = 256;
  float wide[kBlock];
  for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
    const std::size_t len = std::min(kBlock, n - i0);
    HalfToFloat(src + i0, wide, len);
    for (std::size_t k = 0; k < len; ++k) acc[i0 + k] += wide[k];
  }
}

bool AnyInfOrNan(const Half* src, std::size_t n) {
  unsigned any = 0;
  for (std::size_t i = 0; i < n; ++i) {
    any |= static_cast<unsigned>((src[i].bits() & 0x7C00u) == 0x7C00u);
  }
  return any != 0;
}

bool AnyInfOrNan(const float* src, std::size_t n) {
  unsigned any = 0;
  for (std::size_t i = 0; i < n; ++i) {
    any |= static_cast<unsigned>(
        (std::bit_cast<std::uint32_t>(src[i]) & 0x7F800000u) == 0x7F800000u);
  }
  return any != 0;
}

}  // namespace zero
