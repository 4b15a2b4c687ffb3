// The kernels' branch-free exp (kernels.cpp's GELU and softmax loops),
// in a header of its own so the bit-exact softmax tests can rebuild a
// reference row from the same function.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace zero::tensor::detail {

// Branch-free exp for the GELU and softmax loops. The libm exp and
// tanh are opaque calls that keep those loops scalar; this inlines to
// fma/select code the vectorizer turns into full-width SIMD.
//
// The argument is clamped to [-87, 88] before the float->int conversion
// (a NaN clamps to a finite value, so the conversion is never
// undefined). Below -87 the result flushes to +0, so exp(-inf) is
// exactly 0 as the masked softmax entries need; above 88 it is +inf;
// NaN stays NaN. In range: n = round(x / ln2) by the 1.5*2^23 shift,
// r = x - n*ln2 in two Cody-Waite steps, a degree-6 polynomial fitted
// for relative error on [-ln2/2, ln2/2], and 2^n built in the exponent
// field (n+127 stays in [1, 254]).
//
// Every multiply-add is an explicit std::fma and zero_tensor is built
// with -ffp-contract=off, so the vector body and the scalar tail of a
// loop compute identical bits: the decode memcmp contract needs an
// element's bits independent of its position.
inline float ExpF(float x) {
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2Hi = 0.693359375f;  // 9 bits: n * kLn2Hi is exact
  constexpr float kLn2Lo = -2.12194440e-4f;
  constexpr float kShift = 12582912.0f;  // 1.5 * 2^23
  const float xc = std::max(-87.0f, std::min(88.0f, x));
  const float n = std::fma(xc, kLog2e, kShift) - kShift;
  float r = std::fma(n, -kLn2Hi, xc);
  r = std::fma(n, -kLn2Lo, r);
  float p = 0.0013814612f;
  p = std::fma(p, r, 0.0083687100f);
  p = std::fma(p, r, 0.041668389f);
  p = std::fma(p, r, 0.16666521f);
  p = std::fma(p, r, 0.49999994f);
  p = std::fma(p, r, 1.0f);
  p = std::fma(p, r, 1.0f);
  const float scale =
      std::bit_cast<float>((static_cast<std::int32_t>(n) + 127) << 23);
  float y = p * scale;
  y = x < -87.0f ? 0.0f : y;
  y = x > 88.0f ? std::numeric_limits<float>::infinity() : y;
  return std::isnan(x) ? x : y;
}

}  // namespace zero::tensor::detail
