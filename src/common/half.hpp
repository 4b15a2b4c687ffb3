// IEEE 754 binary16 ("half") implemented in software.
//
// The paper's mixed-precision training (Sec 3.1) stores parameters,
// gradients and activations in fp16 while keeping fp32 master copies of
// the optimizer state. Reproducing the 2-byte footprint and the rounding
// behaviour requires a real 16-bit type; this one stores the canonical
// bit pattern and converts with round-to-nearest-even, so fp16 tensors
// occupy exactly 2*N bytes of simulated device memory and accumulate the
// same class of rounding error the paper's runs did.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>

namespace zero {

class Half {
 public:
  constexpr Half() = default;
  explicit Half(float f) : bits_(FromFloat(f)) {}

  static constexpr Half FromBits(std::uint16_t b) {
    Half h;
    h.bits_ = b;
    return h;
  }

  [[nodiscard]] float ToFloat() const { return ToFloatImpl(bits_); }
  explicit operator float() const { return ToFloat(); }

  [[nodiscard]] std::uint16_t bits() const { return bits_; }

  [[nodiscard]] bool IsNan() const {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  [[nodiscard]] bool IsInf() const {
    return (bits_ & 0x7FFFu) == 0x7C00u;
  }
  [[nodiscard]] bool IsZero() const { return (bits_ & 0x7FFFu) == 0; }

  friend bool operator==(Half a, Half b) {
    if (a.IsNan() || b.IsNan()) return false;
    if (a.IsZero() && b.IsZero()) return true;  // +0 == -0
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(Half a, Half b) { return !(a == b); }

  // Arithmetic is performed in fp32 and rounded back, which matches how
  // GPU tensor cores accumulate in higher precision.
  friend Half operator+(Half a, Half b) { return Half(a.ToFloat() + b.ToFloat()); }
  friend Half operator-(Half a, Half b) { return Half(a.ToFloat() - b.ToFloat()); }
  friend Half operator*(Half a, Half b) { return Half(a.ToFloat() * b.ToFloat()); }
  friend Half operator/(Half a, Half b) { return Half(a.ToFloat() / b.ToFloat()); }

  static std::uint16_t FromFloat(float f);
  static float ToFloatImpl(std::uint16_t bits);

  static constexpr float kMax = 65504.0f;
  static constexpr float kMinNormal = 6.103515625e-05f;       // 2^-14
  static constexpr float kMinSubnormal = 5.9604644775390625e-08f;  // 2^-24
  static constexpr float kEpsilon = 9.765625e-04f;            // 2^-10

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(Half) == 2, "Half must be exactly two bytes");

// All 65536 half bit patterns decoded to fp32, indexed by Half::bits().
// Built once on first use from ToFloatImpl, so table entries are
// bit-identical to the scalar decoder (including NaN payloads — the
// hardware F16C path quiets signalling NaNs and would not be).
const float* HalfDecodeTable();

// Bulk conversion helpers used by the tensor library's cast kernels.
// Vectorized where the build targets AVX-512, with the decode LUT /
// scalar round-to-nearest-even encoder as the portable path. Every
// variant is bit-exact with the one-at-a-time Half conversions,
// including NaN payloads.
void FloatToHalf(const float* src, Half* dst, std::size_t n);
void HalfToFloat(const Half* src, float* dst, std::size_t n);

// dst[i] = Half(src[i] * scale), bit for bit: the product is rounded to
// fp32 on its own and then encoded. This is the loss-scaled fp16
// gradient emit; it needs no intermediate buffer.
void ScaledFloatToHalf(const float* src, float scale, Half* dst,
                       std::size_t n);

// acc[i] += float(src[i]), bit for bit with the scalar widen-add.
void AccumulateHalf(const Half* src, float* acc, std::size_t n);

// True when any element is Inf or NaN (exponent bits all ones). A
// branch-free OR-reduction: it reads every element, with no early exit,
// so the loop vectorizes.
bool AnyInfOrNan(const Half* src, std::size_t n);
bool AnyInfOrNan(const float* src, std::size_t n);

}  // namespace zero
