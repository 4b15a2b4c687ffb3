// The fp16 fast paths (decode LUT, batched encode) must be bit-exact
// with the scalar Half conversions — exhaustively for decode (only
// 65536 inputs exist), and across the interesting encode boundary
// cases for the round-to-nearest-even encoder.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/half.hpp"
#include "common/rng.hpp"

namespace zero {
namespace {

std::uint32_t BitsOf(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

TEST(HalfLutTest, DecodeTableMatchesScalarDecoderExhaustively) {
  const float* table = HalfDecodeTable();
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    const float want = Half::ToFloatImpl(static_cast<std::uint16_t>(b));
    const float got = table[b];
    // Bit equality, not ==: NaN payloads must survive the table.
    ASSERT_EQ(BitsOf(want), BitsOf(got)) << "half bits " << b;
  }
}

TEST(HalfLutTest, BulkDecodeMatchesScalarExhaustively) {
  std::vector<Half> src(1u << 16);
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    src[b] = Half::FromBits(static_cast<std::uint16_t>(b));
  }
  std::vector<float> dst(src.size());
  HalfToFloat(src.data(), dst.data(), src.size());
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    ASSERT_EQ(BitsOf(Half::ToFloatImpl(static_cast<std::uint16_t>(b))),
              BitsOf(dst[b]))
        << "half bits " << b;
  }
}

TEST(HalfLutTest, BulkEncodeMatchesScalarEncoder) {
  // Boundary cases plus a random sweep. Every bulk-encoded value must
  // equal Half::FromFloat bit for bit.
  std::vector<float> inputs = {
      0.0f,
      -0.0f,
      1.0f,
      -1.0f,
      Half::kMax,
      -Half::kMax,
      65520.0f,  // rounds to Inf
      Half::kMinNormal,
      Half::kMinSubnormal,
      Half::kMinSubnormal * 0.5f,   // rounds to zero (ties-to-even)
      Half::kMinSubnormal * 0.75f,  // rounds up to min subnormal
      1.0f + Half::kEpsilon * 0.5f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
  };
  Rng rng(4242);
  for (int i = 0; i < 20000; ++i) {
    inputs.push_back(rng.NextGaussian() * 100.0f);
  }
  std::vector<Half> bulk(inputs.size());
  FloatToHalf(inputs.data(), bulk.data(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(Half::FromFloat(inputs[i]), bulk[i].bits()) << "i=" << i;
  }
}

TEST(HalfLutTest, RoundTripThroughBulkConvertersIsExact) {
  // Any value that is exactly representable in fp16 must survive
  // float -> half -> float unchanged through the bulk converters.
  std::vector<Half> all(1u << 16);
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    all[b] = Half::FromBits(static_cast<std::uint16_t>(b));
  }
  std::vector<float> f32(all.size());
  HalfToFloat(all.data(), f32.data(), all.size());
  std::vector<Half> back(f32.size());
  FloatToHalf(f32.data(), back.data(), f32.size());
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    if (Half::FromBits(static_cast<std::uint16_t>(b)).IsNan()) {
      EXPECT_TRUE(back[b].IsNan()) << "half bits " << b;
    } else {
      EXPECT_EQ(back[b].bits(), b) << "half bits " << b;
    }
  }
}

// Inputs for the bulk helpers below: the encode boundary cases plus
// signed zeros, subnormals and NaNs with distinct payloads, then
// Gaussian fill.
std::vector<float> EdgeInputs(std::size_t n, std::uint64_t seed) {
  auto nan_with = [](std::uint32_t payload, bool negative) {
    const std::uint32_t u =
        (negative ? 0xFF800000u : 0x7F800000u) | payload;
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
  };
  const std::vector<float> edges = {
      0.0f,
      -0.0f,
      Half::kMinSubnormal,
      -Half::kMinSubnormal * 3.0f,
      Half::kMinSubnormal * 0.5f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      Half::kMinNormal * 0.75f,
      Half::kMax,
      -65520.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      nan_with(0x00400001u, false),  // quiet, low payload bit
      nan_with(0x00000001u, true),   // signalling, low payload bit
      nan_with(0x003FE000u, false),  // signalling, payload in fp16 range
      1.0f / 3.0f,
  };
  std::vector<float> out(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = i < edges.size() ? edges[(i * 7) % edges.size()]
                              : rng.NextGaussian() * 10.0f;
  }
  return out;
}

TEST(HalfLutTest, ScaledEncodeMatchesScalarProductEncode) {
  // Every length 0..67 covers the empty call, tail-only calls, and
  // one to four full 16-wide vectors with every tail length.
  const float scales[] = {1.0f, 1024.0f, 1.0f / 3.0f, 65536.0f};
  for (const float scale : scales) {
    for (std::size_t n = 0; n <= 67; ++n) {
      const std::vector<float> src = EdgeInputs(n, 17 + n);
      std::vector<Half> got(n + 1, Half::FromBits(0xABCD));
      ScaledFloatToHalf(src.data(), scale, got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Half(src[i] * scale).bits(), got[i].bits())
            << "scale=" << scale << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(got[n].bits(), 0xABCD) << "wrote past n=" << n;
      // FloatToHalf is the unit-scale case: it must equal the unscaled
      // encode, signalling NaNs included.
      std::vector<Half> plain(n);
      FloatToHalf(src.data(), plain.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Half::FromFloat(src[i]), plain[i].bits())
            << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(HalfLutTest, ScaledEncodeOverflowsToSignedInfinity) {
  const std::vector<float> src = {1.0f, -1.0f, 0.5f, 2.0f};
  std::vector<Half> got(src.size());
  ScaledFloatToHalf(src.data(), 65536.0f, got.data(), src.size());
  EXPECT_EQ(got[0].bits(), 0x7C00);
  EXPECT_EQ(got[1].bits(), 0xFC00);
  EXPECT_EQ(got[2].bits(), 0x7800);  // 32768 is still finite
  EXPECT_EQ(got[3].bits(), 0x7C00);
}

TEST(HalfLutTest, AccumulateHalfMatchesScalarWidenAdd) {
  for (const std::size_t n : {0u, 1u, 15u, 255u, 256u, 257u, 700u}) {
    const std::vector<float> f = EdgeInputs(n, 91 + n);
    std::vector<Half> src(n);
    FloatToHalf(f.data(), src.data(), n);
    // Finite accumulators: with NaN on both sides, which payload wins
    // depends on operand order, which the compiler may commute.
    std::vector<float> want(n);
    Rng rng(7 + n);
    for (float& x : want) x = rng.NextGaussian();
    std::vector<float> got = want;
    for (std::size_t i = 0; i < n; ++i) want[i] += src[i].ToFloat();
    AccumulateHalf(src.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(BitsOf(want[i]), BitsOf(got[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(HalfLutTest, AnyInfOrNanSeesEveryPosition) {
  std::vector<Half> v(301, Half(1.5f));
  EXPECT_FALSE(AnyInfOrNan(v.data(), 0));
  EXPECT_FALSE(AnyInfOrNan(v.data(), v.size()));
  v[0] = Half::FromBits(0x7BFF);  // kMax is finite
  v[1] = Half::FromBits(0x8000);  // -0
  v[2] = Half::FromBits(0x0001);  // subnormal
  EXPECT_FALSE(AnyInfOrNan(v.data(), v.size()));
  for (const std::uint16_t bad : {0x7C00, 0xFC00, 0x7C01, 0xFE00, 0x7FFF}) {
    for (const std::size_t at : {0u, 15u, 16u, 255u, 300u}) {
      std::vector<Half> w = v;
      w[at] = Half::FromBits(bad);
      EXPECT_TRUE(AnyInfOrNan(w.data(), w.size()))
          << "bits=" << bad << " at=" << at;
      EXPECT_FALSE(AnyInfOrNan(w.data(), at)) << "bits=" << bad;
    }
  }
}

TEST(HalfLutTest, AnyInfOrNanF32SeesFirstMiddleLast) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> v(301, 1.5f);
  EXPECT_FALSE(AnyInfOrNan(v.data(), 0));
  v[0] = std::numeric_limits<float>::max();
  v[1] = -0.0f;
  v[2] = std::numeric_limits<float>::denorm_min();
  v[3] = -std::numeric_limits<float>::max();
  EXPECT_FALSE(AnyInfOrNan(v.data(), v.size()));
  for (const float bad : {kNan, kInf, -kInf}) {
    for (const std::size_t at : {0u, 150u, 300u}) {
      std::vector<float> w = v;
      w[at] = bad;
      EXPECT_TRUE(AnyInfOrNan(w.data(), w.size())) << bad << " at=" << at;
      EXPECT_FALSE(AnyInfOrNan(w.data(), at)) << bad << " at=" << at;
    }
  }
}

}  // namespace
}  // namespace zero
