// Serving-weight GEMM backends: one encoding per precision, selected by
// name from a fixed table.
//
// The contract under test (gemm_backend.hpp): each backend's DecodeRow
// reproduces its precision's reference rounding (exact for fp32, the
// fp16 round trip, tensor/quantize's int8 dequantization), and its
// GemmWeightT is bitwise Gemm(false, true, ...) on the DecodeRow-decoded
// matrix — same kernels, same summation order — from tiny shapes up.
#include "tensor/gemm_backend.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quantize.hpp"

namespace zero::tensor {
namespace {

constexpr const char* kBackends[] = {"fp32", "fp16", "int8"};

std::vector<float> RandVec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.NextGaussian();
  return v;
}

std::vector<std::byte> PackWith(const GemmBackend& b,
                                const std::vector<float>& w, std::int64_t n,
                                std::int64_t k) {
  std::vector<std::byte> packed(b.PackedBytes(n, k));
  b.Pack(w.data(), n, k, packed.data());
  return packed;
}

// The full [n, k] matrix back through DecodeRow.
std::vector<float> DecodeAll(const GemmBackend& b,
                             const std::vector<std::byte>& packed,
                             std::int64_t n, std::int64_t k) {
  std::vector<float> w(static_cast<std::size_t>(n * k));
  for (std::int64_t row = 0; row < n; ++row) {
    b.DecodeRow(packed.data(), n, k, row, w.data() + row * k);
  }
  return w;
}

TEST(GemmBackendByName, ResolvesTheFixedTable) {
  for (const char* name : kBackends) {
    EXPECT_EQ(GemmBackendByName(name).name(), name);
  }
}

TEST(GemmBackendByName, UnknownNameThrowsListingKnown) {
  try {
    (void)GemmBackendByName("no-such-backend");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    for (const char* name : kBackends) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

// Ragged shape: a partial kNr panel and a partial kKc k-block.
TEST(GemmBackendDecode, RowsMatchEachPrecisionsReferenceRounding) {
  const std::int64_t n = 33, k = 129;
  const std::int64_t numel = n * k;
  const auto w = RandVec(static_cast<std::size_t>(numel), 1);

  std::vector<Half> half(w.size());
  FloatToHalf(w.data(), half.data(), w.size());
  std::vector<float> want16(w.size());
  HalfToFloat(half.data(), want16.data(), w.size());

  std::vector<std::byte> wire(QuantWireBytes(numel, 64));
  QuantizeF32(w.data(), numel, 64, wire.data());
  std::vector<float> want8(w.size());
  DequantizeF32(wire.data(), numel, 64, want8.data());

  const std::vector<float>* want[] = {&w, &want16, &want8};
  for (int i = 0; i < 3; ++i) {
    const GemmBackend& b = GemmBackendByName(kBackends[i]);
    const auto got = DecodeAll(b, PackWith(b, w, n, k), n, k);
    EXPECT_EQ(std::memcmp(got.data(), want[i]->data(),
                          got.size() * sizeof(float)),
              0)
        << kBackends[i];
  }
}

struct GemmShape {
  std::int64_t m, n, k;
};
const GemmShape kMatrixShapes[] = {
    {2, 8, 8},      // tiny: one partial tile
    {8, 96, 64},    // panel-aligned n
    {4, 33, 129},   // ragged: partial panel + odd k, short m edge
    {8, 33, 129},   // ragged: partial panel + odd k, full m tile
    {1, 40, 160},   // decode-style m=1 row
    {1, 4100, 8},   // across two kNc column blocks
};

struct AlphaBeta {
  float alpha, beta;
};
const AlphaBeta kAlphaBeta[] = {{1.0f, 0.0f}, {1.25f, 0.5f}, {-0.5f, 1.0f}};

TEST(GemmBackendGemm, BitwiseEqualsGemmOnDecodedWeights) {
  for (const char* name : kBackends) {
    const GemmBackend& b = GemmBackendByName(name);
    for (const GemmShape& s : kMatrixShapes) {
      const auto a = RandVec(static_cast<std::size_t>(s.m * s.k), 50);
      const auto w = RandVec(static_cast<std::size_t>(s.n * s.k), 51);
      const auto packed = PackWith(b, w, s.n, s.k);
      const auto decoded = DecodeAll(b, packed, s.n, s.k);
      for (const AlphaBeta& ab : kAlphaBeta) {
        auto want = RandVec(static_cast<std::size_t>(s.m * s.n), 52);
        auto got = want;
        Gemm(false, true, s.m, s.n, s.k, ab.alpha, a.data(), decoded.data(),
             ab.beta, want.data());
        b.GemmWeightT(s.m, s.n, s.k, ab.alpha, a.data(), packed.data(),
                      ab.beta, got.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << name << " shape " << s.m << "x" << s.n << "x" << s.k
            << " alpha " << ab.alpha << " beta " << ab.beta;
      }
    }
  }
}

TEST(GemmBackendPack, Fp16PanelStorageAddsOnlyPanelPadding) {
  const GemmBackend& b = GemmBackendByName("fp16");
  // Panel-aligned n: exactly two bytes per weight.
  EXPECT_EQ(b.PackedBytes(96, 64),
            static_cast<std::size_t>(96 * 64) * sizeof(Half));
  // n=33 rounds up to the next panel boundary (kNr=32 -> 64 rows).
  EXPECT_EQ(b.PackedBytes(33, 64),
            static_cast<std::size_t>(64 * 64) * sizeof(Half));
}

}  // namespace
}  // namespace zero::tensor
