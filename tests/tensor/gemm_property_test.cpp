// Property tests for the packed GEMM: the micro-kernel path must agree
// with a naive triple loop for every transpose case, ragged shape, and
// alpha/beta combination, and must propagate NaN/Inf exactly (the fp16
// loss scaler detects overflow by seeing the NaNs come out).
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tensor/kernels.hpp"

namespace zero::tensor {
namespace {

// Reference: direct evaluation of C = alpha * op(A) op(B) + beta * C.
void NaiveGemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, const std::vector<float>& a,
               const std::vector<float>& b, float beta,
               std::vector<float>& c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = ta ? a[static_cast<std::size_t>(kk * m + i)]
                            : a[static_cast<std::size_t>(i * k + kk)];
        const float bv = tb ? b[static_cast<std::size_t>(j * k + kk)]
                            : b[static_cast<std::size_t>(kk * n + j)];
        acc += av * bv;
      }
      float& cv = c[static_cast<std::size_t>(i * n + j)];
      cv = alpha * acc + beta * cv;
    }
  }
}

std::vector<float> RandomVec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.NextGaussian();
  return v;
}

struct Shape {
  std::int64_t m, n, k;
};

TEST(GemmPropertyTest, MatchesNaiveAcrossShapesAndTransposes) {
  // Shapes run from a single element up and exercise ragged
  // micro-tile edges (m % 8, n % 32, k % 128 all nonzero).
  const Shape shapes[] = {
      {1, 1, 1},    {3, 5, 7},     {4, 32, 16},  {5, 33, 17},
      {17, 9, 40},  {31, 70, 19},  {64, 64, 64}, {65, 130, 129},
      {128, 33, 257},
  };
  const float alphas[] = {1.0f, 0.5f};
  const float betas[] = {0.0f, 1.0f, -0.25f};
  Rng rng(1234);
  for (const Shape& s : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        for (float alpha : alphas) {
          for (float beta : betas) {
            auto a = RandomVec(static_cast<std::size_t>(s.m * s.k), rng);
            auto b = RandomVec(static_cast<std::size_t>(s.k * s.n), rng);
            auto c0 = RandomVec(static_cast<std::size_t>(s.m * s.n), rng);
            std::vector<float> want = c0;
            NaiveGemm(ta, tb, s.m, s.n, s.k, alpha, a, b, beta, want);
            std::vector<float> got = c0;
            Gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), b.data(), beta,
                 got.data());
            // The packed kernel reassociates the k loop across kc
            // panels, so allow relative rounding slack.
            for (std::size_t i = 0; i < want.size(); ++i) {
              const float tol =
                  1e-4f * (1.0f + std::fabs(want[i])) *
                  std::sqrt(static_cast<float>(s.k));
              ASSERT_NEAR(want[i], got[i], tol)
                  << "m=" << s.m << " n=" << s.n << " k=" << s.k
                  << " ta=" << ta << " tb=" << tb << " alpha=" << alpha
                  << " beta=" << beta << " i=" << i;
            }
          }
        }
      }
    }
  }
}

// Regression for the seed kernel's `if (aik == 0.0f) continue;` skip:
// a zero in A times an Inf in B must produce NaN in C, not silently
// drop the term. Checked on both the small fallback and the packed
// path, for every transpose case.
TEST(GemmPropertyTest, ZeroTimesInfProducesNan) {
  const float inf = std::numeric_limits<float>::infinity();
  const Shape shapes[] = {{4, 5, 6}, {48, 96, 160}};  // small / packed
  for (const Shape& s : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        // A all zeros, B all Inf: every dot product is a sum of 0*Inf.
        std::vector<float> a(static_cast<std::size_t>(s.m * s.k), 0.0f);
        std::vector<float> b(static_cast<std::size_t>(s.k * s.n), inf);
        std::vector<float> c(static_cast<std::size_t>(s.m * s.n), 0.0f);
        Gemm(ta, tb, s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f,
             c.data());
        for (float v : c) {
          ASSERT_TRUE(std::isnan(v))
              << "m=" << s.m << " ta=" << ta << " tb=" << tb;
        }
      }
    }
  }
}

// A single Inf in B must poison exactly the output column(s) that read
// it (through NaN where multiplied by 0, or Inf otherwise) and leave
// the rest finite.
TEST(GemmPropertyTest, SingleInfPoisonsOnlyItsColumn) {
  const std::int64_t m = 40, n = 64, k = 130;  // packed path
  Rng rng(99);
  auto a = RandomVec(static_cast<std::size_t>(m * k), rng);
  auto b = RandomVec(static_cast<std::size_t>(k * n), rng);
  const std::int64_t bad_col = 37;
  b[static_cast<std::size_t>(5 * n + bad_col)] =
      std::numeric_limits<float>::infinity();
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  Gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float v = c[static_cast<std::size_t>(i * n + j)];
      if (j == bad_col) {
        EXPECT_FALSE(std::isfinite(v)) << "row " << i;
      } else {
        EXPECT_TRUE(std::isfinite(v)) << "row " << i << " col " << j;
      }
    }
  }
}

}  // namespace
}  // namespace zero::tensor
