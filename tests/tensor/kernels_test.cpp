#include "tensor/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "tensor/fast_exp.hpp"

namespace zero::tensor {
namespace {

std::vector<float> RandVec(std::size_t n, std::uint64_t seed,
                           float scale = 1.0f) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (float& x : v) x = rng.NextGaussian() * scale;
  return v;
}

// Central-difference check: for scalar L = sum(w .* f(x)), compare
// analytic dL/dx against finite differences.
void CheckGradient(const std::function<float(const std::vector<float>&)>& f,
                   const std::vector<float>& x,
                   const std::vector<float>& analytic_dx, float tol) {
  ASSERT_EQ(x.size(), analytic_dx.size());
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::vector<float> xp = x;
    std::vector<float> xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const float numeric = (f(xp) - f(xm)) / (2 * eps);
    EXPECT_NEAR(analytic_dx[i], numeric,
                tol * std::max(1.0f, std::abs(numeric)))
        << "index " << i;
  }
}

TEST(GemmTest, AllTransposeCombinationsAgainstNaive) {
  const std::int64_t m = 5, n = 4, k = 3;
  auto a_mn = RandVec(static_cast<std::size_t>(m * k), 1);
  auto b_kn = RandVec(static_cast<std::size_t>(k * n), 2);

  // Reference NN.
  std::vector<float> ref(static_cast<std::size_t>(m * n), 0.0f);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j)
      for (std::int64_t kk = 0; kk < k; ++kk)
        ref[static_cast<std::size_t>(i * n + j)] +=
            a_mn[static_cast<std::size_t>(i * k + kk)] *
            b_kn[static_cast<std::size_t>(kk * n + j)];

  // NN
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  Gemm(false, false, m, n, k, 1.0f, a_mn.data(), b_kn.data(), 0.0f, c.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-5f);

  // NT: B stored as [n, k].
  std::vector<float> b_nk(static_cast<std::size_t>(n * k));
  for (std::int64_t kk = 0; kk < k; ++kk)
    for (std::int64_t j = 0; j < n; ++j)
      b_nk[static_cast<std::size_t>(j * k + kk)] =
          b_kn[static_cast<std::size_t>(kk * n + j)];
  std::fill(c.begin(), c.end(), 0.0f);
  Gemm(false, true, m, n, k, 1.0f, a_mn.data(), b_nk.data(), 0.0f, c.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-5f);

  // TN: A stored as [k, m].
  std::vector<float> a_km(static_cast<std::size_t>(k * m));
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t kk = 0; kk < k; ++kk)
      a_km[static_cast<std::size_t>(kk * m + i)] =
          a_mn[static_cast<std::size_t>(i * k + kk)];
  std::fill(c.begin(), c.end(), 0.0f);
  Gemm(true, false, m, n, k, 1.0f, a_km.data(), b_kn.data(), 0.0f, c.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-5f);

  // TT
  std::fill(c.begin(), c.end(), 0.0f);
  Gemm(true, true, m, n, k, 1.0f, a_km.data(), b_nk.data(), 0.0f, c.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-5f);
}

TEST(GemmTest, AlphaBetaSemantics) {
  const std::int64_t m = 2, n = 2, k = 2;
  std::vector<float> a{1, 2, 3, 4};
  std::vector<float> b{1, 0, 0, 1};  // identity
  std::vector<float> c{10, 10, 10, 10};
  Gemm(false, false, m, n, k, 2.0f, a.data(), b.data(), 1.0f, c.data());
  EXPECT_EQ(c[0], 12.0f);  // 10 + 2*1
  EXPECT_EQ(c[3], 18.0f);  // 10 + 2*4
  Gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_EQ(c[0], 1.0f);  // beta=0 overwrites
}

// GELU through the fused kernel with a zero bias: y = GELU(x), and
// dx = dy * GELU'(x).
std::vector<float> Gelu(const std::vector<float>& x) {
  const std::int64_t n = static_cast<std::int64_t>(x.size());
  std::vector<float> bias(x.size(), 0.0f), z(x.size()), y(x.size());
  BiasGeluForward(x.data(), bias.data(), z.data(), y.data(), 1, n);
  return y;
}

std::vector<float> GeluBackwardOf(const std::vector<float>& x,
                                  const std::vector<float>& dy) {
  const std::int64_t n = static_cast<std::int64_t>(x.size());
  std::vector<float> dx(x.size()), dbias(x.size(), 0.0f);
  BiasGeluBackward(x.data(), dy.data(), dx.data(), dbias.data(), 1, n);
  return dx;
}

// Double-precision tanh-form GELU and its derivative.
double GeluRef(double v) {
  const double c = std::sqrt(2.0 / std::numbers::pi), a = 0.044715;
  return 0.5 * v * (1.0 + std::tanh(c * (v + a * v * v * v)));
}

double GeluGradRef(double v) {
  const double c = std::sqrt(2.0 / std::numbers::pi), a = 0.044715;
  const double t = std::tanh(c * (v + a * v * v * v));
  return 0.5 * (1.0 + t) +
         0.5 * v * (1.0 - t * t) * c * (1.0 + 3.0 * a * v * v);
}

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

TEST(GeluTest, ForwardKnownValues) {
  const std::vector<float> y = Gelu({0.0f, 1.0f, -1.0f, 3.0f});
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y[1], 0.8412f, 1e-3f);
  EXPECT_NEAR(y[2], -0.1588f, 1e-3f);
  EXPECT_NEAR(y[3], 2.9964f, 1e-3f);
}

TEST(GeluTest, BackwardMatchesFiniteDifference) {
  auto x = RandVec(8, 3);
  auto w = RandVec(8, 4);
  const std::vector<float> dx = GeluBackwardOf(x, w);
  CheckGradient(
      [&](const std::vector<float>& xv) {
        const std::vector<float> y = Gelu(xv);
        float loss = 0;
        for (int i = 0; i < 8; ++i) loss += w[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
        return loss;
      },
      x, dx, 2e-2f);
}

TEST(GeluTest, DenseSweepWithinErrorBounds) {
  std::vector<float> x;
  for (int i = -20 * 1024; i <= 20 * 1024; ++i) x.push_back(i / 1024.0f);
  const std::vector<float> y = Gelu(x);
  const std::vector<float> dx =
      GeluBackwardOf(x, std::vector<float>(x.size(), 1.0f));
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = x[i];
    EXPECT_LE(std::abs(y[i] - GeluRef(v)), 2.5e-7 * std::max(1.0, std::abs(v)))
        << "x = " << v;
    EXPECT_LE(std::abs(dx[i] - GeluGradRef(v)), 4e-6) << "x = " << v;
  }
}

TEST(GeluTest, NonFiniteInputs) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x{nan, inf, -inf};
  const std::vector<float> y = Gelu(x);
  const std::vector<float> dx = GeluBackwardOf(x, {1.0f, 1.0f, 1.0f});
  EXPECT_TRUE(std::isnan(y[0]));
  EXPECT_TRUE(std::isnan(dx[0]));
  EXPECT_EQ(y[1], inf);
  EXPECT_FALSE(std::isfinite(y[2]));
}

// Decode runs the activation on [tokens, cols] rows where eval runs
// [seq, cols]; each element must not depend on where it falls in the
// row (vector body, epilogue or scalar tail).
TEST(GeluTest, ElementsIndependentOfPosition) {
  for (std::int64_t cols = 1; cols <= 100; ++cols) {
    const std::size_t n = static_cast<std::size_t>(cols);
    const auto x = RandVec(n, 100 + static_cast<std::uint64_t>(cols), 4.0f);
    const auto bias = RandVec(n, 300 + static_cast<std::uint64_t>(cols));
    const auto dy = RandVec(n, 500 + static_cast<std::uint64_t>(cols));
    std::vector<float> z(n), y(n), dx(n), dbias(n, 0.0f);
    BiasGeluForward(x.data(), bias.data(), z.data(), y.data(), 1, cols);
    BiasGeluBackward(z.data(), dy.data(), dx.data(), dbias.data(), 1, cols);
    for (std::size_t c = 0; c < n; ++c) {
      float z1 = 0, y1 = 0, dx1 = 0, db1 = 0;
      BiasGeluForward(&x[c], &bias[c], &z1, &y1, 1, 1);
      BiasGeluBackward(&z1, &dy[c], &dx1, &db1, 1, 1);
      EXPECT_TRUE(SameBits(z[c], z1)) << "cols " << cols << " c " << c;
      EXPECT_TRUE(SameBits(y[c], y1)) << "cols " << cols << " c " << c;
      EXPECT_TRUE(SameBits(dx[c], dx1)) << "cols " << cols << " c " << c;
      EXPECT_TRUE(SameBits(dbias[c], db1)) << "cols " << cols << " c " << c;
    }
  }
}

TEST(LayerNormTest, ForwardNormalizesRows) {
  const std::int64_t rows = 3, cols = 16;
  auto x = RandVec(static_cast<std::size_t>(rows * cols), 5, 2.0f);
  std::vector<float> gamma(static_cast<std::size_t>(cols), 1.0f);
  std::vector<float> beta(static_cast<std::size_t>(cols), 0.0f);
  std::vector<float> y(x.size()), mean(3), rstd(3);
  LayerNormForward(x.data(), gamma.data(), beta.data(), y.data(), mean.data(),
                   rstd.data(), rows, cols, 1e-5f);
  for (std::int64_t r = 0; r < rows; ++r) {
    float mu = 0, var = 0;
    for (std::int64_t c = 0; c < cols; ++c) mu += y[static_cast<std::size_t>(r * cols + c)];
    mu /= cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float d = y[static_cast<std::size_t>(r * cols + c)] - mu;
      var += d * d;
    }
    var /= cols;
    EXPECT_NEAR(mu, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
  }
}

TEST(LayerNormTest, BackwardMatchesFiniteDifference) {
  const std::int64_t rows = 2, cols = 6;
  const std::size_t n = static_cast<std::size_t>(rows * cols);
  auto x = RandVec(n, 6);
  auto gamma = RandVec(static_cast<std::size_t>(cols), 7, 0.5f);
  for (float& g : gamma) g += 1.0f;
  auto beta = RandVec(static_cast<std::size_t>(cols), 8, 0.1f);
  auto w = RandVec(n, 9);

  auto loss_fn = [&](const std::vector<float>& xv, const std::vector<float>& gv,
                     const std::vector<float>& bv) {
    std::vector<float> y(n), mean(2), rstd(2);
    LayerNormForward(xv.data(), gv.data(), bv.data(), y.data(), mean.data(),
                     rstd.data(), rows, cols, 1e-5f);
    float loss = 0;
    for (std::size_t i = 0; i < n; ++i) loss += w[i] * y[i];
    return loss;
  };

  std::vector<float> y(n), mean(2), rstd(2);
  LayerNormForward(x.data(), gamma.data(), beta.data(), y.data(), mean.data(),
                   rstd.data(), rows, cols, 1e-5f);
  std::vector<float> dx(n), dgamma(static_cast<std::size_t>(cols), 0.0f),
      dbeta(static_cast<std::size_t>(cols), 0.0f);
  LayerNormBackward(x.data(), gamma.data(), mean.data(), rstd.data(), w.data(),
                    dx.data(), dgamma.data(), dbeta.data(), rows, cols);

  CheckGradient([&](const std::vector<float>& xv) { return loss_fn(xv, gamma, beta); },
                x, dx, 2e-2f);
  CheckGradient([&](const std::vector<float>& gv) { return loss_fn(x, gv, beta); },
                gamma, dgamma, 2e-2f);
  CheckGradient([&](const std::vector<float>& bv) { return loss_fn(x, gamma, bv); },
                beta, dbeta, 2e-2f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  auto x = RandVec(24, 10, 3.0f);
  SoftmaxRows(x.data(), 4, 6);
  for (int r = 0; r < 4; ++r) {
    float sum = 0;
    for (int c = 0; c < 6; ++c) sum += x[static_cast<std::size_t>(r * 6 + c)];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, StableUnderLargeInputs) {
  std::vector<float> x{1000.0f, 1001.0f, 999.0f};
  SoftmaxRows(x.data(), 1, 3);
  EXPECT_FALSE(std::isnan(x[0]));
  EXPECT_GT(x[1], x[0]);
  EXPECT_GT(x[0], x[2]);
}

TEST(SoftmaxTest, NonFiniteEntries) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> x{0.5f, std::numeric_limits<float>::quiet_NaN(), -1.0f,
                       2.0f};
  SoftmaxRows(x.data(), 1, 4);
  for (float v : x) EXPECT_TRUE(std::isnan(v));

  std::vector<float> masked{1.0f, -inf, 3.0f, -inf, -inf};
  SoftmaxRows(masked.data(), 1, 5);
  for (std::size_t c : {1u, 3u, 4u}) {
    EXPECT_EQ(masked[c], 0.0f);
    EXPECT_FALSE(std::signbit(masked[c]));
  }
}

// The decode pattern: a length-L row must give bitwise the first L
// outputs of the same row padded with -inf to the eval length.
TEST(SoftmaxTest, PaddedRowMatchesUnpadded) {
  constexpr std::int64_t kFull = 128;
  const auto row = RandVec(kFull, 14, 3.0f);
  for (std::int64_t len = 1; len <= kFull; ++len) {
    std::vector<float> a(row.begin(), row.begin() + len);
    std::vector<float> b(row.begin(), row.end());
    std::fill(b.begin() + len, b.end(),
              -std::numeric_limits<float>::infinity());
    SoftmaxRows(a.data(), 1, len);
    SoftmaxRows(b.data(), 1, kFull);
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<std::size_t>(len) * sizeof(float)),
              0)
        << "len " << len;
    for (std::int64_t c = len; c < kFull; ++c) {
      EXPECT_EQ(b[static_cast<std::size_t>(c)], 0.0f);
    }
  }
}

// The softmax row as it was with one serial std::max fold for the row
// max: the reference the lane-parallel max must reproduce bit for bit.
void SerialMaxSoftmaxRow(float* x, std::int64_t cols) {
  float mx = -std::numeric_limits<float>::infinity();
  for (std::int64_t c = 0; c < cols; ++c) mx = std::max(mx, x[c]);
  for (std::int64_t c = 0; c < cols; ++c) x[c] = detail::ExpF(x[c] - mx);
  float sum = 0.0f;
  for (std::int64_t c = 0; c < cols; ++c) sum += x[c];
  const float inv = 1.0f / sum;
  for (std::int64_t c = 0; c < cols; ++c) x[c] *= inv;
}

// Rows whose max is ambiguous to a reordered fold: +0/-0 ties at the
// max, NaNs (std::max skips them), +-Inf, and fully or partly
// -inf-masked rows, at every length from 1 past the 16-lane blocks.
TEST(SoftmaxTest, LaneMaxMatchesSerialMax) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(43);
  for (std::int64_t cols = 1; cols <= 130; ++cols) {
    const auto at = [&] {
      return static_cast<std::size_t>(
          rng.NextBelow(static_cast<std::uint64_t>(cols)));
    };
    for (int variant = 0; variant < 7; ++variant) {
      std::vector<float> row(static_cast<std::size_t>(cols));
      for (float& v : row) v = rng.NextGaussian() * 4.0f;
      switch (variant) {
        case 0:  // finite
          break;
        case 1:  // the max is a zero, held as +0 and -0 in several lanes
          for (float& v : row) v = -std::abs(v) - 0.5f;
          for (int z = 0; z < 6; ++z) row[at()] = (z % 2 == 0) ? -0.0f : 0.0f;
          break;
        case 2:  // NaNs
          row[at()] = nan;
          row[at()] = -nan;
          break;
        case 3:  // +Inf (every output NaN) and -Inf entries
          row[at()] = inf;
          row[at()] = -inf;
          break;
        case 4:  // -Inf entries around a finite max
          for (int z = 0; z < 5; ++z) row[at()] = -inf;
          break;
        case 5:  // fully masked
          std::fill(row.begin(), row.end(), -inf);
          break;
        case 6:  // causal mask: -inf past a random position
          std::fill(row.begin() + static_cast<std::ptrdiff_t>(at()) + 1,
                    row.end(), -inf);
          break;
      }
      std::vector<float> want = row;
      SerialMaxSoftmaxRow(want.data(), cols);
      std::vector<float> got = row;
      SoftmaxRows(got.data(), 1, cols);
      EXPECT_EQ(std::memcmp(want.data(), got.data(), row.size() * sizeof(float)),
                0)
          << "cols " << cols << " variant " << variant;
    }
  }
}

TEST(SoftmaxTest, BackwardMatchesFiniteDifference) {
  auto x = RandVec(6, 11);
  auto w = RandVec(6, 12);
  std::vector<float> y = x;
  SoftmaxRows(y.data(), 1, 6);
  std::vector<float> dx(6);
  SoftmaxBackwardRows(y.data(), w.data(), dx.data(), 1, 6);
  CheckGradient(
      [&](const std::vector<float>& xv) {
        std::vector<float> yv = xv;
        SoftmaxRows(yv.data(), 1, 6);
        float loss = 0;
        for (int i = 0; i < 6; ++i) loss += w[static_cast<std::size_t>(i)] * yv[static_cast<std::size_t>(i)];
        return loss;
      },
      x, dx, 2e-2f);
}

TEST(CausalMaskTest, UpperTriangleIsZeroAfterSoftmax) {
  const std::int64_t s = 4;
  auto scores = RandVec(static_cast<std::size_t>(2 * s * s), 13);
  CausalMaskedSoftmax(scores.data(), 2, s, s);
  for (int b = 0; b < 2; ++b) {
    for (std::int64_t i = 0; i < s; ++i) {
      float sum = 0;
      for (std::int64_t j = 0; j < s; ++j) {
        const float v = scores[static_cast<std::size_t>((b * s + i) * s + j)];
        if (j > i) {
          EXPECT_EQ(v, 0.0f) << "masked position leaked";
        }
        sum += v;
      }
      EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
  }
}

TEST(CrossEntropyTest, UniformLogitsGiveLogVocab) {
  const std::int64_t rows = 2, vocab = 8;
  std::vector<float> logits(static_cast<std::size_t>(rows * vocab), 0.0f);
  std::vector<std::int32_t> targets{3, 5};
  const float loss =
      CrossEntropyLoss(logits.data(), targets.data(), rows, vocab, nullptr);
  EXPECT_NEAR(loss, std::log(8.0f), 1e-5f);
}

TEST(CrossEntropyTest, GradientMatchesFiniteDifference) {
  const std::int64_t rows = 2, vocab = 5;
  auto logits = RandVec(static_cast<std::size_t>(rows * vocab), 14);
  std::vector<std::int32_t> targets{1, 4};
  std::vector<float> dlogits(logits.size());
  CrossEntropyLoss(logits.data(), targets.data(), rows, vocab,
                   dlogits.data());
  CheckGradient(
      [&](const std::vector<float>& lv) {
        return CrossEntropyLoss(lv.data(), targets.data(), rows, vocab,
                                nullptr);
      },
      logits, dlogits, 2e-2f);
}

TEST(CrossEntropyTest, PerfectPredictionNearZeroLoss) {
  std::vector<float> logits{20.0f, 0.0f, 0.0f};
  std::vector<std::int32_t> targets{0};
  EXPECT_NEAR(CrossEntropyLoss(logits.data(), targets.data(), 1, 3, nullptr),
              0.0f, 1e-4f);
}

TEST(BlasLikeTest, AxpyScaleNorm) {
  std::vector<float> x{1, 2, 3};
  std::vector<float> y{10, 20, 30};
  Axpy(2.0f, x.data(), y.data(), 3);
  EXPECT_EQ(y[2], 36.0f);
  Scale(y.data(), 0.5f, 3);
  EXPECT_EQ(y[0], 6.0f);
  EXPECT_NEAR(SquaredNorm(x.data(), 3), 14.0f, 1e-6f);
}

TEST(BiasTest, AddAndGradAreAdjoint) {
  const std::int64_t rows = 3, cols = 4;
  auto x = RandVec(static_cast<std::size_t>(rows * cols), 16);
  std::vector<float> bias{1, 2, 3, 4};
  auto x2 = x;
  AddBiasRows(x2.data(), bias.data(), rows, cols);
  EXPECT_NEAR(x2[5], x[5] + 2.0f, 1e-6f);
  std::vector<float> dbias(4, 0.0f);
  std::vector<float> dy(static_cast<std::size_t>(rows * cols), 1.0f);
  BiasGradFromRows(dy.data(), dbias.data(), rows, cols);
  for (int c = 0; c < 4; ++c) EXPECT_EQ(dbias[static_cast<std::size_t>(c)], 3.0f);
}

}  // namespace
}  // namespace zero::tensor
