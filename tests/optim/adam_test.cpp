#include "optim/adam.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/parallel_for.hpp"

namespace zero::optim {
namespace {

TEST(AdamTest, FirstStepMovesByLearningRate) {
  // With bias correction, step 1 moves each coordinate by ~lr*sign(g).
  AdamConfig cfg;
  cfg.lr = 0.1f;
  std::vector<float> p{1.0f, -2.0f};
  std::vector<float> g{0.5f, -0.25f};
  std::vector<float> m(2, 0.0f), v(2, 0.0f);
  AdamUpdate(cfg, 1, p, g, m, v);
  EXPECT_NEAR(p[0], 1.0f - 0.1f, 1e-5f);
  EXPECT_NEAR(p[1], -2.0f + 0.1f, 1e-5f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  AdamConfig cfg;
  cfg.lr = 0.05f;
  std::vector<float> p{5.0f, -3.0f, 10.0f};
  std::vector<float> target{1.0f, 2.0f, -4.0f};
  std::vector<float> m(3, 0.0f), v(3, 0.0f);
  for (int t = 1; t <= 2000; ++t) {
    std::vector<float> g(3);
    for (int i = 0; i < 3; ++i) g[static_cast<std::size_t>(i)] = p[static_cast<std::size_t>(i)] - target[static_cast<std::size_t>(i)];
    AdamUpdate(cfg, t, p, g, m, v);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(p[static_cast<std::size_t>(i)], target[static_cast<std::size_t>(i)], 0.05f);
  }
}

TEST(AdamTest, WeightDecayPullsTowardZero) {
  AdamConfig cfg;
  cfg.lr = 0.01f;
  cfg.weight_decay = 0.1f;
  std::vector<float> p{4.0f};
  std::vector<float> g{0.0f};
  std::vector<float> m(1, 0.0f), v(1, 0.0f);
  for (int t = 1; t <= 100; ++t) AdamUpdate(cfg, t, p, g, m, v);
  EXPECT_LT(p[0], 4.0f);
}

TEST(MixedPrecisionAdamTest, MasterCopyPreservesPrecision) {
  // fp16 parameters alone lose small updates; the fp32 master copy must
  // accumulate them (the reason K includes a master copy, Sec 3.1).
  AdamConfig cfg;
  cfg.lr = 1e-4f;
  std::vector<float> init{1.0f};
  MixedPrecisionAdam opt(cfg, nullptr, init);
  std::vector<Half> p{Half(1.0f)};
  std::vector<Half> g{Half(1.0f)};
  float prev_master = 1.0f;
  for (int t = 0; t < 10; ++t) {
    opt.Step(p, g, 1.0f);
    EXPECT_LT(opt.master()[0], prev_master);
    prev_master = opt.master()[0];
  }
  // fp16 value tracks the rounded master.
  EXPECT_EQ(p[0].ToFloat(), Half(opt.master()[0]).ToFloat());
}

TEST(MixedPrecisionAdamTest, LossScaleUnscalesGradients) {
  AdamConfig cfg;
  cfg.lr = 0.1f;
  std::vector<float> init{0.0f};
  MixedPrecisionAdam scaled(cfg, nullptr, init);
  MixedPrecisionAdam unscaled(cfg, nullptr, init);
  std::vector<Half> p1{Half(0.0f)}, p2{Half(0.0f)};
  std::vector<Half> g_big{Half(1024.0f)};
  std::vector<Half> g_raw{Half(1.0f)};
  scaled.Step(p1, g_big, 1024.0f);
  unscaled.Step(p2, g_raw, 1.0f);
  EXPECT_EQ(p1[0].ToFloat(), p2[0].ToFloat());
}

TEST(MixedPrecisionAdamTest, StateLivesOnDevice) {
  alloc::DeviceMemory dev(1 << 20, "opt");
  alloc::CachingAllocator cache(dev);
  std::vector<float> init(1000, 0.5f);
  MixedPrecisionAdam opt(AdamConfig{}, &cache, init);
  // K = 12 bytes per parameter: master + m + v in fp32.
  EXPECT_GE(dev.Stats().in_use, 12u * 1000u);
  EXPECT_EQ(opt.numel(), 1000);
}

TEST(MixedPrecisionAdamTest, F32PathMatchesFunctionalAdam) {
  AdamConfig cfg;
  cfg.lr = 0.02f;
  Rng rng(5);
  std::vector<float> init(32);
  for (float& x : init) x = rng.NextGaussian();

  MixedPrecisionAdam opt(cfg, nullptr, init);
  std::vector<float> ref = init;
  std::vector<float> m(32, 0.0f), v(32, 0.0f);
  std::vector<float> out(32);

  for (int t = 1; t <= 5; ++t) {
    std::vector<float> g(32);
    for (float& x : g) x = rng.NextGaussian();
    opt.StepF32(out, g, 1.0f);
    AdamUpdate(cfg, t, ref, g, m, v);
    for (int i = 0; i < 32; ++i) {
      ASSERT_EQ(out[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)]) << "t=" << t;
    }
  }
}

// ---------------------------------------------------------------------
// Reference: the three-pass pipeline MixedPrecisionAdam ran before the
// fused kernel, kept verbatim so the fused kernel is pinned bit for bit
// to it. Pass 1 decodes (fp16) or copies the gradient into a scratch
// vector and scales it there; pass 2 is the old AdamUpdate loop; pass 3
// rounds the master weights to fp16 or copies them out.
// ---------------------------------------------------------------------

void ThreePassAdamUpdate(const AdamConfig& cfg, std::int64_t t,
                         std::span<float> master, std::span<const float> grad,
                         std::span<float> m, std::span<float> v) {
  const float b1 = cfg.beta1;
  const float b2 = cfg.beta2;
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t));
  const float step_size = cfg.lr / bc1;
  for (std::size_t i = 0; i < master.size(); ++i) {
    float gi = grad[i];
    if (cfg.weight_decay != 0.0f) gi += cfg.weight_decay * master[i];
    m[i] = b1 * m[i] + (1.0f - b1) * gi;
    v[i] = b2 * v[i] + (1.0f - b2) * gi * gi;
    const float denom = std::sqrt(v[i] / bc2) + cfg.eps;
    master[i] -= step_size * m[i] / denom;
  }
}

struct ThreePassAdam {
  AdamConfig cfg;
  std::vector<float> master, m, v, scratch;
  std::int64_t t = 0;

  ThreePassAdam(AdamConfig c, const std::vector<float>& init)
      : cfg(c), master(init), m(init.size(), 0.0f), v(init.size(), 0.0f) {}

  void Step(std::span<Half> params, std::span<const Half> grads,
            float loss_scale) {
    const float inv_scale = 1.0f / loss_scale;
    scratch.resize(grads.size());
    for (std::size_t i = 0; i < grads.size(); ++i) {
      scratch[i] = grads[i].ToFloat() * inv_scale;
    }
    ThreePassAdamUpdate(cfg, ++t, master, scratch, m, v);
    for (std::size_t i = 0; i < params.size(); ++i) params[i] = Half(master[i]);
  }
  void StepFromF32(std::span<Half> params, std::span<const float> grads,
                   float grad_scale) {
    scratch.resize(grads.size());
    for (std::size_t i = 0; i < grads.size(); ++i) {
      scratch[i] = grads[i] * grad_scale;
    }
    ThreePassAdamUpdate(cfg, ++t, master, scratch, m, v);
    for (std::size_t i = 0; i < params.size(); ++i) params[i] = Half(master[i]);
  }
  void StepF32(std::span<float> params, std::span<const float> grads,
               float grad_scale) {
    scratch.resize(grads.size());
    for (std::size_t i = 0; i < grads.size(); ++i) {
      scratch[i] = grads[i] * grad_scale;
    }
    ThreePassAdamUpdate(cfg, ++t, master, scratch, m, v);
    std::memcpy(params.data(), master.data(), params.size_bytes());
  }
};

template <typename T>
bool SameBits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// Scaled-gradient-like values with Inf and NaN at a few positions (the
// overflow a loss-scale skip would normally catch must still flow
// through the kernel identically).
std::vector<float> GradValues(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> g(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = rng.NextGaussian() * 512.0f;
    if (i % 97 == 5) g[i] = std::numeric_limits<float>::infinity();
    if (i % 101 == 9) g[i] = -std::numeric_limits<float>::infinity();
    if (i % 89 == 13) g[i] = std::numeric_limits<float>::quiet_NaN();
  }
  return g;
}

enum class Path { kF16, kFromF32, kF32 };

// Runs three steps of one entry point on the fused optimizer and the
// reference and checks params and every state tensor bitwise.
void ExpectFusedMatchesThreePass(Path path, std::size_t n, float wd) {
  AdamConfig cfg;
  cfg.lr = 3e-3f;
  cfg.weight_decay = wd;
  Rng rng(n);
  std::vector<float> init(n);
  for (float& x : init) x = rng.NextGaussian();
  MixedPrecisionAdam fused(cfg, nullptr, init);
  ThreePassAdam ref(cfg, init);
  const float scale = 1024.0f;
  for (int t = 1; t <= 3; ++t) {
    const std::vector<float> g = GradValues(n, 1000 * n + t);
    const std::string where = "n=" + std::to_string(n) +
                              " wd=" + std::to_string(wd) +
                              " t=" + std::to_string(t);
    if (path == Path::kF32) {
      std::vector<float> got(n), want(n);
      fused.StepF32(got, g, 1.0f / scale);
      ref.StepF32(want, g, 1.0f / scale);
      ASSERT_TRUE(SameBits<float>(got, want)) << where;
    } else {
      std::vector<Half> got(n), want(n);
      if (path == Path::kF16) {
        std::vector<Half> g16(n);
        FloatToHalf(g.data(), g16.data(), n);
        fused.Step(got, g16, scale);
        ref.Step(want, g16, scale);
      } else {
        fused.StepFromF32(got, g, 1.0f / scale);
        ref.StepFromF32(want, g, 1.0f / scale);
      }
      ASSERT_TRUE(SameBits<Half>(got, want)) << where;
    }
    ASSERT_TRUE(SameBits<float>(fused.master(), ref.master)) << where;
    ASSERT_TRUE(SameBits<float>(fused.momentum(), ref.m)) << where;
    ASSERT_TRUE(SameBits<float>(fused.variance(), ref.v)) << where;
  }
}

class FusedAdamTest : public ::testing::TestWithParam<Path> {};

TEST_P(FusedAdamTest, BitwiseEqualToThreePassPipeline) {
  // Lengths straddle the 16-wide vector body, the 256-element block and
  // the 4096-element intra-op chunk.
  for (const int workers : {1, 4}) {
    tensor::IntraOpWorkersGuard guard(workers);
    for (const std::size_t n : {1u, 15u, 17u, 255u, 257u, 4097u, 10007u}) {
      for (const float wd : {0.0f, 0.01f}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ExpectFusedMatchesThreePass(GetParam(), n, wd);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEntryPoints, FusedAdamTest,
                         ::testing::Values(Path::kF16, Path::kFromF32,
                                           Path::kF32));

TEST(MixedPrecisionAdamTest, RejectsMismatchedShards) {
  std::vector<float> init(8, 0.0f);
  MixedPrecisionAdam opt(AdamConfig{}, nullptr, init);
  std::vector<Half> p(4), g(8);
  EXPECT_THROW(opt.Step(p, g, 1.0f), Error);
}

}  // namespace
}  // namespace zero::optim
