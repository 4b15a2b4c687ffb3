// The kernels' determinism contract: bitwise-identical results at any
// intra-op worker count. Chunk boundaries depend only on the problem
// shape, each output element is produced by one chunk, and reduction
// partials combine in chunk-index order — so 1 worker, N workers, and
// the serial fallback must agree exactly, which is what keeps the ZeRO
// stage-equivalence tests exact when the pool is enabled.
//
// The GEMM contract is stronger: an element's bits depend only on its
// row of op(A), its column of op(B), k and alpha — not on m, n or the
// operands' leading dimensions — and trailing zero terms in k are exact
// no-ops. That is what lets incremental decode (a
// few rows, k = cached length) reproduce the full forward (all rows,
// k = seq) bitwise.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "optim/adam.hpp"
#include "tensor/gemm_backend.hpp"
#include "tensor/kernels.hpp"
#include "tensor/parallel_for.hpp"

namespace zero::tensor {
namespace {

std::vector<float> RandomVec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.NextGaussian();
  return v;
}

// Runs `fn` (which must write its float results through the returned
// vector) at each worker count and asserts all outputs are bitwise
// identical to the serial run.
template <typename Fn>
void ExpectBitwiseStable(const Fn& fn) {
  std::vector<float> want;
  {
    IntraOpWorkersGuard guard(1);
    want = fn();
  }
  for (int workers : {2, 3, 4}) {
    IntraOpWorkersGuard guard(workers);
    const std::vector<float> got = fn();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i]) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(DeterminismTest, GemmBitwiseAcrossWorkerCounts) {
  Rng rng(7);
  const std::int64_t m = 70, n = 90, k = 150;  // packed path
  const auto a = RandomVec(static_cast<std::size_t>(m * k), rng);
  const auto b = RandomVec(static_cast<std::size_t>(k * n), rng);
  const auto c0 = RandomVec(static_cast<std::size_t>(m * n), rng);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      ExpectBitwiseStable([&] {
        std::vector<float> c = c0;
        Gemm(ta, tb, m, n, k, 0.7f, a.data(), b.data(), 0.3f, c.data());
        return c;
      });
    }
  }
}

struct GemmShape {
  std::int64_t m, n, k;
};

// Tiny shapes (down to a few hundred flops), m past one kMc row block
// (256) and k past one kKc panel (128).
const GemmShape kRowShapes[] = {
    {3, 5, 7},     {7, 33, 100},  {5, 20, 300},
    {300, 40, 150}, {270, 70, 260}, {2, 300, 140},
};
const float kRowAlphas[] = {1.0f, 0.17677669f};  // 1/sqrt(32): attention

// Row i of a [m, n] result.
bool RowEquals(const std::vector<float>& full, std::int64_t i,
               const std::vector<float>& row) {
  return std::memcmp(full.data() + i * static_cast<std::int64_t>(row.size()),
                     row.data(), row.size() * sizeof(float)) == 0;
}

TEST(DeterminismTest, GemmRowBitwiseEqualsSingleRowGemm) {
  Rng rng(31);
  for (const GemmShape& s : kRowShapes) {
    const auto a = RandomVec(static_cast<std::size_t>(s.m * s.k), rng);
    const auto b = RandomVec(static_cast<std::size_t>(s.k * s.n), rng);
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        for (float alpha : kRowAlphas) {
          std::vector<float> full(static_cast<std::size_t>(s.m * s.n));
          Gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), b.data(), 0.0f,
               full.data());
          std::vector<float> a_row(static_cast<std::size_t>(s.k));
          std::vector<float> row(static_cast<std::size_t>(s.n));
          for (std::int64_t i = 0; i < s.m; ++i) {
            for (std::int64_t kk = 0; kk < s.k; ++kk) {
              a_row[static_cast<std::size_t>(kk)] =
                  a[static_cast<std::size_t>(ta ? kk * s.m + i
                                                : i * s.k + kk)];
            }
            Gemm(false, tb, 1, s.n, s.k, alpha, a_row.data(), b.data(), 0.0f,
                 row.data());
            ASSERT_TRUE(RowEquals(full, i, row))
                << s.m << "x" << s.n << "x" << s.k << " ta=" << ta
                << " tb=" << tb << " alpha=" << alpha << " row " << i;
          }
        }
      }
    }
  }
}

TEST(DeterminismTest, GemmTrailingZeroTermsAreExactNoOps) {
  // The attention-context shape: [m, k] probabilities, +0 past k_len,
  // against [k, hd] values that stay finite (and arbitrary) past k_len.
  Rng rng(37);
  const std::int64_t k = 160, n = 16;
  const auto b = RandomVec(static_cast<std::size_t>(k * n), rng);
  for (std::int64_t m : {1, 4, 160}) {
    const auto a = RandomVec(static_cast<std::size_t>(m * k), rng);
    for (std::int64_t k_len : {5, 127, 128, 129}) {
      std::vector<float> a_pad(a.size(), 0.0f);
      std::vector<float> a_cut(static_cast<std::size_t>(m * k_len));
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t kk = 0; kk < k_len; ++kk) {
          const float v = a[static_cast<std::size_t>(i * k + kk)];
          a_pad[static_cast<std::size_t>(i * k + kk)] = v;
          a_cut[static_cast<std::size_t>(i * k_len + kk)] = v;
        }
      }
      std::vector<float> padded(static_cast<std::size_t>(m * n));
      std::vector<float> cut(padded.size());
      Gemm(false, false, m, n, k, 1.0f, a_pad.data(), b.data(), 0.0f,
           padded.data());
      Gemm(false, false, m, n, k_len, 1.0f, a_cut.data(), b.data(), 0.0f,
           cut.data());
      EXPECT_EQ(std::memcmp(padded.data(), cut.data(),
                            cut.size() * sizeof(float)),
                0)
          << "m=" << m << " k_len=" << k_len;
    }
  }
}

TEST(DeterminismTest, WeightGemmRowBitwiseEqualsSingleRowGemm) {
  Rng rng(41);
  for (const char* name : {"fp32", "fp16", "int8"}) {
    const GemmBackend& backend = GemmBackendByName(name);
    for (const GemmShape& s : kRowShapes) {
      const auto a = RandomVec(static_cast<std::size_t>(s.m * s.k), rng);
      const auto w = RandomVec(static_cast<std::size_t>(s.n * s.k), rng);
      std::vector<std::byte> packed(backend.PackedBytes(s.n, s.k));
      backend.Pack(w.data(), s.n, s.k, packed.data());
      for (float alpha : kRowAlphas) {
        std::vector<float> full(static_cast<std::size_t>(s.m * s.n));
        backend.GemmWeightT(s.m, s.n, s.k, alpha, a.data(), packed.data(),
                            0.0f, full.data());
        std::vector<float> row(static_cast<std::size_t>(s.n));
        for (std::int64_t i = 0; i < s.m; ++i) {
          backend.GemmWeightT(1, s.n, s.k, alpha, a.data() + i * s.k,
                              packed.data(), 0.0f, row.data());
          ASSERT_TRUE(RowEquals(full, i, row))
              << name << " " << s.m << "x" << s.n << "x" << s.k
              << " alpha=" << alpha << " row " << i;
        }
      }
    }
  }
}

// DESIGN.md §9's per-element chain written out scalar: the beta
// pre-pass (C = +0 for beta 0, untouched for beta 1, beta * C
// otherwise), alpha folded into the A element, k cut at 128-deep
// panels, each panel a std::fma chain from +0 in k order that is then
// added into C. B is op(B) already, stored [k, n].
constexpr std::int64_t kContractKc = 128;

void ContractGemm(bool ta, std::int64_t m, std::int64_t n, std::int64_t k,
                  float alpha, const float* a, const float* opb, float beta,
                  float* c) {
  for (std::int64_t e = 0; e < m * n; ++e) {
    c[e] = beta == 0.0f ? 0.0f : beta == 1.0f ? c[e] : beta * c[e];
  }
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float cij = c[i * n + j];
      for (std::int64_t pc = 0; pc < k; pc += kContractKc) {
        float acc = 0.0f;
        for (std::int64_t kk = pc; kk < std::min(k, pc + kContractKc); ++kk) {
          const float av = alpha * (ta ? a[kk * m + i] : a[i * k + kk]);
          acc = std::fma(av, opb[kk * n + j], acc);
        }
        cij += acc;
      }
      c[i * n + j] = cij;
    }
  }
}

// op(B) of a B stored [k, n] (or [n, k] transposed) as [k, n].
std::vector<float> OpB(const std::vector<float>& b, bool tb, std::int64_t k,
                       std::int64_t n) {
  std::vector<float> out(b.size());
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t j = 0; j < n; ++j) {
      out[static_cast<std::size_t>(kk * n + j)] =
          b[static_cast<std::size_t>(tb ? j * k + kk : kk * n + j)];
    }
  }
  return out;
}

const float kContractAlphas[] = {1.0f, 0.17677669f};
const float kContractBetas[] = {0.0f, 0.5f, 1.0f};

// `rows` x `cols` of `src` (rows cols floats apart) copied into rows
// cols + pad floats apart, with the sentinel NaN in every gap.
const std::uint32_t kSentinelBits = 0x7FC0DEADu;  // a quiet NaN payload

std::vector<float> WithGaps(const std::vector<float>& src, std::int64_t rows,
                            std::int64_t cols, std::int64_t pad) {
  float sentinel;
  std::memcpy(&sentinel, &kSentinelBits, sizeof(sentinel));
  std::vector<float> out(static_cast<std::size_t>(rows * (cols + pad)),
                         sentinel);
  for (std::int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.data() + r * (cols + pad), src.data() + r * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
  return out;
}

// Every packer and micro-kernel edge against the written-out chain:
// the four transpose cases; m across the 8-row tile, its edges and one
// kMc row block; n inside, at and past one 32-wide panel; k inside, at
// and past one kKc panel and the transpose blocks; shapes down to one
// element. alpha and beta cycle. Each case runs at the natural leading
// dimensions and again with every operand's rows 7 floats wider, NaN
// sentinels in the gaps: C's gaps must come back bit-unchanged, and no
// sentinel may reach a result.
TEST(DeterminismTest, GemmMatchesContractReference) {
  Rng rng(47);
  std::vector<std::int64_t> ms;
  for (std::int64_t m = 1; m <= 17; ++m) ms.push_back(m);
  ms.push_back(255);
  ms.push_back(257);
  int combo = 0;
  for (const std::int64_t k : {1, 127, 129, 257}) {
    for (const std::int64_t n : {1, 31, 33, 100}) {
      const auto b = RandomVec(static_cast<std::size_t>(k * n), rng);
      for (bool tb : {false, true}) {
        const std::vector<float> opb = OpB(b, tb, k, n);
        for (const std::int64_t m : ms) {
          const auto a = RandomVec(static_cast<std::size_t>(m * k), rng);
          const auto c0 = RandomVec(static_cast<std::size_t>(m * n), rng);
          for (bool ta : {false, true}) {
            // combo's parity is ta's: alpha steps every second combo so
            // that each transpose case sees both alphas.
            const float alpha = kContractAlphas[(combo / 2) % 2];
            const float beta = kContractBetas[combo % 3];
            ++combo;
            std::vector<float> want = c0;
            ContractGemm(ta, m, n, k, alpha, a.data(), opb.data(), beta,
                         want.data());
            for (const std::int64_t pad : {0, 7}) {
              const std::int64_t a_cols = ta ? m : k;
              const std::int64_t b_cols = tb ? k : n;
              const auto a_s = WithGaps(a, ta ? k : m, a_cols, pad);
              const auto b_s = WithGaps(b, tb ? n : k, b_cols, pad);
              std::vector<float> got = WithGaps(c0, m, n, pad);
              Gemm(ta, tb, m, n, k, alpha, a_s.data(), a_cols + pad,
                   b_s.data(), b_cols + pad, beta, got.data(), n + pad);
              for (std::int64_t i = 0; i < m; ++i) {
                const float* row = got.data() + i * (n + pad);
                ASSERT_EQ(std::memcmp(want.data() + i * n, row,
                                      static_cast<std::size_t>(n) *
                                          sizeof(float)),
                          0)
                    << m << "x" << n << "x" << k << " ta=" << ta
                    << " tb=" << tb << " alpha=" << alpha
                    << " beta=" << beta << " pad=" << pad << " row " << i;
                for (std::int64_t j = n; j < n + pad; ++j) {
                  std::uint32_t bits;
                  std::memcpy(&bits, row + j, sizeof(bits));
                  ASSERT_EQ(bits, kSentinelBits)
                      << m << "x" << n << "x" << k << " C gap written at row "
                      << i << " pad=" << pad;
                }
              }
            }
          }
        }
      }
    }
  }
}

// The serving-weight GEMMs run the same chain on the decoded weights,
// at decode-sized m across both tile heights.
TEST(DeterminismTest, WeightGemmMatchesContractReference) {
  Rng rng(53);
  int combo = 0;
  for (const char* name : {"fp32", "fp16", "int8"}) {
    const GemmBackend& backend = GemmBackendByName(name);
    for (const std::int64_t k : {1, 127, 129, 257}) {
      for (const std::int64_t n : {1, 31, 33, 100}) {
        const auto w = RandomVec(static_cast<std::size_t>(n * k), rng);
        std::vector<std::byte> packed(backend.PackedBytes(n, k));
        backend.Pack(w.data(), n, k, packed.data());
        std::vector<float> decoded(w.size());
        for (std::int64_t row = 0; row < n; ++row) {
          backend.DecodeRow(packed.data(), n, k, row, decoded.data() + row * k);
        }
        const std::vector<float> opb = OpB(decoded, true, k, n);
        for (std::int64_t m = 1; m <= 9; ++m) {
          const auto a = RandomVec(static_cast<std::size_t>(m * k), rng);
          const auto c0 = RandomVec(static_cast<std::size_t>(m * n), rng);
          const float alpha = kContractAlphas[combo % 2];
          const float beta = kContractBetas[combo % 3];
          ++combo;
          std::vector<float> want = c0;
          ContractGemm(false, m, n, k, alpha, a.data(), opb.data(), beta,
                       want.data());
          std::vector<float> got = c0;
          backend.GemmWeightT(m, n, k, alpha, a.data(), packed.data(), beta,
                              got.data());
          ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                want.size() * sizeof(float)),
                    0)
              << name << " " << m << "x" << n << "x" << k
              << " alpha=" << alpha << " beta=" << beta;
        }
      }
    }
  }
}

// The fp16 B operand is widened in the micro-kernel's registers, with no
// fp32 tile in between; it must still be bitwise Gemm on the decoded
// panels. The weights run through every half pattern (±0, subnormals,
// ±Inf, NaN payloads: the LUT decodes of all 65536, re-encoded by the
// panel pack), A carries NaN and ±Inf too, and n = 2048 spans several
// 32-column panels with a masked n edge elsewhere.
TEST(DeterminismTest, HalfPanelGemmMatchesGemmOnDecodedPanels) {
  Rng rng(59);
  const float* lut = HalfDecodeTable();
  std::vector<std::int64_t> ms;
  for (std::int64_t m = 1; m <= 17; ++m) ms.push_back(m);
  ms.push_back(64);
  std::uint32_t pattern = 0;
  int combo = 0;
  for (const std::int64_t k : {1, 127, 129, 257}) {
    for (const std::int64_t n : {1, 31, 33, 100, 2048}) {
      std::vector<float> w(static_cast<std::size_t>(n * k));
      for (float& x : w) x = lut[pattern++ & 0xFFFFu];
      std::vector<Half> panels(
          static_cast<std::size_t>(HalfPanelElems(n, k)));
      PackHalfPanelsT(w.data(), n, k, panels.data());
      for (const Half h : panels) {
        // A signalling NaN: all-ones exponent, nonzero mantissa, quiet
        // bit clear. The in-register widening would quiet it.
        ASSERT_FALSE(h.IsNan() && (h.bits() & 0x0200u) == 0)
            << "signalling NaN 0x" << std::hex << h.bits() << " in panels";
      }
      std::vector<float> decoded(w.size());
      for (std::int64_t row = 0; row < n; ++row) {
        DecodeHalfPanelRow(panels.data(), n, k, row,
                           decoded.data() + row * k);
      }
      for (const std::int64_t m : ms) {
        auto a = RandomVec(static_cast<std::size_t>(m * k), rng);
        a[static_cast<std::size_t>(combo) % a.size()] =
            std::numeric_limits<float>::quiet_NaN();
        a[static_cast<std::size_t>(combo * 7 + 3) % a.size()] =
            std::numeric_limits<float>::infinity();
        a[static_cast<std::size_t>(combo * 13 + 5) % a.size()] =
            -std::numeric_limits<float>::infinity();
        const float alpha = kContractAlphas[combo % 2];
        ++combo;
        std::vector<float> want(static_cast<std::size_t>(m * n));
        Gemm(false, true, m, n, k, alpha, a.data(), decoded.data(), 0.0f,
             want.data());
        std::vector<float> got(want.size());
        GemmHalfPanelsT(m, n, k, alpha, a.data(), panels.data(), 0.0f,
                        got.data());
        ASSERT_EQ(std::memcmp(want.data(), got.data(),
                              want.size() * sizeof(float)),
                  0)
            << m << "x" << n << "x" << k << " alpha=" << alpha;
      }
    }
  }
  EXPECT_GE(pattern, 1u << 16);
}

TEST(DeterminismTest, LayerNormForwardBackwardBitwise) {
  Rng rng(11);
  const std::int64_t rows = 333, cols = 65;
  const auto x = RandomVec(static_cast<std::size_t>(rows * cols), rng);
  const auto gamma = RandomVec(static_cast<std::size_t>(cols), rng);
  const auto beta = RandomVec(static_cast<std::size_t>(cols), rng);
  const auto dy = RandomVec(static_cast<std::size_t>(rows * cols), rng);
  ExpectBitwiseStable([&] {
    std::vector<float> y(static_cast<std::size_t>(rows * cols));
    std::vector<float> mean(static_cast<std::size_t>(rows));
    std::vector<float> rstd(static_cast<std::size_t>(rows));
    std::vector<float> dx(y.size());
    std::vector<float> dgamma(static_cast<std::size_t>(cols), 0.5f);
    std::vector<float> dbeta(static_cast<std::size_t>(cols), -0.5f);
    LayerNormForward(x.data(), gamma.data(), beta.data(), y.data(),
                     mean.data(), rstd.data(), rows, cols, 1e-5f);
    LayerNormBackward(x.data(), gamma.data(), mean.data(), rstd.data(),
                      dy.data(), dx.data(), dgamma.data(), dbeta.data(),
                      rows, cols);
    std::vector<float> out;
    for (auto& v : {y, dx, dgamma, dbeta}) {
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  });
}

TEST(DeterminismTest, FusedBiasActivationBitwise) {
  Rng rng(13);
  const std::int64_t rows = 257, cols = 48;
  const auto x = RandomVec(static_cast<std::size_t>(rows * cols), rng);
  const auto bias = RandomVec(static_cast<std::size_t>(cols), rng);
  const auto dy = RandomVec(static_cast<std::size_t>(rows * cols), rng);
  ExpectBitwiseStable([&] {
    std::vector<float> z(x.size()), y(x.size()), dx(x.size());
    std::vector<float> dbias(static_cast<std::size_t>(cols), 0.0f);
    BiasGeluForward(x.data(), bias.data(), z.data(), y.data(), rows, cols);
    BiasGeluBackward(z.data(), dy.data(), dx.data(), dbias.data(), rows,
                     cols);
    std::vector<float> out;
    for (auto& v : {z, y, dx, dbias}) {
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  });
}

TEST(DeterminismTest, ReductionsBitwise) {
  Rng rng(17);
  const std::int64_t n = 100000;  // several kRedChunk chunks
  const auto a = RandomVec(static_cast<std::size_t>(n), rng);
  std::vector<Half> h(static_cast<std::size_t>(n));
  FloatToHalf(a.data(), h.data(), h.size());
  ExpectBitwiseStable([&] {
    return std::vector<float>{SquaredNorm(a.data(), n),
                              SquaredNormF16(h.data(), n)};
  });
}

TEST(DeterminismTest, CrossEntropyBitwise) {
  Rng rng(19);
  const std::int64_t rows = 100, vocab = 73;
  const auto logits = RandomVec(static_cast<std::size_t>(rows * vocab), rng);
  std::vector<std::int32_t> targets(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i] = static_cast<std::int32_t>(
        rng.NextBelow(static_cast<std::uint64_t>(vocab)));
  }
  ExpectBitwiseStable([&] {
    std::vector<float> dlogits(logits.size());
    const float loss = CrossEntropyLoss(logits.data(), targets.data(), rows,
                                        vocab, dlogits.data());
    std::vector<float> out{loss};
    out.insert(out.end(), dlogits.begin(), dlogits.end());
    return out;
  });
}

TEST(DeterminismTest, AdamUpdateBitwise) {
  Rng rng(23);
  const std::int64_t n = 20000;  // several kAdamChunk chunks
  const auto master0 = RandomVec(static_cast<std::size_t>(n), rng);
  const auto grad = RandomVec(static_cast<std::size_t>(n), rng);
  optim::AdamConfig cfg;
  cfg.weight_decay = 0.01f;
  ExpectBitwiseStable([&] {
    std::vector<float> master = master0;
    std::vector<float> m(static_cast<std::size_t>(n), 0.0f);
    std::vector<float> v(static_cast<std::size_t>(n), 0.0f);
    for (std::int64_t t = 1; t <= 3; ++t) {
      optim::AdamUpdate(cfg, t, master, grad, m, v);
    }
    std::vector<float> out;
    for (auto& s : {master, m, v}) out.insert(out.end(), s.begin(), s.end());
    return out;
  });
}

TEST(DeterminismTest, CastRoundTripBitwise) {
  Rng rng(29);
  const std::int64_t n = 50000;
  const auto src = RandomVec(static_cast<std::size_t>(n), rng);
  ExpectBitwiseStable([&] {
    std::vector<Half> h(static_cast<std::size_t>(n));
    std::vector<float> back(static_cast<std::size_t>(n));
    CastFloatToHalf(src.data(), h.data(), n);
    CastHalfToFloat(h.data(), back.data(), n);
    return back;
  });
}

}  // namespace
}  // namespace zero::tensor
