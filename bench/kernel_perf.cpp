// Kernel performance harness and regression gate.
//
// Measures the compute kernels against faithful replicas of the seed
// (pre-packing) implementations, writes BENCH_kernels.json, and exits
// nonzero if any of
//   * a metric regressed more than 25% against the checked-in baseline
//     (bench/kernels_baseline.json), or
//   * the packed-GEMM / bulk fp16-decode speedup floors are not met, or
//   * the fp16-panel weight GEMM is not at least 2.4x faster than fp32
//     Gemm at decode m (the bulk tile-decode path it replaced measured
//     ~1.9x, the in-register widening ~3.1x; both sides run in the same
//     process, so host speed cancels and a revert trips this floor).
// ZERO_BENCH_RELAX=1 downgrades failures to warnings (for noisy or
// throttled machines).
//
// Usage: kernel_perf [out.json [baseline.json]]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gate.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "optim/adam.hpp"
#include "tensor/kernels.hpp"
#include "tensor/parallel_for.hpp"

namespace {

using zero::Half;
using zero::Rng;

// ---------------------------------------------------------------------
// Seed replicas. These reproduce the pre-overhaul kernels, including
// the cross-TU per-element call boundaries the originals had
// (noinline), so the speedup numbers measure the optimization and not
// compiler-flag drift: both sides build with the same flags.
// ---------------------------------------------------------------------

__attribute__((noinline)) void SeedGemmNN(std::int64_t m, std::int64_t n,
                                          std::int64_t k, float alpha,
                                          const float* a, const float* b,
                                          float* c) {
  constexpr std::int64_t kBlock = 64;
  for (std::int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const std::int64_t i1 = std::min(i0 + kBlock, m);
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlock) {
      const std::int64_t k1 = std::min(k0 + kBlock, k);
      for (std::int64_t i = i0; i < i1; ++i) {
        float* ci = c + i * n;
        for (std::int64_t kk = k0; kk < k1; ++kk) {
          const float aik = alpha * a[i * k + kk];
          if (aik == 0.0f) continue;
          const float* bk = b + kk * n;
          for (std::int64_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
        }
      }
    }
  }
}

__attribute__((noinline)) void SeedGemmNT(std::int64_t m, std::int64_t n,
                                          std::int64_t k, float alpha,
                                          const float* a, const float* b,
                                          float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * k;
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += ai[kk] * bj[kk];
      ci[j] += alpha * acc;
    }
  }
}

__attribute__((noinline)) float SeedToFloat(std::uint16_t bits) {
  return Half::ToFloatImpl(bits);
}

__attribute__((noinline)) void SeedHalfToFloat(const Half* src, float* dst,
                                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = SeedToFloat(src[i].bits());
}

__attribute__((noinline)) std::uint16_t SeedFromFloat(float f) {
  return Half::FromFloat(f);
}

__attribute__((noinline)) void SeedFloatToHalf(const float* src, Half* dst,
                                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = Half::FromBits(SeedFromFloat(src[i]));
  }
}

// ---------------------------------------------------------------------
// Measurement: best-of-N wall time.
// ---------------------------------------------------------------------

template <typename Fn>
double BestSeconds(const Fn& fn, int reps = 5) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

std::vector<float> RandVec(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

struct Report {
  // name -> metric value (higher is better). Units are encoded in the
  // name suffix: _gflops, _gelems, _gbytes.
  std::map<std::string, double> values;
  void Add(const std::string& name, double v) { values[name] = v; }
};

// Minimal scanner for the flat `"key": number` JSON this harness
// writes. Ignores structure beyond quoted-key/number pairs.
std::map<std::string, double> LoadBaseline(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t q0 = line.find('"');
    if (q0 == std::string::npos) continue;
    const std::size_t q1 = line.find('"', q0 + 1);
    if (q1 == std::string::npos) continue;
    const std::size_t colon = line.find(':', q1);
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(q0 + 1, q1 - q0 - 1);
    char* end = nullptr;
    const double v = std::strtod(line.c_str() + colon + 1, &end);
    if (end != line.c_str() + colon + 1) out[key] = v;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  const std::string baseline_path =
      argc > 2 ? argv[2] : "bench/kernels_baseline.json";
  Report rep;

  // ---- GEMM 512^3, all against the seed scalar kernel ----
  {
    const std::int64_t n = 512;
    const double flops = 2.0 * n * n * n;
    auto a = RandVec(static_cast<std::size_t>(n * n), 1);
    auto b = RandVec(static_cast<std::size_t>(n * n), 2);
    std::vector<float> c(static_cast<std::size_t>(n * n));
    auto zero_c = [&] {
      std::memset(c.data(), 0, c.size() * sizeof(float));
    };

    double t = BestSeconds([&] {
      zero_c();
      SeedGemmNN(n, n, n, 1.0f, a.data(), b.data(), c.data());
    });
    rep.Add("gemm512_nn_seed_gflops", flops / t / 1e9);

    {
      zero::tensor::IntraOpWorkersGuard guard(1);
      t = BestSeconds([&] {
        zero::tensor::Gemm(false, false, n, n, n, 1.0f, a.data(), b.data(),
                           0.0f, c.data());
      });
      rep.Add("gemm512_nn_packed_serial_gflops", flops / t / 1e9);
    }
    {
      zero::tensor::IntraOpWorkersGuard guard(
          zero::tensor::HardwareConcurrency());
      t = BestSeconds([&] {
        zero::tensor::Gemm(false, false, n, n, n, 1.0f, a.data(), b.data(),
                           0.0f, c.data());
      });
      rep.Add("gemm512_nn_packed_parallel_gflops", flops / t / 1e9);
    }

    t = BestSeconds([&] {
      zero_c();
      SeedGemmNT(n, n, n, 1.0f, a.data(), b.data(), c.data());
    });
    rep.Add("gemm512_nt_seed_gflops", flops / t / 1e9);
    {
      zero::tensor::IntraOpWorkersGuard guard(1);
      t = BestSeconds([&] {
        zero::tensor::Gemm(false, true, n, n, n, 1.0f, a.data(), b.data(),
                           0.0f, c.data());
      });
      rep.Add("gemm512_nt_packed_serial_gflops", flops / t / 1e9);
    }
    {
      // dW = X^T dY: the transposed-A case of every weight gradient.
      zero::tensor::IntraOpWorkersGuard guard(1);
      t = BestSeconds([&] {
        zero::tensor::Gemm(true, false, n, n, n, 1.0f, a.data(), b.data(),
                           0.0f, c.data());
      });
      rep.Add("gemm512_tn_packed_serial_gflops", flops / t / 1e9);
    }
  }

  // ---- per-head attention scores: Q K^T * 1/sqrt(hd), seq 128, hd 32 ----
  {
    const std::int64_t seq = 128, hd = 32, calls = 64;
    const double flops = 2.0 * seq * seq * hd * calls;
    auto q = RandVec(static_cast<std::size_t>(seq * hd), 12);
    auto k = RandVec(static_cast<std::size_t>(seq * hd), 13);
    std::vector<float> s(static_cast<std::size_t>(seq * seq));
    zero::tensor::IntraOpWorkersGuard guard(1);
    const double t = BestSeconds([&] {
      for (std::int64_t i = 0; i < calls; ++i) {
        zero::tensor::Gemm(false, true, seq, seq, hd, 0.17677669f, q.data(),
                           k.data(), 0.0f, s.data());
      }
    });
    rep.Add("gemm_attn_128x128x32_gflops", flops / t / 1e9);
  }

  // ---- decode attention: per-head scores and context, strided ----
  // The serving benchmark's heads (hidden 512, hd 64) at decode m and
  // cached lengths, read in place as decode reads them: Q from [m, 3H]
  // qkv rows, K and V from a [k_len, 2H] gather of the cached prefix, the
  // context written into [m, H] rows. These shapes are a few thousand to
  // a few hundred thousand flops each.
  {
    const std::int64_t hidden = 512, hd = 64, heads = hidden / hd;
    const std::int64_t ms[] = {1, 2, 4, 8};
    const std::int64_t k_lens[] = {24, 64, 128};
    const auto qkv = RandVec(static_cast<std::size_t>(8 * 3 * hidden), 16);
    const auto kv = RandVec(static_cast<std::size_t>(128 * 2 * hidden), 17);
    std::vector<float> probs(static_cast<std::size_t>(8 * 128));
    std::vector<float> ctx(static_cast<std::size_t>(8 * hidden));
    double flops = 0.0;
    for (const std::int64_t m : ms) {
      for (const std::int64_t k_len : k_lens) {
        flops += heads * 2.0 * (2.0 * m * k_len * hd);
      }
    }
    constexpr int kCalls = 20;
    zero::tensor::IntraOpWorkersGuard guard(1);
    const double t = BestSeconds([&] {
      for (int i = 0; i < kCalls; ++i) {
        for (const std::int64_t m : ms) {
          for (const std::int64_t k_len : k_lens) {
            for (std::int64_t h = 0; h < heads; ++h) {
              zero::tensor::Gemm(false, true, m, k_len, hd, 0.125f,
                                 qkv.data() + h * hd, 3 * hidden,
                                 kv.data() + h * hd, 2 * hidden, 0.0f,
                                 probs.data(), k_len);
              zero::tensor::Gemm(false, false, m, hd, k_len, 1.0f,
                                 probs.data(), k_len,
                                 kv.data() + hidden + h * hd, 2 * hidden,
                                 0.0f, ctx.data() + h * hd, hidden);
            }
          }
        }
      }
    });
    rep.Add("gemm_decode_attn_gflops", kCalls * flops / t / 1e9);
  }

  // ---- fp16 serving weights at decode m: the four hidden-512 shapes ----
  // (n, k) of the QKV, attention-out, MLP-fc and MLP-proj weights, m = 8
  // (a full decode batch), through the pre-packed fp16 panels and through
  // fp32 Gemm on the same decoded weights. The two sides alternate within
  // each rep, so the ratio sees the same host conditions on both.
  double half_panels_speedup = 0.0;
  {
    const std::int64_t m = 8;
    const std::int64_t shapes[][2] = {
        {1536, 512}, {512, 512}, {2048, 512}, {512, 2048}};
    struct Weight {
      std::int64_t n, k;
      std::vector<Half> panels;
      std::vector<float> decoded;
    };
    std::vector<Weight> weights;
    double flops = 0.0;
    std::int64_t max_k = 0, max_n = 0;
    for (const auto& s : shapes) {
      Weight w{s[0], s[1], {}, {}};
      const auto f = RandVec(static_cast<std::size_t>(w.n * w.k), 14);
      w.panels.resize(
          static_cast<std::size_t>(zero::tensor::HalfPanelElems(w.n, w.k)));
      zero::tensor::PackHalfPanelsT(f.data(), w.n, w.k, w.panels.data());
      w.decoded.resize(f.size());
      for (std::int64_t row = 0; row < w.n; ++row) {
        zero::tensor::DecodeHalfPanelRow(w.panels.data(), w.n, w.k, row,
                                         w.decoded.data() + row * w.k);
      }
      flops += 2.0 * m * w.n * w.k;
      max_k = std::max(max_k, w.k);
      max_n = std::max(max_n, w.n);
      weights.push_back(std::move(w));
    }
    const auto a = RandVec(static_cast<std::size_t>(m * max_k), 15);
    std::vector<float> c(static_cast<std::size_t>(m * max_n));
    constexpr int kCalls = 16;
    const auto half_set = [&] {
      for (int i = 0; i < kCalls; ++i) {
        for (const Weight& w : weights) {
          zero::tensor::GemmHalfPanelsT(m, w.n, w.k, 1.0f, a.data(),
                                        w.panels.data(), 0.0f, c.data());
        }
      }
    };
    const auto fp32_set = [&] {
      for (int i = 0; i < kCalls; ++i) {
        for (const Weight& w : weights) {
          zero::tensor::Gemm(false, true, m, w.n, w.k, 1.0f, a.data(),
                             w.decoded.data(), 0.0f, c.data());
        }
      }
    };
    zero::tensor::IntraOpWorkersGuard guard(1);
    double t_half = 1e30, t_fp32 = 1e30;
    for (int r = 0; r < 9; ++r) {
      t_half = std::min(t_half, BestSeconds(half_set, 1));
      t_fp32 = std::min(t_fp32, BestSeconds(fp32_set, 1));
    }
    rep.Add("gemm_half_decode_m8_gflops", kCalls * flops / t_half / 1e9);
    half_panels_speedup = t_fp32 / t_half;
  }

  // ---- bulk fp16 conversion (L2-resident working set) ----
  {
    const std::size_t n = 1u << 16;
    auto f = RandVec(n, 3);
    std::vector<Half> h(n);
    zero::FloatToHalf(f.data(), h.data(), n);
    std::vector<float> out(n);

    double t = BestSeconds([&] { SeedHalfToFloat(h.data(), out.data(), n); }, 9);
    rep.Add("half_to_float_seed_gelems", n / t / 1e9);
    t = BestSeconds([&] { zero::HalfToFloat(h.data(), out.data(), n); }, 9);
    rep.Add("half_to_float_bulk_gelems", n / t / 1e9);

    t = BestSeconds([&] { SeedFloatToHalf(f.data(), h.data(), n); }, 9);
    rep.Add("float_to_half_seed_gelems", n / t / 1e9);
    t = BestSeconds([&] { zero::FloatToHalf(f.data(), h.data(), n); }, 9);
    rep.Add("float_to_half_bulk_gelems", n / t / 1e9);
    t = BestSeconds(
        [&] { zero::ScaledFloatToHalf(f.data(), 1024.0f, h.data(), n); }, 9);
    rep.Add("scaled_float_to_half_gelems", n / t / 1e9);
  }

  // ---- fused mixed-precision Adam: fp16 grads -> fp16 params ----
  {
    // Psi = 4M, the order of one rank's shard in the benchmark models;
    // the 64 MB of state and edges stream from memory, as in training.
    const std::size_t n = std::size_t{1} << 22;
    zero::optim::MixedPrecisionAdam opt(zero::optim::AdamConfig{}, nullptr,
                                        RandVec(n, 10));
    const auto g32 = RandVec(n, 11);
    std::vector<Half> g(n), p(n);
    zero::ScaledFloatToHalf(g32.data(), 1024.0f, g.data(), n);
    zero::tensor::IntraOpWorkersGuard guard(1);
    const double t = BestSeconds([&] { opt.Step(p, g, 1024.0f); });
    rep.Add("adam_fused_gelems", n / t / 1e9);
  }

  // ---- fused bias+GELU, causal softmax (the vectorized-exp loops) ----
  {
    const std::int64_t rows = 512, cols = 1024;
    const std::size_t n = static_cast<std::size_t>(rows * cols);
    auto x = RandVec(n, 4);
    auto bias = RandVec(static_cast<std::size_t>(cols), 5);
    std::vector<float> z(n), y(n);
    const double t = BestSeconds([&] {
      zero::tensor::BiasGeluForward(x.data(), bias.data(), z.data(), y.data(),
                                    rows, cols);
    });
    rep.Add("bias_gelu_fused_gelems", n / t / 1e9);
  }
  {
    const std::int64_t heads = 32, seq = 128;
    const std::size_t n = static_cast<std::size_t>(heads * seq * seq);
    const auto scores = RandVec(n, 9);
    std::vector<float> s(n);
    // The copy restores the inputs each rep; it is timed too, but is
    // small next to the exp work and identical for every build.
    const double t = BestSeconds([&] {
      std::memcpy(s.data(), scores.data(), n * sizeof(float));
      zero::tensor::CausalMaskedSoftmax(s.data(), heads, seq, seq);
    });
    rep.Add("causal_softmax_gelems", n / t / 1e9);
  }

  // ---- LayerNorm forward + squared-norm reduction ----
  {
    const std::int64_t rows = 1024, cols = 1024;
    const std::size_t n = static_cast<std::size_t>(rows * cols);
    auto x = RandVec(n, 6);
    auto gamma = RandVec(static_cast<std::size_t>(cols), 7);
    auto beta = RandVec(static_cast<std::size_t>(cols), 8);
    std::vector<float> y(n), mean(static_cast<std::size_t>(rows)),
        rstd(static_cast<std::size_t>(rows));
    double t = BestSeconds([&] {
      zero::tensor::LayerNormForward(x.data(), gamma.data(), beta.data(),
                                     y.data(), mean.data(), rstd.data(), rows,
                                     cols, 1e-5f);
    });
    rep.Add("layernorm_fwd_gelems", n / t / 1e9);
    volatile float sink = 0.0f;
    t = BestSeconds([&] {
      sink = zero::tensor::SquaredNorm(x.data(), static_cast<std::int64_t>(n));
    });
    (void)sink;
    rep.Add("squared_norm_gelems", n / t / 1e9);
  }

  // ---- derived speedups (the acceptance floors) ----
  const double gemm_speedup = rep.values["gemm512_nn_packed_parallel_gflops"] /
                              rep.values["gemm512_nn_seed_gflops"];
  const double h2f_speedup = rep.values["half_to_float_bulk_gelems"] /
                             rep.values["half_to_float_seed_gelems"];
  rep.Add("speedup_gemm512_packed_vs_seed", gemm_speedup);
  rep.Add("speedup_half_to_float_vs_seed", h2f_speedup);
  rep.Add("speedup_half_panels_vs_fp32_m8", half_panels_speedup);

  // ---- write the report ----
  {
    std::ofstream out(out_path);
    out << "{\n";
    std::size_t i = 0;
    for (const auto& [k, v] : rep.values) {
      out << "  \"" << k << "\": " << v
          << (++i == rep.values.size() ? "\n" : ",\n");
    }
    out << "}\n";
  }
  std::printf("wrote %s\n", out_path.c_str());
  for (const auto& [k, v] : rep.values) {
    std::printf("  %-40s %10.3f\n", k.c_str(), v);
  }

  // ---- gates ----
  zero::bench::GateSet gates;

  if (gemm_speedup < 3.0) {
    std::ostringstream os;
    os << "packed GEMM speedup " << gemm_speedup << "x < 3x floor";
    gates.Fail(os.str());
  }
  if (h2f_speedup < 5.0) {
    std::ostringstream os;
    os << "bulk HalfToFloat speedup " << h2f_speedup << "x < 5x floor";
    gates.Fail(os.str());
  }
  if (half_panels_speedup < 2.4) {
    std::ostringstream os;
    os << "fp16-panel GEMM speedup over fp32 at m=8 " << half_panels_speedup
       << "x < 2.4x floor";
    gates.Fail(os.str());
  }

  const auto baseline = LoadBaseline(baseline_path);
  if (baseline.empty()) {
    std::printf("note: no baseline at %s; skipping regression gate\n",
                baseline_path.c_str());
  }
  for (const auto& [k, base] : baseline) {
    const auto it = rep.values.find(k);
    if (it == rep.values.end() || base <= 0.0) continue;
    if (it->second < 0.75 * base) {
      std::ostringstream os;
      os << k << " regressed: " << it->second << " < 75% of baseline "
         << base;
      gates.Fail(os.str());
    }
  }

  if (gates.ok()) {
    std::printf("kernel perf gate: OK\n");
  } else {
    std::printf("kernel perf gate: %d failure(s)%s\n", gates.failures(),
                gates.relaxed() ? " (relaxed)" : "");
  }
  return gates.ExitCode();
}
