#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#if defined(__AVX512F__)
// GCC 12 flags the intentionally undefined pass-through operand inside
// the AVX-512 shuffle intrinsics as maybe-uninitialized (fixed in GCC
// 13); the warning points into this header, so it is silenced here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

#include "alloc/scratch.hpp"
#include "common/error.hpp"
#include "tensor/fast_exp.hpp"
#include "tensor/parallel_for.hpp"

namespace zero::tensor {

namespace {

// ---------------------------------------------------------------------------
// Blocking parameters.
//
// The micro-kernel computes a kMr x kNr register tile: 8x32 is 16
// AVX-512 accumulators (8 rows x 2 vectors) that stay in registers for
// the whole kc loop, plus the two B vectors and the A broadcast. Panel
// sizes keep the packed B strip (kKc x kNr = 16 KiB) L1-resident and
// the packed A block (kMc x kKc = 128 KiB) L2-resident. The tile shape
// is not part of the numeric contract: every C element runs the same
// chain whatever kMr is.
constexpr std::int64_t kMr = 8;
constexpr std::int64_t kNr = 32;
constexpr std::int64_t kMc = 256;
constexpr std::int64_t kKc = 128;
constexpr std::int64_t kNc = 4096;

// Chunk sizes for deterministic parallel partitioning. These are part
// of each kernel's numeric contract: partials are combined in
// chunk-index order, so results are bitwise-stable for any worker
// count (the chunking depends only on the problem shape).
constexpr std::int64_t kElemChunk = 1 << 13;  // elementwise kernels
constexpr std::int64_t kRedChunk = 1 << 14;   // scalar reductions
constexpr std::int64_t kRowChunk = 64;        // column-reduction partials
constexpr std::int64_t kCeRowChunk = 16;      // cross-entropy rows

std::int64_t RowGrain(std::int64_t cols) {
  return std::max<std::int64_t>(1, kElemChunk / std::max<std::int64_t>(cols, 1));
}

#if defined(__AVX512F__)
// In-register transposes for the packers (AVX-512F and the AVX it
// implies; no wider ISA extension). Pure data movement: the packed
// floats are bitwise the ones the per-element loops would copy.

// r[t] = column t of the 8x8 block whose rows are r[0..7].
inline void Transpose8x8(__m256 r[8]) {
  __m256 t[8];
  __m256 s[8];
  for (int i = 0; i < 4; ++i) {
    t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
    t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
  }
  for (int h = 0; h < 2; ++h) {
    // s[4h + e], e = 0..3: rows 4h..4h+3 at columns e (low 128-bit lane)
    // and e + 4 (high lane).
    s[4 * h + 0] = _mm256_shuffle_ps(t[4 * h], t[4 * h + 2], 0x44);
    s[4 * h + 1] = _mm256_shuffle_ps(t[4 * h], t[4 * h + 2], 0xEE);
    s[4 * h + 2] = _mm256_shuffle_ps(t[4 * h + 1], t[4 * h + 3], 0x44);
    s[4 * h + 3] = _mm256_shuffle_ps(t[4 * h + 1], t[4 * h + 3], 0xEE);
  }
  for (int e = 0; e < 4; ++e) {
    r[e] = _mm256_permute2f128_ps(s[e], s[4 + e], 0x20);
    r[e + 4] = _mm256_permute2f128_ps(s[e], s[4 + e], 0x31);
  }
}

// r[t] = column t of the 16x16 block whose rows are r[0..15].
inline void Transpose16x16(__m512 r[16]) {
  __m512 t[16];
  for (int i = 0; i < 8; ++i) {
    t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
    t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
  }
  // u[4g + e]: rows 4g..4g+3 at column 4L + e in 128-bit lane L.
  __m512 u[16];
  for (int g = 0; g < 4; ++g) {
    u[4 * g + 0] = _mm512_shuffle_ps(t[4 * g], t[4 * g + 2], 0x44);
    u[4 * g + 1] = _mm512_shuffle_ps(t[4 * g], t[4 * g + 2], 0xEE);
    u[4 * g + 2] = _mm512_shuffle_ps(t[4 * g + 1], t[4 * g + 3], 0x44);
    u[4 * g + 3] = _mm512_shuffle_ps(t[4 * g + 1], t[4 * g + 3], 0xEE);
  }
  // Gather lane L of u[e], u[4 + e], u[8 + e], u[12 + e] into column
  // 4L + e: even lanes by 0x88, odd lanes by 0xDD, twice.
  for (int e = 0; e < 4; ++e) {
    const __m512 v0 = _mm512_shuffle_f32x4(u[e], u[4 + e], 0x88);
    const __m512 v1 = _mm512_shuffle_f32x4(u[e], u[4 + e], 0xDD);
    const __m512 w0 = _mm512_shuffle_f32x4(u[8 + e], u[12 + e], 0x88);
    const __m512 w1 = _mm512_shuffle_f32x4(u[8 + e], u[12 + e], 0xDD);
    r[e] = _mm512_shuffle_f32x4(v0, w0, 0x88);
    r[e + 4] = _mm512_shuffle_f32x4(v1, w1, 0x88);
    r[e + 8] = _mm512_shuffle_f32x4(v0, w0, 0xDD);
    r[e + 12] = _mm512_shuffle_f32x4(v1, w1, 0xDD);
  }
}
#endif

// Packs rows [i0, i0+mc) x k-range [p0, p0+kc) of op(A), whose stored
// rows are lda floats apart, into micro-panels of kMr rows:
// dst[(panel * kc + kk) * kMr + r], zero-padded past mc. alpha is folded
// in here (the seed kernel multiplied it into A too). One loop per
// storage order: transposed A holds a panel's kMr rows contiguously at
// each kk; row-major A is transposed 8 x 8 in registers (full panels,
// whole 8-deep k steps) and element by element elsewhere.
void PackA(const float* a, std::int64_t lda, bool trans, std::int64_t i0,
           std::int64_t mc, std::int64_t p0, std::int64_t kc, float alpha,
           float* dst) {
  const std::int64_t panels = (mc + kMr - 1) / kMr;
  if (trans) {
    // 8-deep k steps across every panel: the 8 source rows stream
    // contiguously instead of each panel striding through kc rows
    // (rows lda floats apart alias in L1 when lda is a multiple of 1024).
    for (std::int64_t kb = 0; kb < kc; kb += 8) {
      const std::int64_t kb_e = std::min<std::int64_t>(8, kc - kb);
      for (std::int64_t p = 0; p < panels; ++p) {
        const std::int64_t rbase = i0 + p * kMr;
        const std::int64_t rvalid =
            std::min<std::int64_t>(kMr, i0 + mc - rbase);
        for (std::int64_t t = 0; t < kb_e; ++t) {
          float* drow = dst + (p * kc + kb + t) * kMr;
          const float* srow = a + (p0 + kb + t) * lda + rbase;
          for (std::int64_t r = 0; r < rvalid; ++r) drow[r] = alpha * srow[r];
          for (std::int64_t r = rvalid; r < kMr; ++r) drow[r] = 0.0f;
        }
      }
    }
    return;
  }
  for (std::int64_t p = 0; p < panels; ++p) {
    float* dp = dst + p * kc * kMr;
    const std::int64_t rbase = i0 + p * kMr;
    const std::int64_t rvalid = std::min<std::int64_t>(kMr, i0 + mc - rbase);
    std::int64_t kk = 0;
    const float* src = a + rbase * lda + p0;
#if defined(__AVX512F__)
    static_assert(kMr == 8, "the 8x8 A transpose fills one kMr panel");
    if (rvalid == kMr) {
      const __m256 va = _mm256_set1_ps(alpha);
      for (; kk + 8 <= kc; kk += 8) {
        __m256 r[8];
        for (int i = 0; i < 8; ++i) {
          r[i] = _mm256_mul_ps(va, _mm256_loadu_ps(src + i * lda + kk));
        }
        Transpose8x8(r);
        for (int t = 0; t < 8; ++t) _mm256_storeu_ps(dp + (kk + t) * kMr, r[t]);
      }
    }
#endif
    for (; kk < kc; ++kk) {
      float* drow = dp + kk * kMr;
      for (std::int64_t r = 0; r < rvalid; ++r) {
        drow[r] = alpha * src[r * lda + kk];
      }
      for (std::int64_t r = rvalid; r < kMr; ++r) drow[r] = 0.0f;
    }
  }
}

// Packs k-range [p0, p0+kc) x cols [j0, j0+nc) of op(B), whose stored
// rows are ldb floats apart, into micro-panels of kNr columns:
// dst[(panel * kc + kk) * kNr + j], zero-padded past nc. Row-major B
// copies each panel row with one memcpy; transposed B is transposed
// 16 x 16 in registers (full panels, whole 16-deep k steps) and element
// by element elsewhere.
void PackB(const float* b, std::int64_t ldb, bool trans, std::int64_t p0,
           std::int64_t kc, std::int64_t j0, std::int64_t nc, float* dst) {
  const std::int64_t panels = (nc + kNr - 1) / kNr;
  for (std::int64_t p = 0; p < panels; ++p) {
    float* dp = dst + p * kc * kNr;
    const std::int64_t cbase = j0 + p * kNr;
    const std::int64_t cvalid = std::min<std::int64_t>(kNr, j0 + nc - cbase);
    std::int64_t kk = 0;
    if (!trans) {
      const float* src = b + p0 * ldb + cbase;
      for (; kk < kc; ++kk) {
        float* drow = dp + kk * kNr;
        std::memcpy(drow, src + kk * ldb,
                    static_cast<std::size_t>(cvalid) * sizeof(float));
        for (std::int64_t j = cvalid; j < kNr; ++j) drow[j] = 0.0f;
      }
      continue;
    }
    const float* src = b + cbase * ldb + p0;
#if defined(__AVX512F__)
    if (cvalid == kNr) {
      for (; kk + 16 <= kc; kk += 16) {
        for (std::int64_t jh = 0; jh < kNr; jh += 16) {
          __m512 r[16];
          for (int j = 0; j < 16; ++j) {
            r[j] = _mm512_loadu_ps(src + (jh + j) * ldb + kk);
          }
          Transpose16x16(r);
          for (int t = 0; t < 16; ++t) {
            _mm512_storeu_ps(dp + (kk + t) * kNr + jh, r[t]);
          }
        }
      }
    }
#endif
    for (; kk < kc; ++kk) {
      float* drow = dp + kk * kNr;
      for (std::int64_t j = 0; j < cvalid; ++j) drow[j] = src[j * ldb + kk];
      for (std::int64_t j = cvalid; j < kNr; ++j) drow[j] = 0.0f;
    }
  }
}

// C_tile[mr_e, nr_e] += packed-A panel x packed-B panel. Padded lanes
// (r >= mr_e, j >= nr_e) compute values that are never written back.
// Each accumulator runs the contract's chain: a fused multiply-add per
// kk, in k order from +0, then one add into C. The B panel holds fp32
// (a filled scratch tile) or fp16 (pre-packed serving weights); the B
// load is the one step that differs: fp16 is widened in registers, to
// bitwise the floats a decoded fp32 tile would hold.
#if defined(__AVX512F__)
// One kk row of a B panel (kNr values) as two 16-float vectors.
struct BRow {
  __m512 lo;
  __m512 hi;
};
inline BRow LoadBRow(const float* p) {
  return {_mm512_loadu_ps(p), _mm512_loadu_ps(p + 16)};
}
// A fp16 row is one cache line. The pre-packed panels stream from L3 or
// memory (a decode step reads each weight once), so the row 32 ahead is
// fetched now; past the panel's end that is the next panel, or nothing.
// VCVTPH2PS is exact on every half except that it quiets a signalling
// NaN; the panels never hold one (PackHalfPanelsT's encoder quiets
// NaNs), so the widened row equals the decode table lane for lane.
inline BRow LoadBRow(const Half* p) {
  _mm_prefetch(reinterpret_cast<const char*>(p + 32 * kNr), _MM_HINT_T0);
  return {_mm512_cvtph_ps(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))),
          _mm512_cvtph_ps(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 16)))};
}

// The 8 x 32 tile in 16 zmm accumulators; masked loads and stores cover
// the n edge.
template <class BElem>
void MicroKernel(std::int64_t kc, const float* pa, const BElem* pb, float* c,
                 std::int64_t ldc, std::int64_t mr_e, std::int64_t nr_e) {
  static_assert(kNr == 32, "the AVX-512 tile is two 16-float vectors wide");
  // Every loop over r is fully unrolled, so each accumulator index is a
  // constant and the tile never leaves registers.
  __m512 acc0[kMr];
  __m512 acc1[kMr];
#pragma GCC unroll 8
  for (int r = 0; r < kMr; ++r) {
    acc0[r] = _mm512_setzero_ps();
    acc1[r] = _mm512_setzero_ps();
    // The C tile is read only after the kc loop: start fetching it now.
    if (r < mr_e) {
      _mm_prefetch(reinterpret_cast<const char*>(c + r * ldc), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(c + r * ldc + 16),
                   _MM_HINT_T0);
    }
  }
#pragma GCC unroll 4
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const BRow b = LoadBRow(pb + kk * kNr);
    const float* arow = pa + kk * kMr;
#pragma GCC unroll 8
    for (int r = 0; r < kMr; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r]);
      acc0[r] = _mm512_fmadd_ps(av, b.lo, acc0[r]);
      acc1[r] = _mm512_fmadd_ps(av, b.hi, acc1[r]);
    }
  }
  const auto lane_mask = [](std::int64_t valid) {
    return static_cast<__mmask16>(
        valid >= 16 ? 0xFFFFu : valid <= 0 ? 0u : (1u << valid) - 1u);
  };
  const __mmask16 m0 = lane_mask(nr_e);
  const __mmask16 m1 = lane_mask(nr_e - 16);
#pragma GCC unroll 8
  for (int r = 0; r < kMr; ++r) {
    if (r < mr_e) {
      float* cr = c + r * ldc;
      _mm512_mask_storeu_ps(
          cr, m0, _mm512_add_ps(_mm512_maskz_loadu_ps(m0, cr), acc0[r]));
      _mm512_mask_storeu_ps(
          cr + 16, m1,
          _mm512_add_ps(_mm512_maskz_loadu_ps(m1, cr + 16), acc1[r]));
    }
  }
}
#else
inline float WidenB(float b, const float*) { return b; }
inline float WidenB(Half b, const float* lut) { return lut[b.bits()]; }

// Compile-time bounds let the compiler unroll and vectorize the j loop.
template <class BElem>
void MicroKernel(std::int64_t kc, const float* pa, const BElem* pb, float* c,
                 std::int64_t ldc, std::int64_t mr_e, std::int64_t nr_e) {
  const float* lut = std::is_same_v<BElem, Half> ? HalfDecodeTable() : nullptr;
  float acc[kMr][kNr] = {};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = pa + kk * kMr;
    float brow[kNr];
    for (std::int64_t j = 0; j < kNr; ++j) {
      brow[j] = WidenB(pb[kk * kNr + j], lut);
    }
    for (std::int64_t r = 0; r < kMr; ++r) {
      const float av = arow[r];
      for (std::int64_t j = 0; j < kNr; ++j) {
        acc[r][j] = std::fma(av, brow[j], acc[r][j]);
      }
    }
  }
  if (mr_e == kMr && nr_e == kNr) {
    for (std::int64_t r = 0; r < kMr; ++r) {
      float* cr = c + r * ldc;
      for (std::int64_t j = 0; j < kNr; ++j) cr[j] += acc[r][j];
    }
  } else {
    for (std::int64_t r = 0; r < mr_e; ++r) {
      float* cr = c + r * ldc;
      for (std::int64_t j = 0; j < nr_e; ++j) cr[j] += acc[r][j];
    }
  }
}
#endif

// The B-side tile walk of the packed loop nest: jc outer over kNc column
// blocks, pc inner over kKc k-blocks. `fn(jc, nc, pc, kc, base)` sees
// each tile's geometry and its element offset in a stream of packed B
// tiles (kNr-column panels, zero-padded past n); returns the stream's
// total element count. PackedGemm walks B through it and the fp16 panel
// encoding stores its tiles in the same order, so a pre-packed tile is
// one contiguous run at `base`.
template <class Fn>
std::int64_t ForEachBTile(std::int64_t n, std::int64_t k, Fn&& fn) {
  std::int64_t base = 0;
  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t nc = std::min(kNc, n - jc);
    const std::int64_t panels = (nc + kNr - 1) / kNr;
    for (std::int64_t pc = 0; pc < k; pc += kKc) {
      const std::int64_t kc = std::min(kKc, k - pc);
      fn(jc, nc, pc, kc, base);
      base += panels * kc * kNr;
    }
  }
  return base;
}

// The one GEMM loop nest (BLIS jc/pc/ib/jr/ir), for every shape and
// every operand encoding. First C = beta * C over its m x n elements
// (rows ldc floats apart; the gaps between rows are never touched). The
// B operand `b` is either a filler `b(jc, nc, pc, kc, pb)` that writes
// the fp32 tile for columns [jc, jc+nc) x k-range [pc, pc+kc) into a
// scratch tile in PackB's micro-panel layout, or a `const Half*` to fp16
// panels pre-packed in that layout, read in place at each tile's `base`.
// Each operand encoding brings its own B operand, and everything
// downstream of the tile (A packing, the micro-kernel's A broadcast, FMA
// chain and C update, the row-block partition) is shared, so the float
// pipeline is element-for-element the same for every encoding.
template <class B>
void PackedGemm(bool trans_a, std::int64_t m, std::int64_t n, std::int64_t k,
                float alpha, const float* a, std::int64_t lda, const B& b,
                float beta, float* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (beta != 1.0f) {
    ParallelFor(0, m, RowGrain(n), [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r) {
        float* cr = c + r * ldc;
        if (beta == 0.0f) {
          std::memset(cr, 0, static_cast<std::size_t>(n) * sizeof(float));
        } else {
          for (std::int64_t j = 0; j < n; ++j) cr[j] *= beta;
        }
      }
    });
  }
  if (k <= 0) return;

  constexpr bool kHalfPanels = std::is_same_v<B, const Half*>;
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  float* tile = nullptr;
  if constexpr (!kHalfPanels) {
    const std::int64_t b_panels = (std::min(n, kNc) + kNr - 1) / kNr;
    tile = scratch.AllocateT<float>(
        static_cast<std::size_t>(b_panels * kKc * kNr));
  }
  const std::int64_t n_iblocks = (m + kMc - 1) / kMc;

  ForEachBTile(n, k, [&](std::int64_t jc, std::int64_t nc, std::int64_t pc,
                         std::int64_t kc, std::int64_t base) {
    const std::int64_t jr_panels = (nc + kNr - 1) / kNr;
    const auto* pb = [&] {
      if constexpr (kHalfPanels) {
        return b + base;
      } else {
        b(jc, nc, pc, kc, tile);
        return static_cast<const float*>(tile);
      }
    }();
    // Row blocks are independent: each C element accumulates its
    // kc-panel contribution in the same serial order no matter which
    // worker owns the block (the pc loop is a barrier).
    ParallelFor(0, n_iblocks, 1, [&](std::int64_t ib0, std::int64_t ib1) {
      alloc::ScratchArena& task_scratch = alloc::ThreadScratch();
      alloc::ScratchGuard task_guard(task_scratch);
      float* pa = task_scratch.AllocateT<float>(
          static_cast<std::size_t>(((kMc + kMr - 1) / kMr) * kMr * kKc));
      for (std::int64_t ib = ib0; ib < ib1; ++ib) {
        const std::int64_t i0 = ib * kMc;
        const std::int64_t mc = std::min(kMc, m - i0);
        PackA(a, lda, trans_a, i0, mc, pc, kc, alpha, pa);
        const std::int64_t ir_panels = (mc + kMr - 1) / kMr;
        for (std::int64_t jr = 0; jr < jr_panels; ++jr) {
          const auto* pbp = pb + jr * kc * kNr;
          const std::int64_t j0 = jc + jr * kNr;
          const std::int64_t nr_e = std::min<std::int64_t>(kNr, n - j0);
          for (std::int64_t ir = 0; ir < ir_panels; ++ir) {
            const std::int64_t r0 = i0 + ir * kMr;
            const std::int64_t mr_e = std::min<std::int64_t>(kMr, m - r0);
            MicroKernel(kc, pa + ir * kc * kMr, pbp, c + r0 * ldc + j0, ldc,
                        mr_e, nr_e);
          }
        }
      }
    });
  });
}

// Blockwise-int8 elements [idx, idx+len) of W to fp32. The run is split
// at quant-block boundaries so the inner loop is a contiguous int8->fp32
// convert against one broadcast scale — the form the compiler
// vectorizes — instead of a per-element division for the scale index.
void DecodeQuant(const std::int8_t* codes, const float* scales,
                 std::int64_t qblock, std::int64_t idx, std::int64_t len,
                 float* dst) {
  std::int64_t i = idx;
  std::int64_t o = 0;
  while (o < len) {
    const float s = scales[i / qblock];
    const std::int64_t run = std::min(len - o, qblock - i % qblock);
    const std::int8_t* cp = codes + i;
    float* dp = dst + o;
    for (std::int64_t j = 0; j < run; ++j) {
      dp[j] = static_cast<float>(cp[j]) * s;
    }
    i += run;
    o += run;
  }
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc) {
  ZERO_CHECK(lda >= (trans_a ? m : k) && ldb >= (trans_b ? k : n) &&
                 ldc >= n,
             "Gemm leading dimension shorter than its row");
  PackedGemm(trans_a, m, n, k, alpha, a, lda,
             [&](std::int64_t jc, std::int64_t nc, std::int64_t pc,
                 std::int64_t kc, float* pb) {
               PackB(b, ldb, trans_b, pc, kc, jc, nc, pb);
             },
             beta, c, ldc);
}

void GemmQuantWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                      float alpha, const float* a, const std::int8_t* codes,
                      const float* scales, std::int64_t qblock, float beta,
                      float* c) {
  PackedGemm(
      false, m, n, k, alpha, a, k,
      // Panel column j is weight row jc + j, whose k-range [pc, pc+kc) is
      // contiguous in W: decoded in one call, then scattered into the
      // kNr-interleaved panel.
      [&](std::int64_t jc, std::int64_t nc, std::int64_t pc, std::int64_t kc,
          float* pb) {
        float tmp[kKc];
        const std::int64_t panels = (nc + kNr - 1) / kNr;
        for (std::int64_t p = 0; p < panels; ++p) {
          float* dp = pb + p * kc * kNr;
          const std::int64_t cbase = jc + p * kNr;
          const std::int64_t cvalid =
              std::min<std::int64_t>(kNr, jc + nc - cbase);
          for (std::int64_t j = 0; j < cvalid; ++j) {
            DecodeQuant(codes, scales, qblock, (cbase + j) * k + pc, kc, tmp);
            for (std::int64_t kk = 0; kk < kc; ++kk) dp[kk * kNr + j] = tmp[kk];
          }
          for (std::int64_t j = cvalid; j < kNr; ++j) {
            for (std::int64_t kk = 0; kk < kc; ++kk) dp[kk * kNr + j] = 0.0f;
          }
        }
      },
      beta, c, n);
}

std::int64_t HalfPanelElems(std::int64_t n, std::int64_t k) {
  return ForEachBTile(n, k,
                      [](std::int64_t, std::int64_t, std::int64_t,
                         std::int64_t, std::int64_t) {});
}

void PackHalfPanelsT(const float* w, std::int64_t n, std::int64_t k,
                     Half* dst) {
  // Encode every row with the bulk round-to-nearest-even converter, then
  // scatter once into panel slots — load-time only, so clarity beats
  // cleverness here.
  std::vector<Half> rows(static_cast<std::size_t>(n * k));
  FloatToHalf(w, rows.data(), rows.size());
  ForEachBTile(n, k, [&](std::int64_t jc, std::int64_t nc, std::int64_t pc,
                         std::int64_t kc, std::int64_t base) {
    const std::int64_t panels = (nc + kNr - 1) / kNr;
    for (std::int64_t p = 0; p < panels; ++p) {
      Half* dp = dst + base + p * kc * kNr;
      const std::int64_t cbase = jc + p * kNr;
      const std::int64_t cvalid = std::min<std::int64_t>(kNr, jc + nc - cbase);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        Half* drow = dp + kk * kNr;
        for (std::int64_t j = 0; j < cvalid; ++j) {
          drow[j] = rows[static_cast<std::size_t>((cbase + j) * k + pc + kk)];
        }
        for (std::int64_t j = cvalid; j < kNr; ++j) {
          drow[j] = Half::FromBits(0);
        }
      }
    }
  });
}

void DecodeHalfPanelRow(const Half* panels, std::int64_t n, std::int64_t k,
                        std::int64_t row, float* dst) {
  const float* lut = HalfDecodeTable();
  ForEachBTile(n, k, [&](std::int64_t jc, std::int64_t nc, std::int64_t pc,
                         std::int64_t kc, std::int64_t base) {
    if (row < jc || row >= jc + nc) return;
    const std::int64_t p = (row - jc) / kNr;
    const std::int64_t j = (row - jc) % kNr;
    const Half* dp = panels + base + p * kc * kNr + j;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      dst[pc + kk] = lut[dp[kk * kNr].bits()];
    }
  });
}

void GemmHalfPanelsT(std::int64_t m, std::int64_t n, std::int64_t k,
                     float alpha, const float* a, const Half* panels,
                     float beta, float* c) {
  // The pre-packed tiles are PackB's layout (padded lanes stored as fp16
  // zero): the micro-kernel reads them in place and widens each B load in
  // registers, so no fp32 B tile exists.
  PackedGemm(false, m, n, k, alpha, a, k, panels, beta, c, n);
}

void AddBiasRows(float* x, const float* bias, std::int64_t rows,
                 std::int64_t cols) {
  ParallelFor(0, rows, RowGrain(cols), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      float* xr = x + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) xr[c] += bias[c];
    }
  });
}

void BiasGradFromRows(const float* dy, float* dbias, std::int64_t rows,
                      std::int64_t cols) {
  const std::int64_t nchunks = (rows + kRowChunk - 1) / kRowChunk;
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  float* partials =
      scratch.AllocateT<float>(static_cast<std::size_t>(nchunks * cols));
  ParallelFor(0, nchunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      float* p = partials + ch * cols;
      std::memset(p, 0, static_cast<std::size_t>(cols) * sizeof(float));
      const std::int64_t r1 = std::min(rows, (ch + 1) * kRowChunk);
      for (std::int64_t r = ch * kRowChunk; r < r1; ++r) {
        const float* dyr = dy + r * cols;
        for (std::int64_t c = 0; c < cols; ++c) p[c] += dyr[c];
      }
    }
  });
  for (std::int64_t ch = 0; ch < nchunks; ++ch) {
    const float* p = partials + ch * cols;
    for (std::int64_t c = 0; c < cols; ++c) dbias[c] += p[c];
  }
}

namespace {
using detail::ExpF;

// tanh-approximation GELU, the variant GPT-2 uses:
//   0.5 v (1 + tanh u) = v * sigmoid(2u),  u = c (v + a v^3).
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

// s = sigmoid(2u), from the shared argument -2u.
inline float GeluSigmoid(float v) {
  const float m2u = (-2.0f * kGeluC) * std::fma(kGeluA * v * v, v, v);
  return 1.0f / (1.0f + ExpF(m2u));
}

inline float GeluVal(float v) { return v * GeluSigmoid(v); }

// d/dv [v s] = s + 2 v s (1 - s) du,  du = c (1 + 3 a v^2).
inline float GeluGrad(float v) {
  const float s = GeluSigmoid(v);
  const float du = kGeluC * std::fma((3.0f * kGeluA) * v, v, 1.0f);
  return std::fma(2.0f * v * s * (1.0f - s), du, s);
}
}  // namespace

void BiasGeluForward(const float* x, const float* bias, float* z, float* y,
                     std::int64_t rows, std::int64_t cols) {
  ParallelFor(0, rows, RowGrain(cols), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * cols;
      float* zr = z + r * cols;
      float* yr = y + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) {
        const float v = xr[c] + bias[c];
        zr[c] = v;
        yr[c] = GeluVal(v);
      }
    }
  });
}

void BiasGeluBackward(const float* z, const float* dy, float* dx,
                      float* dbias, std::int64_t rows, std::int64_t cols) {
  const std::int64_t nchunks = (rows + kRowChunk - 1) / kRowChunk;
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  float* partials =
      scratch.AllocateT<float>(static_cast<std::size_t>(nchunks * cols));
  ParallelFor(0, nchunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      float* p = partials + ch * cols;
      std::memset(p, 0, static_cast<std::size_t>(cols) * sizeof(float));
      const std::int64_t r1 = std::min(rows, (ch + 1) * kRowChunk);
      for (std::int64_t r = ch * kRowChunk; r < r1; ++r) {
        const float* zr = z + r * cols;
        const float* dyr = dy + r * cols;
        float* dxr = dx + r * cols;
        for (std::int64_t c = 0; c < cols; ++c) {
          const float g = dyr[c] * GeluGrad(zr[c]);
          dxr[c] = g;
          p[c] += g;
        }
      }
    }
  });
  for (std::int64_t ch = 0; ch < nchunks; ++ch) {
    const float* p = partials + ch * cols;
    for (std::int64_t c = 0; c < cols; ++c) dbias[c] += p[c];
  }
}

void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float* y, float* mean, float* rstd, std::int64_t rows,
                      std::int64_t cols, float eps) {
  ParallelFor(0, rows, RowGrain(cols), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * cols;
      float mu = 0.0f;
      for (std::int64_t c = 0; c < cols; ++c) mu += xr[c];
      mu /= static_cast<float>(cols);
      float var = 0.0f;
      for (std::int64_t c = 0; c < cols; ++c) {
        const float d = xr[c] - mu;
        var += d * d;
      }
      var /= static_cast<float>(cols);
      const float rs = 1.0f / std::sqrt(var + eps);
      mean[r] = mu;
      rstd[r] = rs;
      float* yr = y + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) {
        yr[c] = (xr[c] - mu) * rs * gamma[c] + beta[c];
      }
    }
  });
}

void LayerNormBackward(const float* x, const float* gamma, const float* mean,
                       const float* rstd, const float* dy, float* dx,
                       float* dgamma, float* dbeta, std::int64_t rows,
                       std::int64_t cols) {
  const std::int64_t nchunks = (rows + kRowChunk - 1) / kRowChunk;
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  // Per-chunk [dgamma; dbeta] partials, combined in chunk order below.
  float* partials =
      scratch.AllocateT<float>(static_cast<std::size_t>(nchunks * 2 * cols));
  ParallelFor(0, nchunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      float* pg = partials + ch * 2 * cols;
      float* pb = pg + cols;
      std::memset(pg, 0, static_cast<std::size_t>(2 * cols) * sizeof(float));
      const std::int64_t r1 = std::min(rows, (ch + 1) * kRowChunk);
      for (std::int64_t r = ch * kRowChunk; r < r1; ++r) {
        const float* xr = x + r * cols;
        const float* dyr = dy + r * cols;
        float* dxr = dx + r * cols;
        const float mu = mean[r];
        const float rs = rstd[r];

        float sum_dy_g = 0.0f;   // sum of dy * gamma
        float sum_dy_gx = 0.0f;  // sum of dy * gamma * xhat
        for (std::int64_t c = 0; c < cols; ++c) {
          const float xhat = (xr[c] - mu) * rs;
          const float g = dyr[c] * gamma[c];
          sum_dy_g += g;
          sum_dy_gx += g * xhat;
          pg[c] += dyr[c] * xhat;
          pb[c] += dyr[c];
        }
        const float inv_cols = 1.0f / static_cast<float>(cols);
        for (std::int64_t c = 0; c < cols; ++c) {
          const float xhat = (xr[c] - mu) * rs;
          const float g = dyr[c] * gamma[c];
          dxr[c] = rs * (g - inv_cols * (sum_dy_g + xhat * sum_dy_gx));
        }
      }
    }
  });
  for (std::int64_t ch = 0; ch < nchunks; ++ch) {
    const float* pg = partials + ch * 2 * cols;
    const float* pb = pg + cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      dgamma[c] += pg[c];
      dbeta[c] += pb[c];
    }
  }
}

namespace {
// One row, in place — shared by the softmax entry points so the causal
// kernel can fuse masking without a nested parallel call.
inline void SoftmaxRow(float* xr, std::int64_t cols) {
  // The row max runs in kLanes independent std::max chains folded at the
  // end, so it is not one serial chain of max latencies. The order does
  // not matter here: every chain starts at -inf, so std::max skips NaNs
  // as the serial fold does, and a +0/-0 tie changes only the sign of a
  // zero max, which no ExpF(x - mx) below can see.
  constexpr std::int64_t kLanes = 16;
  float lane[kLanes];
  std::fill_n(lane, kLanes, -std::numeric_limits<float>::infinity());
  std::int64_t c0 = 0;
  for (; c0 + kLanes <= cols; c0 += kLanes) {
    for (std::int64_t l = 0; l < kLanes; ++l) {
      lane[l] = std::max(lane[l], xr[c0 + l]);
    }
  }
  for (std::int64_t l = 0; c0 + l < cols; ++l) {
    lane[l] = std::max(lane[l], xr[c0 + l]);
  }
  float mx = lane[0];
  for (std::int64_t l = 1; l < kLanes; ++l) mx = std::max(mx, lane[l]);
  // The exp loop vectorizes; the sum stays a separate serial loop so its
  // order (and bits) do not depend on the vector width.
  for (std::int64_t c = 0; c < cols; ++c) xr[c] = ExpF(xr[c] - mx);
  float sum = 0.0f;
  for (std::int64_t c = 0; c < cols; ++c) sum += xr[c];
  const float inv = 1.0f / sum;
  for (std::int64_t c = 0; c < cols; ++c) xr[c] *= inv;
}
}  // namespace

void SoftmaxRows(float* x, std::int64_t rows, std::int64_t cols) {
  ParallelFor(0, rows, RowGrain(cols), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) SoftmaxRow(x + r * cols, cols);
  });
}

void SoftmaxBackwardRows(const float* y, const float* dy, float* dx,
                         std::int64_t rows, std::int64_t cols) {
  ParallelFor(0, rows, RowGrain(cols), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* yr = y + r * cols;
      const float* dyr = dy + r * cols;
      float* dxr = dx + r * cols;
      float dot = 0.0f;
      for (std::int64_t c = 0; c < cols; ++c) dot += yr[c] * dyr[c];
      for (std::int64_t c = 0; c < cols; ++c) {
        dxr[c] = yr[c] * (dyr[c] - dot);
      }
    }
  });
}

void CausalMaskedSoftmax(float* scores, std::int64_t batch_heads,
                         std::int64_t q_len, std::int64_t k_len) {
  ZERO_CHECK(k_len >= q_len, "causal mask assumes k_len >= q_len");
  const std::int64_t offset = k_len - q_len;
  ParallelFor(0, batch_heads * q_len, RowGrain(k_len),
              [&](std::int64_t r0, std::int64_t r1) {
                for (std::int64_t r = r0; r < r1; ++r) {
                  const std::int64_t i = r % q_len;
                  float* row = scores + r * k_len;
                  for (std::int64_t j = offset + i + 1; j < k_len; ++j) {
                    row[j] = -std::numeric_limits<float>::infinity();
                  }
                  SoftmaxRow(row, k_len);
                }
              });
}

float CrossEntropyLoss(const float* logits, const std::int32_t* targets,
                       std::int64_t rows, std::int64_t vocab, float* dlogits) {
  const std::int64_t nchunks = (rows + kCeRowChunk - 1) / kCeRowChunk;
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  double* partials =
      scratch.AllocateT<double>(static_cast<std::size_t>(nchunks));
  const float inv_rows = 1.0f / static_cast<float>(rows);
  ParallelFor(0, nchunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    // Probability rows live in the executing thread's scratch, not a
    // per-call heap vector (this runs rows x per step at vocab size).
    alloc::ScratchArena& task_scratch = alloc::ThreadScratch();
    alloc::ScratchGuard task_guard(task_scratch);
    float* probs =
        task_scratch.AllocateT<float>(static_cast<std::size_t>(vocab));
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      double total = 0.0;
      const std::int64_t r1 = std::min(rows, (ch + 1) * kCeRowChunk);
      for (std::int64_t r = ch * kCeRowChunk; r < r1; ++r) {
        const float* lr = logits + r * vocab;
        float mx = -std::numeric_limits<float>::infinity();
        for (std::int64_t c = 0; c < vocab; ++c) mx = std::max(mx, lr[c]);
        double sum = 0.0;
        for (std::int64_t c = 0; c < vocab; ++c) {
          probs[c] = std::exp(lr[c] - mx);
          sum += probs[c];
        }
        const std::int32_t t = targets[r];
        ZERO_CHECK(t >= 0 && t < vocab, "target out of vocab range");
        const double pt = static_cast<double>(probs[t]) / sum;
        total += -std::log(std::max(pt, 1e-30));
        if (dlogits != nullptr) {
          float* dr = dlogits + r * vocab;
          const float inv_sum = static_cast<float>(1.0 / sum);
          for (std::int64_t c = 0; c < vocab; ++c) {
            dr[c] = probs[c] * inv_sum * inv_rows;
          }
          dr[t] -= inv_rows;
        }
      }
      partials[ch] = total;
    }
  });
  double total = 0.0;
  for (std::int64_t ch = 0; ch < nchunks; ++ch) total += partials[ch];
  return static_cast<float>(total / static_cast<double>(rows));
}

void Axpy(float a, const float* x, float* y, std::int64_t n) {
  ParallelFor(0, n, kElemChunk, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) y[i] += a * x[i];
  });
}

void Scale(float* x, float a, std::int64_t n) {
  ParallelFor(0, n, kElemChunk, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) x[i] *= a;
  });
}

namespace {
// Shared shape of the deterministic scalar reductions: fixed kRedChunk
// element chunks accumulate in double, partials combine in chunk order.
template <typename ChunkFn>
float ChunkedReduce(std::int64_t n, const ChunkFn& chunk_fn) {
  const std::int64_t nchunks = (n + kRedChunk - 1) / kRedChunk;
  if (nchunks <= 0) return 0.0f;
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  double* partials =
      scratch.AllocateT<double>(static_cast<std::size_t>(nchunks));
  ParallelFor(0, nchunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      partials[ch] =
          chunk_fn(ch * kRedChunk, std::min(n, (ch + 1) * kRedChunk));
    }
  });
  double acc = 0.0;
  for (std::int64_t ch = 0; ch < nchunks; ++ch) acc += partials[ch];
  return static_cast<float>(acc);
}
}  // namespace

float SquaredNorm(const float* x, std::int64_t n) {
  return ChunkedReduce(n, [&](std::int64_t b, std::int64_t e) {
    double acc = 0.0;
    for (std::int64_t i = b; i < e; ++i) {
      acc += static_cast<double>(x[i]) * x[i];
    }
    return acc;
  });
}

float SquaredNormF16(const Half* x, std::int64_t n) {
  const float* lut = HalfDecodeTable();
  return ChunkedReduce(n, [&](std::int64_t b, std::int64_t e) {
    double acc = 0.0;
    for (std::int64_t i = b; i < e; ++i) {
      const double v = lut[x[i].bits()];
      acc += v * v;
    }
    return acc;
  });
}

void CastHalfToFloat(const Half* src, float* dst, std::int64_t n) {
  ParallelFor(0, n, kElemChunk, [&](std::int64_t b, std::int64_t e) {
    HalfToFloat(src + b, dst + b, static_cast<std::size_t>(e - b));
  });
}

void CastFloatToHalf(const float* src, Half* dst, std::int64_t n) {
  ParallelFor(0, n, kElemChunk, [&](std::int64_t b, std::int64_t e) {
    FloatToHalf(src + b, dst + b, static_cast<std::size_t>(e - b));
  });
}

}  // namespace zero::tensor
