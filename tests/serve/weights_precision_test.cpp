// Reduced-precision serving weights behind the dispatched GEMM backend:
// the fp32 backend must stay memcmp-bit-exact with the trainer's eval
// forward (engine_decode_test pins that), while fp16 and int8
// must greedy-decode the identical token sequence with a bounded
// max-logit deviation from fp32 — at mp=1 and MP-sharded mp=2.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/world.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "model/flat_model.hpp"

namespace zero::serve {
namespace {

model::GptConfig TestConfig() {
  model::GptConfig c;
  c.vocab = 64;
  c.seq = 16;
  // hidden = 32 keeps every projection's n-dimension a multiple of the
  // GEMM panel width at mp=1, so the fp16 panel pre-pack adds no
  // padding and the weight_bytes ratio below stays a clean ~0.5x.
  c.hidden = 32;
  c.layers = 2;
  c.heads = 2;
  return c;
}

std::vector<float> FullWeights(const model::GptConfig& cfg,
                               std::uint64_t seed) {
  model::GptModel m(cfg, {});
  std::vector<float> full(
      static_cast<std::size_t>(m.layout().total_numel()), 0.0f);
  m.InitParameters(full, seed);
  return full;
}

InferenceOptions TestOptions(const std::string& weights,
                             const model::GptConfig& cfg = TestConfig()) {
  InferenceOptions o;
  o.model = cfg;
  o.kv_block_tokens = 4;
  o.kv_max_blocks = 64;
  o.record_metrics = false;
  o.weights = weights;
  return o;
}

const std::vector<std::int32_t> kPrompt = {5, 17, 3, 42, 8, 1, 33, 20};

// Greedy rollout returning the logits row at every sampled position.
std::vector<std::vector<float>> DecodeLogits(
    InferenceEngine& eng, const std::vector<std::int32_t>& prompt,
    int steps) {
  const std::int64_t v = eng.options().model.vocab;
  const std::int32_t slot = eng.kv().AllocSlot();
  EXPECT_TRUE(eng.kv().EnsureCapacity(
      slot, static_cast<std::int64_t>(prompt.size()) + steps));

  std::vector<std::vector<float>> rows;
  std::vector<model::DecodeToken> toks;
  for (std::size_t i = 0; i < prompt.size(); ++i) {
    toks.push_back({prompt[i], slot, static_cast<std::int64_t>(i)});
  }
  std::vector<float> logits(static_cast<std::size_t>(v));
  std::int64_t pos = static_cast<std::int64_t>(prompt.size());
  for (int s = 0; s < steps; ++s) {
    EXPECT_EQ(eng.Decode(toks, logits), 1);
    rows.push_back(logits);
    std::int32_t best = 0;
    for (std::int64_t t = 1; t < v; ++t) {
      if (logits[static_cast<std::size_t>(t)] >
          logits[static_cast<std::size_t>(best)]) {
        best = static_cast<std::int32_t>(t);
      }
    }
    toks.assign(1, {best, slot, pos});
    ++pos;
  }
  eng.kv().FreeSlot(slot);
  return rows;
}

std::int32_t Argmax(const std::vector<float>& row) {
  std::int32_t best = 0;
  for (std::size_t t = 1; t < row.size(); ++t) {
    if (row[t] > row[static_cast<std::size_t>(best)]) {
      best = static_cast<std::int32_t>(t);
    }
  }
  return best;
}

// Greedy tokens must match exactly; logits may deviate up to `bound`.
void ExpectGreedyEquivalent(const std::vector<std::vector<float>>& ref,
                            const std::vector<std::vector<float>>& got,
                            double bound) {
  ASSERT_EQ(ref.size(), got.size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].size(), got[i].size());
    EXPECT_EQ(Argmax(ref[i]), Argmax(got[i]))
        << "greedy token diverges at sampled position " << i;
    for (std::size_t t = 0; t < ref[i].size(); ++t) {
      max_err = std::max(
          max_err, static_cast<double>(std::fabs(ref[i][t] - got[i][t])));
    }
  }
  EXPECT_LE(max_err, bound);
}

TEST(WeightsPrecision, Fp32BackendStaysMemcmpBitExact) {
  const model::GptConfig cfg = TestConfig();
  const std::vector<float> full = FullWeights(cfg, 0x715EC0);

  InferenceEngine ref(TestOptions("fp32"), {});
  ref.LoadFullWeights(full);
  // A second fp32 engine built from the same floats: packing is a
  // passthrough, so the rollouts must be identical bitwise.
  InferenceEngine dup(TestOptions("fp32"), {});
  dup.LoadFullWeights(full);
  const auto a = DecodeLogits(ref, kPrompt, 6);
  const auto b = DecodeLogits(dup, kPrompt, 6);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(),
                          a[i].size() * sizeof(float)),
              0);
  }
  // The passthrough encoding holds every float (plus entry alignment).
  EXPECT_GE(ref.weights().weight_bytes(), full.size() * sizeof(float));
}

TEST(WeightsPrecision, Fp16GreedyEquivalentWithBoundedLogitError) {
  const std::vector<float> full = FullWeights(TestConfig(), 0x715EC0);
  InferenceEngine e32(TestOptions("fp32"), {});
  e32.LoadFullWeights(full);
  InferenceEngine e16(TestOptions("fp16"), {});
  e16.LoadFullWeights(full);
  ExpectGreedyEquivalent(DecodeLogits(e32, kPrompt, 8),
                         DecodeLogits(e16, kPrompt, 8), 0.05);
  // Half the weight storage (vector entries stay fp32).
  EXPECT_LT(e16.weights().weight_bytes(),
            static_cast<std::size_t>(
                0.6 * static_cast<double>(e32.weights().weight_bytes())));
}

// The fp16 engine reads every matrix entry as its fp16 rounding, through
// the same GEMM chain as fp32: its per-step logits are bitwise those of
// an fp32 engine loaded with the matrix entries pre-rounded to fp16, at
// hidden 32 and at hidden 512 (the serving benchmark's width). At both,
// the micro-kernel widens the fp16 panels in registers.
TEST(WeightsPrecision, Fp16LogitsMemcmpFp32OnPreRoundedWeights) {
  for (const std::int64_t hidden : {32, 512}) {
    model::GptConfig cfg = TestConfig();
    cfg.hidden = hidden;
    cfg.heads = hidden == 32 ? 2 : 8;
    const std::vector<float> full = FullWeights(cfg, 0x715EC0);
    std::vector<float> rounded = full;
    const model::GptModel layout_model(cfg, {});
    for (const model::ParamEntry& e : layout_model.layout().entries()) {
      if (e.rows == 0) continue;
      for (std::int64_t i = e.offset; i < e.offset + e.numel; ++i) {
        float& x = rounded[static_cast<std::size_t>(i)];
        x = Half(x).ToFloat();
      }
    }
    InferenceEngine e32(TestOptions("fp32", cfg), {});
    e32.LoadFullWeights(rounded);
    InferenceEngine e16(TestOptions("fp16", cfg), {});
    e16.LoadFullWeights(full);
    const auto want = DecodeLogits(e32, kPrompt, 6);
    const auto got = DecodeLogits(e16, kPrompt, 6);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(std::memcmp(want[i].data(), got[i].data(),
                            want[i].size() * sizeof(float)),
                0)
          << "hidden " << hidden << " step " << i;
    }
  }
}

TEST(WeightsPrecision, Int8GreedyEquivalentWithBoundedLogitError) {
  const std::vector<float> full = FullWeights(TestConfig(), 0x715EC0);
  InferenceEngine e32(TestOptions("fp32"), {});
  e32.LoadFullWeights(full);
  InferenceEngine e8(TestOptions("int8"), {});
  e8.LoadFullWeights(full);
  ExpectGreedyEquivalent(DecodeLogits(e32, kPrompt, 8),
                         DecodeLogits(e8, kPrompt, 8), 0.5);
  EXPECT_LT(e8.weights().weight_bytes(),
            static_cast<std::size_t>(
                0.4 * static_cast<double>(e32.weights().weight_bytes())));
}

TEST(WeightsPrecision, UnknownBackendNameFailsAtLoad) {
  const std::vector<float> full = FullWeights(TestConfig(), 1);
  InferenceEngine eng(TestOptions("fp12"), {});
  EXPECT_THROW(eng.LoadFullWeights(full), Error);
}

TEST(WeightsPrecision, MpShardedReducedPrecisionGreedyEquivalent) {
  const model::GptConfig cfg = TestConfig();
  const std::vector<float> full = FullWeights(cfg, 0xFEED5);

  comm::World world(2);
  world.Run([&](comm::RankContext& ctx) {
    comm::Communicator mp = comm::Communicator::WholeWorld(ctx);
    model::GptSession session;
    session.mp = &mp;
    // Each precision's MP engine all-reduces replicated logits, so both
    // ranks see identical rows; compare fp16/int8 against fp32 within
    // the rank.
    InferenceEngine e32(TestOptions("fp32"), session);
    e32.LoadFullWeights(full);
    const auto ref = DecodeLogits(e32, kPrompt, 6);

    InferenceEngine e16(TestOptions("fp16"), session);
    e16.LoadFullWeights(full);
    ExpectGreedyEquivalent(ref, DecodeLogits(e16, kPrompt, 6), 0.05);

    InferenceEngine e8(TestOptions("int8"), session);
    e8.LoadFullWeights(full);
    ExpectGreedyEquivalent(ref, DecodeLogits(e8, kPrompt, 6), 0.5);
  });
}

}  // namespace
}  // namespace zero::serve
