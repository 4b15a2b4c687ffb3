// Serving regression tests: trainer checkpoints (v1 and v2 headers) load
// into the InferenceEngine, and incremental greedy decode produces
// logits bit-exact with the trainer's eval forward on the same weights —
// at mp=1 and MP-sharded mp=2 (each degree against its own eval forward;
// different degrees split reductions differently and are not comparable
// bitwise). "Bit-exact" is memcmp, not a tolerance: the GEMM contract
// (DESIGN.md §9) makes a logit's bits independent of how many rows and
// cached positions the call that produced it covered.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/world.hpp"
#include "core/state_checkpoint.hpp"
#include "core/trainer.hpp"
#include "model/flat_model.hpp"
#include "serve/server.hpp"
#include "serve/traffic_gen.hpp"

namespace zero::serve {
namespace {

model::GptConfig TestConfig() {
  model::GptConfig c;
  c.vocab = 64;
  c.seq = 16;
  c.hidden = 16;
  c.layers = 2;
  c.heads = 2;
  return c;
}

// Wider heads than TestConfig, and a context reduction over seq = 160
// that spans two k panels.
model::GptConfig WideConfig() {
  model::GptConfig c = TestConfig();
  c.seq = 160;
  c.hidden = 64;
  c.heads = 4;
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

core::TrainingState StateFromWeights(std::vector<float> full) {
  core::TrainingState s;
  s.total_numel = static_cast<std::int64_t>(full.size());
  s.step_count = 3;
  s.loss_scale = 1024.0f;
  s.momentum.assign(full.size(), 0.0f);
  s.variance.assign(full.size(), 0.0f);
  s.master = std::move(full);
  return s;
}

InferenceOptions TestOptions(const model::GptConfig& cfg = TestConfig()) {
  InferenceOptions o;
  o.model = cfg;
  o.kv_block_tokens = 4;
  o.kv_max_blocks = 64;
  o.record_metrics = false;
  return o;
}

const std::vector<std::int32_t> kPrompt = {5, 17, 3, 42, 8, 1, 33, 20};

struct DecodeCase {
  const char* name;
  model::GptConfig cfg;
  std::vector<std::int32_t> prompt;
};

// Every bit-exact test runs each case. The 130-token prompt carries the
// cached prefix past one 128-wide k panel as well.
std::vector<DecodeCase> Cases() {
  std::vector<std::int32_t> long_prompt(130);
  for (std::size_t i = 0; i < long_prompt.size(); ++i) {
    long_prompt[i] = static_cast<std::int32_t>((i * 37 + 5) % 64);
  }
  return {{"h16 seq16", TestConfig(), kPrompt},
          {"h64 seq160", WideConfig(), kPrompt},
          {"h64 seq160 long prompt", WideConfig(), long_prompt}};
}

// Greedy-decodes `steps` tokens after `prompt`, returning the logits row
// of every sampled position (prompt end + each generated token).
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

// Eval-forward reference for the same greedy rollout: logits row t of a
// full forward depends only on tokens 0..t, so padding the tail with
// zeros and reading row (prefix-1) gives the trainer-side answer.
std::vector<std::vector<float>> EvalLogits(
    const model::GptConfig& cfg, std::span<const float> full,
    const std::vector<std::int32_t>& prompt, int steps,
    model::GptSession session = {}) {
  model::GptModel ref(cfg, session);
  std::vector<float> local(
      static_cast<std::size_t>(ref.layout().total_numel()));
  ref.ImportFullParams(full, local);
  model::DirectParamProvider prov(ref.layout(), local);
  std::vector<std::int32_t> ids(static_cast<std::size_t>(cfg.seq), 0);
  std::copy(prompt.begin(), prompt.end(), ids.begin());
  std::size_t filled = prompt.size();

  std::vector<std::vector<float>> rows;
  std::vector<float> logits(
      static_cast<std::size_t>(cfg.seq * cfg.vocab));
  for (int s = 0; s < steps; ++s) {
    model::Batch batch;
    batch.rows = 1;
    batch.cols = cfg.seq;
    batch.inputs = ids;
    ref.EvalForwardLogits(batch, prov, logits);
    const float* row = logits.data() + (filled - 1) * cfg.vocab;
    rows.emplace_back(row, row + cfg.vocab);
    std::int32_t best = 0;
    for (std::int64_t t = 1; t < cfg.vocab; ++t) {
      if (row[t] > row[best]) best = static_cast<std::int32_t>(t);
    }
    if (filled < ids.size()) ids[filled] = best;
    ++filled;
  }
  return rows;
}

void ExpectBitExact(const std::vector<std::vector<float>>& a,
                    const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(),
                          a[i].size() * sizeof(float)),
              0)
        << "logits diverge at sampled position " << i;
  }
}

TEST(EngineDecode, V2CheckpointGreedyDecodeBitExactVsEvalForward) {
  for (const DecodeCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    const std::vector<float> full = FullWeights(c.cfg, 0xC0FFEE);
    const std::string path = "/tmp/zero_serve_ckpt_v2.bin";
    StateFromWeights(full).SaveToFile(path);

    InferenceEngine eng(TestOptions(c.cfg), {});
    eng.LoadCheckpointFile(path);
    // 8 sampled positions: prompt end + 7 generated continuations.
    ExpectBitExact(DecodeLogits(eng, c.prompt, 8),
                   EvalLogits(c.cfg, full, c.prompt, 8));
    std::remove(path.c_str());
  }
}

TEST(EngineDecode, V1HeaderCheckpointLoads) {
  for (const DecodeCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    const std::vector<float> full = FullWeights(c.cfg, 0xBEEF);
    std::vector<std::byte> bytes = StateFromWeights(full).Serialize();
    // Rewrite as a v1 checkpoint: version u32 at offset 8 becomes 1 and
    // the header shrinks from 64 to 40 bytes (the scaler fields go away).
    const std::uint32_t v1 = 1;
    std::memcpy(bytes.data() + 8, &v1, sizeof(v1));
    bytes.erase(bytes.begin() + 40, bytes.begin() + 64);
    const std::string path = "/tmp/zero_serve_ckpt_v1.bin";
    {
      std::ofstream f(path, std::ios::binary);
      f.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    }

    InferenceEngine eng(TestOptions(c.cfg), {});
    eng.LoadCheckpointFile(path);
    ExpectBitExact(DecodeLogits(eng, c.prompt, 4),
                   EvalLogits(c.cfg, full, c.prompt, 4));
    std::remove(path.c_str());
  }
}

TEST(EngineDecode, TrainerWrittenCheckpointServesBitExact) {
  for (const DecodeCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    core::TrainOptions opt;
    opt.model = c.cfg;
    opt.engine.stage = model::ZeroStage::kOsG;
    opt.engine.checkpoint_every_n_steps = 2;
    opt.engine.checkpoint_path = "/tmp/zero_serve_trained.bin";
    opt.cluster.dp_degree = 2;
    opt.cluster.mp_degree = 1;
    opt.batch_per_rank = 2;
    opt.steps = 2;
    const core::TrainResult result = core::TrainGpt(opt);
    ASSERT_FALSE(result.oom);
    ASSERT_FALSE(result.failed);

    const core::TrainingState state =
        core::TrainingState::LoadFromFile(opt.engine.checkpoint_path);
    InferenceEngine eng(TestOptions(c.cfg), {});
    eng.LoadState(state);
    ExpectBitExact(DecodeLogits(eng, c.prompt, 4),
                   EvalLogits(c.cfg, state.master, c.prompt, 4));
    std::remove(opt.engine.checkpoint_path.c_str());
  }
}

TEST(EngineDecode, MpShardedDecodeBitExactVsMpEvalForward) {
  for (const DecodeCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    const std::vector<float> full = FullWeights(c.cfg, 0xFACADE);
    const std::string path = "/tmp/zero_serve_ckpt_mp.bin";
    StateFromWeights(full).SaveToFile(path);

    comm::World world(2);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator mp = comm::Communicator::WholeWorld(ctx);
      model::GptSession session;
      session.mp = &mp;
      InferenceEngine eng(TestOptions(c.cfg), session);
      eng.LoadCheckpointFile(path);
      // Every rank's MP-sharded decode must reproduce the MP-sharded
      // eval forward bitwise (greedy sampling reads replicated,
      // all-reduced logits, so the ranks roll out the same tokens in
      // lockstep).
      ExpectBitExact(DecodeLogits(eng, c.prompt, 6),
                     EvalLogits(c.cfg, full, c.prompt, 6, session));
    });
    std::remove(path.c_str());
  }
}

TEST(EngineDecode, ContinuousBatchingMatchesIsolatedDecode) {
  const model::GptConfig cfg = TestConfig();
  const std::vector<float> full = FullWeights(cfg, 0xD15EA5E);

  InferenceOptions opts = TestOptions();
  opts.kv_max_blocks = 6;  // tight pool: forces eviction round-trips
  InferenceEngine eng(opts, {});
  eng.LoadFullWeights(full);

  TrafficConfig tc;
  tc.qps = 2000.0;
  tc.duration_s = 0.01;
  tc.tenants = 2;
  tc.prompt_min = 2;
  tc.prompt_max = 6;
  tc.out_min = 1;
  tc.out_max = 4;
  tc.vocab = cfg.vocab;
  tc.seed = 31;
  const auto traffic = GenerateOpenLoopTraffic(tc);
  ASSERT_GT(traffic.size(), 8u);

  ServeOptions so;
  so.scheduler.max_running = 4;
  so.scheduler.max_step_tokens = 16;
  so.scheduler.max_seq = cfg.seq;
  so.scheduler.record_metrics = false;
  so.admission.record_metrics = false;
  const ServeSummary sum = ServeLoop(eng, traffic, so);
  EXPECT_EQ(sum.completed, static_cast<std::int64_t>(traffic.size()));

  // Every batched, possibly-evicted result equals an isolated greedy
  // decode of the same prompt on a fresh engine.
  InferenceEngine solo(TestOptions(), {});
  solo.LoadFullWeights(full);
  for (const RequestOutcome& o : sum.outcomes) {
    ASSERT_TRUE(o.completed);
    const ServeRequest& r = traffic[o.id];
    const auto rows =
        DecodeLogits(solo, r.prompt, static_cast<int>(o.output.size()));
    for (std::size_t s = 0; s < o.output.size(); ++s) {
      std::int32_t best = 0;
      for (std::int64_t t = 1; t < cfg.vocab; ++t) {
        if (rows[s][static_cast<std::size_t>(t)] >
            rows[s][static_cast<std::size_t>(best)]) {
          best = static_cast<std::int32_t>(t);
        }
      }
      EXPECT_EQ(o.output[s], best)
          << "request " << o.id << " diverged at token " << s;
    }
  }
}

}  // namespace
}  // namespace zero::serve
