// Serving load bench: continuous batching vs batch-of-1 on the same
// trainer checkpoint, under seeded overload traffic — plus two serving
// perf dimensions layered on top:
//
//   weight precision — the same full weights packed as fp32 / fp16 /
//     blockwise-int8 behind the dispatched GEMM backend, measured as
//     wall-clock decode throughput on a weight-bandwidth-bound model
//     (hidden 512, 4 layers: the per-step weight stream dwarfs the
//     activation traffic, so halving weight bytes must show up on the
//     clock);
//   prefix sharing — identical shared-prefix traffic served cold vs
//     with the copy-on-write prefix cache on; adopted KV positions are
//     prefill work that never runs, and the counts are deterministic.
//
// The base comparison:
//
//   continuous — iteration-level batching: up to kMaxRunning sequences
//     share every forward, prefills pack next to decode tokens;
//   batch-of-1 — max_running = 1: one sequence occupies the engine
//     end-to-end, the classic request-level serving baseline.
//
// The serve loop runs on a deterministic virtual clock (step cost =
// base + per_token * packed), so the gated metric — saturation decode
// throughput, tokens per virtual second — is a pure function of the
// traffic seed and the config, reproducible on any machine. Wall time
// is also measured, informationally. Latency percentiles (TTFT and
// end-to-end p50/p99) and KV utilization come from the same summaries.
//
// Writes BENCH_serve.json; fails (exit 1) unless
//   - both base configs complete every admitted request,
//   - continuous batching's saturation throughput is strictly higher
//     than batch-of-1's,
//   - fp16 decode throughput (wall) is strictly above fp32's (int8 is
//     recorded informationally),
//   - the prefix-cache run's prefill tokens are strictly below the cold
//     run's, with adopted + computed prefill exactly conserving the
//     cold total (deterministic integer counts).
// ZERO_BENCH_RELAX=1 downgrades failures to warnings.
//
// Usage: serve_load [out.json]   (ZERO_SERVE_SEED reseeds the traffic)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "gate.hpp"
#include "common/env.hpp"
#include "core/state_checkpoint.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "serve/traffic_gen.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace zero;

constexpr std::int64_t kMaxRunning = 8;
constexpr std::int64_t kStepTokens = 32;

model::GptConfig BenchModel() {
  model::GptConfig c;
  c.vocab = 64;
  c.seq = 32;
  c.hidden = 32;
  c.layers = 2;
  c.heads = 2;
  return c;
}

struct RunResult {
  std::string name;
  serve::ServeSummary summary;
  double wall_ms = 0.0;
  double kv_util = 0.0;  // peak blocks / pool blocks
};

RunResult RunConfig(const std::string& name, const std::string& ckpt,
                    std::span<const serve::ServeRequest> traffic,
                    std::int64_t max_running, bool prefix_cache = false) {
  serve::InferenceOptions io;
  io.model = BenchModel();
  io.kv_block_tokens = 8;
  io.kv_max_blocks = 128;
  io.record_metrics = false;
  io.prefix_cache = prefix_cache;
  serve::InferenceEngine engine(io, {});
  engine.LoadCheckpointFile(ckpt);

  serve::ServeOptions so;
  so.scheduler.max_running = max_running;
  so.scheduler.max_step_tokens = kStepTokens;
  so.scheduler.max_seq = io.model.seq;
  so.scheduler.record_metrics = false;
  so.admission.record_metrics = false;
  so.admission.max_queue_requests = 1 << 20;  // measure service, not drops

  RunResult r;
  r.name = name;
  const auto t0 = Clock::now();
  r.summary = serve::ServeLoop(engine, traffic, so);
  r.wall_ms = static_cast<double>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - t0)
                      .count()) /
              1e3;
  if (r.summary.kv_blocks_total > 0) {
    r.kv_util = r.summary.kv_blocks_peak / r.summary.kv_blocks_total;
  }
  return r;
}

// ---------------------------------------------------------------------
// Weight-precision sweep. The base serve model is tiny (every weight
// matrix lives in L1), so precision cannot show up on the clock there;
// this sweep uses a model whose packed weights far exceed L2, making
// steady-state decode weight-bandwidth-bound — the regime the fp16/int8
// backends exist for.
model::GptConfig PrecisionModel() {
  model::GptConfig c;
  c.vocab = 128;
  c.seq = 64;
  c.hidden = 512;  // ~51 MB of fp32 weights over 4 layers
  c.layers = 4;
  c.heads = 8;
  return c;
}

constexpr std::int64_t kPrecSlots = 4;  // decode batch: small m, big weights
constexpr int kPrecPrompt = 8;
constexpr int kPrecSteps = 24;
constexpr int kPrecReps = 3;  // best-of, after one untimed warmup rollout

struct PrecisionResult {
  std::string name;
  double tok_per_s = 0.0;  // best-of-reps wall decode throughput
  double weight_mb = 0.0;
  std::vector<std::int32_t> sampled;  // greedy tokens, slot-major per step
};

PrecisionResult RunPrecision(const std::string& backend,
                             const model::GptConfig& cfg,
                             std::span<const float> full) {
  serve::InferenceOptions io;
  io.model = cfg;
  io.kv_block_tokens = 16;
  io.kv_max_blocks = 64;
  io.record_metrics = false;
  io.weights = backend;
  serve::InferenceEngine eng(io, {});
  eng.LoadFullWeights(full);

  PrecisionResult r;
  r.name = backend;
  r.weight_mb =
      static_cast<double>(eng.weights().weight_bytes()) / (1 << 20);

  const std::int64_t v = cfg.vocab;
  std::vector<float> logits(static_cast<std::size_t>(kPrecSlots * v));
  double best_s = 0.0;
  for (int rep = 0; rep <= kPrecReps; ++rep) {
    std::vector<std::int32_t> slots;
    std::vector<model::DecodeToken> toks;
    for (std::int64_t s = 0; s < kPrecSlots; ++s) {
      const std::int32_t slot = eng.kv().AllocSlot();
      if (!eng.kv().EnsureCapacity(slot, kPrecPrompt + kPrecSteps)) {
        std::fprintf(stderr, "precision sweep: KV pool too small\n");
        std::abort();
      }
      slots.push_back(slot);
      for (int j = 0; j < kPrecPrompt; ++j) {
        toks.push_back(
            {static_cast<std::int32_t>((s * 37 + j * 11 + 3) % v), slot, j});
      }
    }
    eng.Decode(toks, logits);  // batched prompt prefill, untimed

    std::vector<std::int32_t> next(static_cast<std::size_t>(kPrecSlots));
    std::vector<std::int32_t> sampled;
    auto argmax_row = [&](std::int64_t g) {
      const float* row = logits.data() + g * v;
      std::int32_t best = 0;
      for (std::int64_t t = 1; t < v; ++t) {
        if (row[t] > row[best]) best = static_cast<std::int32_t>(t);
      }
      return best;
    };
    for (std::int64_t s = 0; s < kPrecSlots; ++s) {
      next[static_cast<std::size_t>(s)] = argmax_row(s);
    }

    const auto t0 = Clock::now();
    for (int step = 0; step < kPrecSteps; ++step) {
      const std::int64_t pos = kPrecPrompt + step;
      toks.clear();
      for (std::int64_t s = 0; s < kPrecSlots; ++s) {
        toks.push_back({next[static_cast<std::size_t>(s)],
                        slots[static_cast<std::size_t>(s)], pos});
      }
      eng.Decode(toks, logits);
      for (std::int64_t s = 0; s < kPrecSlots; ++s) {
        next[static_cast<std::size_t>(s)] = argmax_row(s);
        sampled.push_back(next[static_cast<std::size_t>(s)]);
      }
    }
    const double secs =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count()) /
        1e9;
    for (const std::int32_t slot : slots) eng.kv().FreeSlot(slot);
    if (rep == 0) continue;  // warmup
    const double tps =
        static_cast<double>(kPrecSlots * kPrecSteps) / secs;
    if (tps > r.tok_per_s) {
      r.tok_per_s = tps;
      best_s = secs;
    }
    r.sampled = std::move(sampled);
  }
  (void)best_s;
  return r;
}

std::int64_t GreedyMismatch(const PrecisionResult& ref,
                            const PrecisionResult& got) {
  std::int64_t n = 0;
  for (std::size_t i = 0; i < ref.sampled.size(); ++i) {
    n += i < got.sampled.size() && got.sampled[i] != ref.sampled[i] ? 1 : 0;
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";

  // Checkpoint → engine: the bench exercises the same load path the
  // serving example and the regression tests use.
  const model::GptConfig cfg = BenchModel();
  const std::string ckpt = "/tmp/zero_serve_bench_ckpt.bin";
  {
    model::GptModel m(cfg, {});
    core::TrainingState st;
    st.total_numel = m.layout().total_numel();
    st.step_count = 1;
    st.loss_scale = 1024.0f;
    st.master.resize(static_cast<std::size_t>(st.total_numel));
    m.InitParameters(st.master, 0x5E12D);
    st.momentum.assign(st.master.size(), 0.0f);
    st.variance.assign(st.master.size(), 0.0f);
    st.SaveToFile(ckpt);
  }

  serve::TrafficConfig tc;
  tc.qps = 4000.0;  // well past capacity: measures saturation throughput
  tc.duration_s = 0.05;
  tc.tenants = 3;
  tc.prompt_min = 4;
  tc.prompt_max = 12;
  tc.out_min = 2;
  tc.out_max = 8;
  tc.vocab = cfg.vocab;
  tc.seed = EnvUint("ZERO_SERVE_SEED",
                    std::numeric_limits<std::uint64_t>::max())
                .value_or(42);
  const auto traffic = serve::GenerateOpenLoopTraffic(tc);

  std::printf(
      "serve load: %zu requests @ %.0f QPS offered, model v=%lld h=%lld "
      "L=%lld (seed %llu)\n",
      traffic.size(), tc.qps, static_cast<long long>(cfg.vocab),
      static_cast<long long>(cfg.hidden), static_cast<long long>(cfg.layers),
      static_cast<unsigned long long>(tc.seed));

  const RunResult cont =
      RunConfig("continuous", ckpt, traffic, kMaxRunning);
  const RunResult solo = RunConfig("batch_of_1", ckpt, traffic, 1);

  for (const RunResult* r : {&cont, &solo}) {
    std::printf(
        "  %-11s %5lld done in %7.1f virtual ms (%7.1f wall ms): %8.1f "
        "tok/s, ttft p50/p99 %6.1f/%6.1f ms, e2e p50/p99 %6.1f/%6.1f ms, "
        "kv util %.2f\n",
        r->name.c_str(), static_cast<long long>(r->summary.completed),
        r->summary.virtual_duration_s * 1e3, r->wall_ms,
        r->summary.decode_tokens_per_s(), r->summary.ttft_p50_ms,
        r->summary.ttft_p99_ms, r->summary.e2e_p50_ms,
        r->summary.e2e_p99_ms, r->kv_util);
  }

  bool ok = true;
  const auto want = static_cast<std::int64_t>(traffic.size());
  if (cont.summary.completed != want || solo.summary.completed != want) {
    std::printf("FAIL: not every request completed (%lld/%lld vs %lld)\n",
                static_cast<long long>(cont.summary.completed),
                static_cast<long long>(solo.summary.completed),
                static_cast<long long>(want));
    ok = false;
  }
  const double speedup = solo.summary.decode_tokens_per_s() > 0
                             ? cont.summary.decode_tokens_per_s() /
                                   solo.summary.decode_tokens_per_s()
                             : 0.0;
  if (cont.summary.decode_tokens_per_s() <=
      solo.summary.decode_tokens_per_s()) {
    std::printf("FAIL: continuous batching (%.1f tok/s) not faster than "
                "batch-of-1 (%.1f tok/s)\n",
                cont.summary.decode_tokens_per_s(),
                solo.summary.decode_tokens_per_s());
    ok = false;
  }
  std::printf("  continuous batching saturation speedup: %.2fx\n", speedup);

  // --- weight-precision sweep (wall clock, weight-bandwidth-bound) ---
  const model::GptConfig pcfg = PrecisionModel();
  std::printf(
      "precision sweep: v=%lld h=%lld L=%lld, %lld-slot decode batch, "
      "%d steps, best of %d\n",
      static_cast<long long>(pcfg.vocab), static_cast<long long>(pcfg.hidden),
      static_cast<long long>(pcfg.layers),
      static_cast<long long>(kPrecSlots), kPrecSteps, kPrecReps);
  std::vector<float> pfull;
  {
    model::GptModel m(pcfg, {});
    pfull.resize(static_cast<std::size_t>(m.layout().total_numel()));
    m.InitParameters(pfull, 0xBEEF5);
  }
  const PrecisionResult p32 = RunPrecision("fp32", pcfg, pfull);
  const PrecisionResult p16 = RunPrecision("fp16", pcfg, pfull);
  const PrecisionResult p8 = RunPrecision("int8", pcfg, pfull);
  const std::int64_t mis16 = GreedyMismatch(p32, p16);
  const std::int64_t mis8 = GreedyMismatch(p32, p8);
  for (const PrecisionResult* p : {&p32, &p16, &p8}) {
    std::printf("  %-5s %8.1f decode tok/s (wall), %6.1f MB weights\n",
                p->name.c_str(), p->tok_per_s, p->weight_mb);
  }
  const double fp16_speedup =
      p32.tok_per_s > 0 ? p16.tok_per_s / p32.tok_per_s : 0.0;
  const double int8_speedup =
      p32.tok_per_s > 0 ? p8.tok_per_s / p32.tok_per_s : 0.0;
  if (p16.tok_per_s <= p32.tok_per_s) {
    std::printf("FAIL: fp16 decode (%.1f tok/s) not faster than fp32 "
                "(%.1f tok/s)\n",
                p16.tok_per_s, p32.tok_per_s);
    ok = false;
  }
  std::printf(
      "  fp16 decode speedup: %.2fx, int8: %.2fx (informational); greedy "
      "mismatches vs fp32: fp16 %lld, int8 %lld of %zu\n",
      fp16_speedup, int8_speedup, static_cast<long long>(mis16),
      static_cast<long long>(mis8), p32.sampled.size());

  // --- prefix-sharing sweep (deterministic virtual-clock counts) ---
  serve::TrafficConfig ptc = tc;
  ptc.prefix_len = 12;  // per-tenant shared prefix, ~half the max prompt
  const auto ptraffic = serve::GenerateOpenLoopTraffic(ptc);
  const RunResult cold =
      RunConfig("prefix_cold", ckpt, ptraffic, kMaxRunning, false);
  const RunResult shared =
      RunConfig("prefix_shared", ckpt, ptraffic, kMaxRunning, true);
  std::remove(ckpt.c_str());
  std::printf(
      "prefix sweep: %zu requests, %lld-token tenant prefixes\n",
      ptraffic.size(), static_cast<long long>(ptc.prefix_len));
  for (const RunResult* r : {&cold, &shared}) {
    std::printf(
        "  %-13s prefill %6lld decode %6lld tokens, %4lld hits / %4lld "
        "misses, %6lld KV positions adopted\n",
        r->name.c_str(), static_cast<long long>(r->summary.prefill_tokens),
        static_cast<long long>(r->summary.decode_tokens),
        static_cast<long long>(r->summary.prefix_hits),
        static_cast<long long>(r->summary.prefix_misses),
        static_cast<long long>(r->summary.prefix_hit_tokens));
  }
  const auto pwant = static_cast<std::int64_t>(ptraffic.size());
  if (cold.summary.completed != pwant || shared.summary.completed != pwant) {
    std::printf("FAIL: prefix sweep dropped requests (%lld/%lld vs %lld)\n",
                static_cast<long long>(cold.summary.completed),
                static_cast<long long>(shared.summary.completed),
                static_cast<long long>(pwant));
    ok = false;
  }
  if (shared.summary.prefill_tokens >= cold.summary.prefill_tokens) {
    std::printf("FAIL: prefix cache did not cut prefill compute "
                "(%lld vs cold %lld tokens)\n",
                static_cast<long long>(shared.summary.prefill_tokens),
                static_cast<long long>(cold.summary.prefill_tokens));
    ok = false;
  }
  if (shared.summary.prefill_tokens + shared.summary.prefix_hit_tokens !=
          cold.summary.prefill_tokens ||
      shared.summary.decode_tokens != cold.summary.decode_tokens) {
    std::printf("FAIL: prefix accounting not conserved "
                "(%lld computed + %lld adopted != %lld cold prefill, or "
                "decode %lld != %lld)\n",
                static_cast<long long>(shared.summary.prefill_tokens),
                static_cast<long long>(shared.summary.prefix_hit_tokens),
                static_cast<long long>(cold.summary.prefill_tokens),
                static_cast<long long>(shared.summary.decode_tokens),
                static_cast<long long>(cold.summary.decode_tokens));
    ok = false;
  }
  const double saved_frac =
      cold.summary.prefill_tokens > 0
          ? static_cast<double>(shared.summary.prefix_hit_tokens) /
                static_cast<double>(cold.summary.prefill_tokens)
          : 0.0;
  std::printf("  prefix cache saved %.1f%% of prefill compute\n",
              saved_frac * 100.0);

  std::ofstream f(out_path, std::ios::trunc);
  f << "{\n  \"offered_qps\": " << tc.qps
    << ",\n  \"requests\": " << traffic.size()
    << ",\n  \"seed\": " << tc.seed << ",\n  \"continuous\": "
    << cont.summary.ToJson() << ",\n  \"continuous_wall_ms\": "
    << cont.wall_ms << ",\n  \"continuous_kv_util\": " << cont.kv_util
    << ",\n  \"batch_of_1\": " << solo.summary.ToJson()
    << ",\n  \"batch_of_1_wall_ms\": " << solo.wall_ms
    << ",\n  \"batch_of_1_kv_util\": " << solo.kv_util
    << ",\n  \"saturation_speedup\": " << speedup
    << ",\n  \"precision\": {"
    << "\n    \"fp32\": {\"decode_tok_per_s_wall\": " << p32.tok_per_s
    << ", \"weight_mb\": " << p32.weight_mb << "},"
    << "\n    \"fp16\": {\"decode_tok_per_s_wall\": " << p16.tok_per_s
    << ", \"weight_mb\": " << p16.weight_mb
    << ", \"greedy_mismatch\": " << mis16 << "},"
    << "\n    \"int8\": {\"decode_tok_per_s_wall\": " << p8.tok_per_s
    << ", \"weight_mb\": " << p8.weight_mb
    << ", \"greedy_mismatch\": " << mis8 << "}\n  }"
    << ",\n  \"fp16_decode_speedup\": " << fp16_speedup
    << ",\n  \"int8_decode_speedup\": " << int8_speedup
    << ",\n  \"prefix_len\": " << ptc.prefix_len
    << ",\n  \"prefix_cold\": " << cold.summary.ToJson()
    << ",\n  \"prefix_shared\": " << shared.summary.ToJson()
    << ",\n  \"prefix_prefill_saved_frac\": " << saved_frac
    << ",\n  \"ok\": " << (ok ? "true" : "false") << "\n}\n";
  f.close();
  std::printf("wrote %s\n", out_path.c_str());

  return zero::bench::GateExit(ok);
}
