// Serving run: a GPT-mini checkpoint behind the continuous-batching
// inference engine, under seeded open-loop traffic.
//
//   serve_gpt_mini [checkpoint] [qps] [duration_s] [mp]
//
// The model config matches train_gpt_mini (vocab 48, seq 16, hidden 32,
// 3 layers, 4 heads), so a checkpoint written by
//   ZERO_CKPT=/tmp/gpt_mini.bin ./train_gpt_mini 2 4 1 20
// serves directly. Without a checkpoint argument (or with "-") the
// example seeds fresh weights — useful for trying the scheduler alone.
//
// ZERO_SERVE_SEED reseeds the traffic (arrivals, tenants, prompts);
// the same seed replays the identical run. ZERO_SERVE_WEIGHTS selects
// the serving weight precision (fp32 default, fp16, int8) behind the
// dispatched GEMM backend; ZERO_SERVE_PREFIX_CACHE=1 turns on the
// copy-on-write prefix KV cache and gives each tenant a shared
// system-prompt prefix so the index actually gets hits. With
// ZERO_TRACE set the run records serve/step, serve/plan, serve/commit
// and serve/decode spans into a Chrome trace. A malformed value exits 2
// naming the variable. With mp > 1 the engine shards every projection
// across `mp` ranks Megatron-style and each rank runs the same serve
// loop in lockstep.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>

#include "comm/communicator.hpp"
#include "comm/world.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "serve/traffic_gen.hpp"

namespace {

int Run(int argc, char** argv) {
  using namespace zero;

  const char* ckpt = argc > 1 ? argv[1] : "-";
  const double qps = argc > 2 ? std::atof(argv[2]) : 2000.0;
  const double duration_s = argc > 3 ? std::atof(argv[3]) : 0.1;
  const int mp = argc > 4 ? std::atoi(argv[4]) : 1;

  serve::InferenceOptions io;
  io.model.vocab = 48;
  io.model.seq = 16;
  io.model.hidden = 32;
  io.model.layers = 3;
  io.model.heads = 4;
  io.kv_block_tokens = 8;
  io.kv_max_blocks = 64;
  if (auto w = EnvString("ZERO_SERVE_WEIGHTS")) io.weights = *w;
  const bool prefix_cache = EnvFlag("ZERO_SERVE_PREFIX_CACHE").value_or(false);
  io.prefix_cache = prefix_cache;

  serve::TrafficConfig tc;
  tc.qps = qps;
  tc.duration_s = duration_s;
  tc.tenants = 2;
  tc.prompt_min = 2;
  tc.prompt_max = 8;
  tc.out_min = 1;
  tc.out_max = 6;
  tc.vocab = io.model.vocab;
  tc.seed = EnvUint("ZERO_SERVE_SEED",
                    std::numeric_limits<std::uint64_t>::max())
                .value_or(42);
  // Shared per-tenant system prompts make the prefix index earn hits.
  if (prefix_cache) tc.prefix_len = 4;
  const auto traffic = serve::GenerateOpenLoopTraffic(tc);

  serve::ServeOptions so;
  so.scheduler.max_running = 8;
  so.scheduler.max_step_tokens = 32;
  so.scheduler.max_seq = io.model.seq;

  obs::TelemetryOptions telemetry;
  if (auto trace = EnvString("ZERO_TRACE")) {
    telemetry.enabled = true;
    telemetry.trace_path = *trace;
  }
  telemetry.ResolvePaths();
  if (telemetry.enabled) {
    obs::SetTraceBufferCapacity(telemetry.trace_buffer_events);
    obs::ResetTrace();
    obs::EnableTracing();
  }

  const bool from_ckpt = std::strcmp(ckpt, "-") != 0;
  std::printf("serving GPT-mini: %s, %zu requests @ %.0f QPS, mp=%d, "
              "seed %llu, weights %s, prefix cache %s\n",
              from_ckpt ? ckpt : "(fresh weights)", traffic.size(), qps,
              mp, static_cast<unsigned long long>(tc.seed),
              io.weights.c_str(), prefix_cache ? "on" : "off");

  auto load = [&](serve::InferenceEngine& engine) {
    if (from_ckpt) {
      engine.LoadCheckpointFile(ckpt);
    } else {
      model::GptModel m(io.model, {});
      std::vector<float> full(
          static_cast<std::size_t>(m.layout().total_numel()));
      m.InitParameters(full, 42);
      engine.LoadFullWeights(full);
    }
  };

  serve::ServeSummary summary;
  if (mp <= 1) {
    serve::InferenceEngine engine(io, {});
    load(engine);
    summary = serve::ServeLoop(engine, traffic, so);
  } else {
    // Every rank runs the same deterministic loop on the same traffic;
    // greedy sampling reads MP-all-reduced logits so the ranks stay in
    // lockstep. Rank 0's summary is reported (all are identical).
    std::mutex mu;
    comm::World world(mp);
    world.Run([&](comm::RankContext& ctx) {
      obs::SetThreadTraceName("serve-rank" + std::to_string(ctx.rank));
      comm::Communicator mpc = comm::Communicator::WholeWorld(ctx);
      model::GptSession session;
      session.mp = &mpc;
      serve::InferenceEngine engine(io, session);
      load(engine);
      serve::ServeSummary s = serve::ServeLoop(engine, traffic, so);
      if (ctx.rank == 0) {
        std::lock_guard<std::mutex> lock(mu);
        summary = std::move(s);
      }
    });
  }

  std::printf(
      "  offered %lld, admitted %lld, completed %lld "
      "(rejected: %lld throttled, %lld queue-full, %lld latency)\n",
      static_cast<long long>(summary.offered),
      static_cast<long long>(summary.admitted),
      static_cast<long long>(summary.completed),
      static_cast<long long>(summary.rejected_throttled),
      static_cast<long long>(summary.rejected_queue),
      static_cast<long long>(summary.rejected_latency));
  std::printf("  %lld steps packed %lld tokens (%lld prefill, %lld "
              "decode), %lld evictions\n",
              static_cast<long long>(summary.steps),
              static_cast<long long>(summary.packed_tokens),
              static_cast<long long>(summary.prefill_tokens),
              static_cast<long long>(summary.decode_tokens),
              static_cast<long long>(summary.evictions));
  if (prefix_cache) {
    std::printf("  prefix cache: %lld hits / %lld misses, %lld KV "
                "positions adopted\n",
                static_cast<long long>(summary.prefix_hits),
                static_cast<long long>(summary.prefix_misses),
                static_cast<long long>(summary.prefix_hit_tokens));
  }
  std::printf("  throughput %.1f tok/s, ttft p50/p99 %.1f/%.1f ms, "
              "e2e p50/p99 %.1f/%.1f ms, kv peak %.0f/%.0f blocks\n",
              summary.decode_tokens_per_s(), summary.ttft_p50_ms,
              summary.ttft_p99_ms, summary.e2e_p50_ms, summary.e2e_p99_ms,
              summary.kv_blocks_peak, summary.kv_blocks_total);

  bool artifacts_ok = true;
  if (telemetry.enabled) {
    obs::DisableTracing();
    if (!telemetry.trace_path.empty()) {
      artifacts_ok &= obs::WriteTextFile(
          telemetry.trace_path,
          obs::ChromeTraceJson(obs::BuildTimeline(obs::CollectEvents())));
      std::printf("\ntrace: %s (load in ui.perfetto.dev)\n",
                  telemetry.trace_path.c_str());
    }
    if (!telemetry.report_path.empty()) {
      artifacts_ok &=
          obs::WriteTextFile(telemetry.report_path, summary.ToJson());
      std::printf("report: %s\n", telemetry.report_path.c_str());
    }
  } else {
    std::printf("\n(set ZERO_TRACE=/tmp/serve.json to record a Chrome "
                "trace; ZERO_SERVE_SEED replays a different traffic "
                "sample)\n");
  }
  return summary.completed > 0 && artifacts_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const zero::ConfigError& e) {
    std::fprintf(stderr, "serve_gpt_mini: %s\n", e.what());
    return 2;
  }
}
