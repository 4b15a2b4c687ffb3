// Serving workload: seeded open-loop traffic served on the wall clock by
// calling AdmissionController::Offer, ContinuousBatchScheduler::PlanStep
// / CommitStep and InferenceEngine::Decode directly. Every request is
// timed from the instant it was due, not from when the loop noticed it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/gpt.hpp"
#include "report.hpp"
#include "serve/request.hpp"

namespace perfbench {

struct ServeSpec {
  std::string name = "serve_fp16";
  zero::model::GptConfig model;
  std::string weights = "fp16";
  double rate_rps = 11.0;  // Poisson arrival rate
  std::int32_t tenants = 3;
  std::int32_t prefix_len = 16;  // shared per-tenant prompt prefix
  std::int32_t tail_min = 8;     // per-request prompt tail
  std::int32_t tail_max = 24;
  std::int32_t out_min = 4;      // max_new_tokens
  std::int32_t out_max = 16;
  std::int64_t min_requests = 200;  // p95 keeps >= 10 samples beyond it
  std::int64_t max_running = 8;
  std::int64_t max_step_tokens = 64;
  std::int64_t kv_block_tokens = 16;
  std::int64_t kv_max_blocks = 96;
  std::size_t device_capacity_bytes = 32ull << 20;
  // Output checks: the backlog (queued + running) when the last request
  // arrives, and the time to drain it, bound a growing queue.
  std::int64_t max_backlog_at_last_arrival = 16;
  double max_drain_s = 2.0;
};

// h=512, 4 layers, 8 heads, vocab 512, seq 128, fp16 weights, prefix
// cache on, 11 requests/s (about 60 % busy on a 4-core x86 box).
[[nodiscard]] ServeSpec ServeFp16Spec();

// Seeded open-loop traffic: exponential interarrival gaps at
// spec.rate_rps, uniform tenant, tail length and output length; each
// prompt is its tenant's shared prefix followed by a random tail. The
// count is max(min_requests, round(rate * seconds)); ids are 0..n-1 in
// arrival order.
[[nodiscard]] std::vector<zero::serve::ServeRequest> MakeTraffic(
    const ServeSpec& spec, std::uint64_t seed, double seconds);

// Forward flops of one packed serving step: dense projections per token,
// attention against each token's cached prefix, and the vocabulary
// projection for each group's last token.
[[nodiscard]] double ServeStepFlops(
    const zero::model::GptConfig& cfg,
    const std::vector<zero::model::DecodeToken>& tokens, std::size_t groups);

// One benchmark run of the serving workload. `scratch_dir` receives the
// seeded checkpoint the engine loads; it is removed afterwards.
[[nodiscard]] RunOutcome RunServeWorkload(const ServeSpec& spec,
                                          std::uint64_t seed, double seconds,
                                          bool trace,
                                          const std::string& scratch_dir);

}  // namespace perfbench
