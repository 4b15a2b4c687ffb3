// ZeroTrainer: the library's top-level entry point.
//
// Mirrors the paper's usability claim (Sec 10.4): wrap a model config
// and a ZeRO config, call Train, and the library assembles the cluster —
// DP x MP rank grid, per-rank simulated device memory, communicators,
// ZeRO-DP engine, ZeRO-R checkpoint policy — runs synchronous training
// on a synthetic corpus, and reports losses, memory and communication
// metrics. No model refactoring: the same GptModel runs under every
// stage and every ZeRO-R combination.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "alloc/host_memory.hpp"
#include "comm/topology.hpp"
#include "core/dp_engine.hpp"
#include "model/corpus.hpp"
#include "model/gpt.hpp"
#include "obs/step_report.hpp"

namespace zero::core {

struct ClusterOptions {
  int dp_degree = 2;
  int mp_degree = 1;
  // Per-rank simulated device capacity. Experiments that probe OOM
  // boundaries (max model / max batch) shrink this.
  std::size_t device_capacity_bytes = 256ull << 20;
};

struct ZeroROptions {
  bool activation_checkpointing = false;
  bool partition_activations = false;  // Pa   (needs checkpointing)
  bool cpu_offload = false;            // Pa+cpu (needs Pa)
  bool defrag_arena = false;           // MD: checkpoints in an arena
  std::size_t arena_bytes = 16ull << 20;
};

struct TrainOptions {
  model::GptConfig model;
  EngineConfig engine;
  ClusterOptions cluster;
  ZeroROptions zero_r;
  std::int64_t batch_per_rank = 2;
  int steps = 3;
  std::uint64_t seed = 42;
  int corpus_branching = 3;
  // Evaluate held-out loss every N steps (0 disables). Validation reads
  // a stream no rank trains on; every rank sees identical batches so
  // the (stage-3-collective) EvalLoss stays in lockstep.
  int eval_every = 0;
  int eval_batches = 2;
};

struct RankMetrics {
  int rank = -1;
  ModelStateReport model_states;
  alloc::CacheStats cache;      // peak_cached is the Figure 7 metric
  alloc::DeviceStats device;
  alloc::HostStats host;        // Pa+cpu transfer volume
  comm::CommStats dp_comm;
  comm::CommStats mp_comm;
};

struct TrainResult {
  // Mean training loss across the DP group, one entry per step.
  std::vector<float> losses;
  // Held-out losses, one entry per eval point (eval_every > 0).
  std::vector<float> validation_losses;
  std::vector<RankMetrics> ranks;
  bool oom = false;
  std::string oom_message;
  // Fault outcome: when an injected or detected failure killed the run,
  // the root cause is recorded here instead of thrown (genuine bugs —
  // anything that is not an InjectedFaultError/CommError — still throw).
  bool failed = false;
  std::string failure_message;
  // Flight-recorder post-mortem bundle written for this failure ("" when
  // the recorder was disarmed, the run was healthy, or the flush failed).
  std::string postmortem_dir;
  // Flat parameter space of the per-engine model (after any MP split):
  // logical and partition-padded element counts.
  std::int64_t psi = 0;
  std::int64_t padded_psi = 0;
  // Measured-vs-analytic validation, populated when
  // EngineConfig::telemetry is enabled for the run.
  std::optional<obs::StepReport> report;

  [[nodiscard]] float final_loss() const {
    return losses.empty() ? 0.0f : losses.back();
  }
  // Largest per-rank peak cached device memory — the quantity a real
  // cluster would OOM on first.
  [[nodiscard]] std::size_t MaxPeakCached() const;
  [[nodiscard]] std::uint64_t TotalDpBytesSent() const;
  [[nodiscard]] std::uint64_t TotalMpBytesSent() const;
};

// Runs dp*mp ranks to completion (or symmetric OOM, reported in the
// result rather than thrown). Deterministic for a fixed TrainOptions.
TrainResult TrainGpt(const TrainOptions& options);

}  // namespace zero::core
