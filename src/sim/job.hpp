// One training-job configuration for the simulator: the model, the
// parallelism layout and the ZeRO optimizations in force. This is the
// cartesian product the paper's evaluation sweeps (Tables 5-10).
#pragma once

#include "model/transformer_spec.hpp"

namespace zero::sim {

// Where the fp32 optimizer state lives (sim-side mirror of
// alloc::TierKind; zero_sim deliberately does not link the runtime
// allocator). kHost is ZeRO-Offload's split, kNvme the ZeRO-Infinity
// direction the paper's Sec 2.2.2 contrasts with.
enum class OffloadTier : unsigned char {
  kNone,  // device-resident (the paper's default)
  kHost,  // host DRAM behind PCIe
  kNvme,  // NVMe behind a slower link; state streams through host
};

struct JobConfig {
  model::TransformerSpec model;
  int gpus = 400;
  int mp = 1;                    // tensor model parallelism degree
  std::int64_t batch_per_gpu = 8;
  model::ZeroStage stage = model::ZeroStage::kOsG;
  bool activation_checkpointing = true;
  bool pa = false;               // partitioned activation checkpoints
  bool pa_cpu = false;           // + host offload
  bool constant_buffers = true;  // CB
  bool defrag = true;            // MD
  // Stage-3 parameter-gather look-ahead (Sec 7.2.2's pipelining). 2+
  // hides the extra 1 Psi broadcast traffic behind compute; 0 exposes
  // it. Mirrors EngineConfig::prefetch_lookahead.
  int prefetch_lookahead = 2;
  // Optimizer-state storage tier. Mirrors EngineConfig::offload_tier:
  // K*Psi/Nd moves off the device in exchange for 4 B/param/step of
  // fp16 wire traffic (plus the 24 B/param fp32 state stream for NVMe).
  OffloadTier optimizer_tier = OffloadTier::kNone;
  // ZeRO++ communication compression (arXiv:2306.10209). Mirrors the
  // EngineConfig knobs of the same names; the cost model rewrites the
  // DP wire volume exactly as the runtime does. ranks_per_node must
  // divide dp() for hpz/qgz to engage (the engine's own gate).
  bool qwz = false;              // int8 parameter gathers
  bool hpz = false;              // intra-node secondary param shard (stage 3)
  bool qgz = false;              // hierarchical int8 gradient reduce
  int ranks_per_node = 1;

  [[nodiscard]] int dp() const { return gpus / mp; }
  [[nodiscard]] std::int64_t psi() const { return model.NumParameters(); }
  // Per-device parameter count (MP splits the model vertically first).
  [[nodiscard]] double psi_local() const {
    return static_cast<double>(psi()) / mp;
  }

  // The paper's five ZeRO-R ablation configs (Table 3).
  static JobConfig WithConfigId(JobConfig base, int config_id);
};

}  // namespace zero::sim
