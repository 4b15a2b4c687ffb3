// Configuration of a ZeRO-DP engine (shared by the orchestrator in
// dp_engine.hpp and the per-stage strategies in stages/).
#pragma once

#include <cstdint>
#include <string>

#include "alloc/tier.hpp"
#include "model/transformer_spec.hpp"
#include "obs/telemetry.hpp"
#include "optim/adam.hpp"
#include "optim/loss_scaler.hpp"

namespace zero::core {

struct EngineConfig {
  model::ZeroStage stage = model::ZeroStage::kOsG;
  bool fp16 = true;
  // Static loss scale (fp16 only). An fp16 step whose gradients
  // overflow is skipped on every rank under either scaling mode.
  float loss_scale = 1024.0f;
  // Dynamic loss scaling: the scale also backs off on overflow and grows
  // after a run of clean steps (overrides the static loss_scale).
  bool dynamic_loss_scale = false;
  optim::DynamicLossScaler::Config scaler;
  // Gradient accumulation: the optimizer runs every N micro-steps;
  // between them, reduced gradients accumulate into a partitioned fp32
  // buffer (full-size only for the stage-0 baseline).
  int accumulation_steps = 1;
  // Global gradient-norm clipping (0 disables). The norm spans the whole
  // model, so partitioned stages all-reduce their shard norms first.
  float max_grad_norm = 0.0f;
  // Storage tier for the fp32 optimizer state (alloc/tier.hpp +
  // core/offload_engine.hpp). kDevice means no tier: the state stays on
  // the device in optim::MixedPrecisionAdam (the non-offloaded baseline).
  // kHost streams through host DRAM: the optimizer-state offload the
  // paper's Sec 2.2.2 contrasts with and ZeRO-Offload later implemented,
  // removing the K*Psi/Nd term from device memory. kNvme goes through
  // the simulated NVMe tier (ZeRO-Infinity). Bit-exact vs kDevice at
  // every stage.
  alloc::TierKind offload_tier = alloc::TierKind::kDevice;
  // Simulated link bandwidth for the offload tier in bytes/second;
  // 0 = instant link (tests). The bench sets PCIe/NVMe-like speeds.
  double offload_bandwidth = 0.0;
  // Streaming granularity of the offload pipeline in fp32 elements per
  // slice: each slice's gradients move D2H, the host Adam updates it,
  // and its parameters move H2D, double-buffered against the next
  // slice's transfers.
  std::int64_t offload_slice_elems = 1 << 15;
  // Stream gradient slices to the host as they become final during
  // backward (record/replay-scheduled, mirroring the prefetcher) rather
  // than at update time. Disabled automatically under accumulation.
  bool offload_eager_grads = true;

  // CB (Sec 6.2): collectives on gradient partitions are issued through
  // a constant-size fused buffer of at most this many elements, rather
  // than one model-size-proportional buffer.
  std::int64_t bucket_elems = 1 << 16;
  // Deterministic rank-ordered reductions (gather, sum in rank order,
  // redistribute). Exact across stages; used by equivalence tests.
  bool exact_reductions = false;
  // Intra-op worker budget for the CPU kernels (tensor/parallel_for.hpp).
  // 0 leaves the process-wide setting alone (ZERO_INTRAOP_WORKERS,
  // default serial); positive values are clamped so that
  // rank_threads x workers never exceeds the hardware thread count.
  int intra_op_workers = 0;
  optim::AdamConfig adam;

  // ---- communication / compute overlap (stage 3) ----
  // Number of schedule-ahead parameter units whose gathers the
  // ParamPrefetcher (core/stages/param_prefetcher.hpp) keeps in flight,
  // so AcquireUnit completes an already-launched gather. 0 (default)
  // gathers nothing ahead: each unit is gathered when it is acquired.
  // Bit-exact at every depth. In-flight units are budgeted at half the
  // group-wide minimum free device memory (unlimited for heap-backed
  // state); lookahead degrades toward blocking when the budget is tight.
  int prefetch_lookahead = 0;

  // ---- ZeRO++ node size ----
  // DP-group ranks per "node" block for hpZ and qgZ. <= 1 means flat; a
  // DP degree that does not divide evenly also leaves both off.
  int ranks_per_node = 1;

  // ---- ZeRO++ communication compression (arXiv:2306.10209) ----
  // All three paths require fp16 mode, are lossy-but-deterministic, and
  // are disabled wholesale by exact_reductions (the bit-exact escape
  // hatch).
  //
  // qwZ: parameter all-gathers/broadcasts (stage-3 unit materialization
  // incl. prefetch, stage-1/2 post-update re-gather) ship blockwise int8
  // codes + fp16 scales instead of the fp16 payload (~3.8x fewer bytes
  // at tensor::kQuantBlock = 64 elements per scale).
  bool qwz = false;
  // hpZ: each rank additionally keeps a secondary fp16 parameter shard
  // partitioned over its intra-node group (ranks_per_node), captured
  // from forward materializations; stage-3 backward gathers then resolve
  // entirely inside the node group. Forward gathers stay global (they
  // refresh the secondary shard). Needs ranks_per_node > 1.
  bool hpz = false;
  // qgZ: bucketized gradient reduce-scatter goes hierarchical — fp16
  // chunks fold into fp32 at a per-node relay, and only the relay's
  // quantized int8 partial crosses the node boundary to the owner.
  // Needs ranks_per_node > 1. Different bracketing than the flat path,
  // so NOT bit-exact vs qgz=false.
  bool qgz = false;

  // Runtime telemetry: tracing/metrics/step-report switches for the run.
  // Spans are compiled in regardless and cost ~a relaxed atomic load
  // while disabled.
  obs::TelemetryOptions telemetry;

  // ---- fault tolerance (src/fault/, src/comm/health.hpp) ----
  // Heartbeat-based failure detection: bounded communicator waits with
  // this deadline; a silent peer is declared dead and every survivor
  // unwinds with a typed CommError instead of deadlocking. 0 (default)
  // keeps classic unbounded blocking.
  std::uint64_t comm_deadline_ms = 0;
  // Elastic checkpointing: every N applied steps, all ranks collectively
  // ExportState and rank 0 writes the Nd-independent TrainingState to
  // checkpoint_path (latest wins). 0 disables.
  int checkpoint_every_n_steps = 0;
  std::string checkpoint_path;
  // Deterministic fault injection (grammar in fault/fault_plan.hpp).
  // Empty means no injection and no overhead.
  std::string fault_spec;
};

// The training overlay of the ZERO_* environment knobs (common/env.hpp),
// for binaries that want the shell to configure a run; the library
// itself never reads the environment. Each set variable overwrites its
// field and an unset one leaves the field alone:
//   ZERO_PREFETCH          prefetch_lookahead
//   ZERO_QWZ / ZERO_HPZ / ZERO_QGZ   qwz / hpz / qgz (0 or 1)
//   ZERO_RANKS_PER_NODE    ranks_per_node
//   ZERO_OFFLOAD           offload_tier (device, host or nvme)
//   ZERO_OFFLOAD_BW        offload_bandwidth (bytes/second)
//   ZERO_COMM_DEADLINE_MS  comm_deadline_ms
//   ZERO_FAULT             fault_spec
//   ZERO_TRACE             telemetry.enabled + telemetry.trace_path
//   ZERO_POSTMORTEM        telemetry.postmortem_dir
// A malformed value throws zero::ConfigError naming the variable.
void ApplyEnv(EngineConfig& config);

// Rejects a config no engine can run, throwing zero::ConfigError naming
// the field: accumulation_steps < 1, bucket_elems <= 0,
// prefetch_lookahead < 0, exact_reductions in fp16 mode, or
// dynamic_loss_scale in fp32 mode. ZeroDpEngine calls it first.
void ValidateEngineConfig(const EngineConfig& config);

}  // namespace zero::core
