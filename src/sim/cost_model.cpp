#include "sim/cost_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "tensor/quantize.hpp"

namespace zero::sim {

namespace {

// Per-rank DP wire bytes per step, split by what hides it. Nominal
// volumes (no (Nd-1)/Nd ring factor), matching the analytic model's
// historical accounting.
struct DpVolumeSplit {
  double grads = 0;  // reduce path: hidden by the bucketizer
  double fwd = 0;    // stage-3 forward gathers: prefetch-dependent
  double bwd = 0;    // stage-3 backward gathers: hidden by the bucketizer
  double ag = 0;     // stage-1/2 step-end all-gather
  [[nodiscard]] double total() const { return grads + fwd + bwd + ag; }
};

DpVolumeSplit DpVolume(const JobConfig& job) {
  using model::ZeroStage;
  DpVolumeSplit v;
  if (job.dp() <= 1) return v;
  const double psi = job.psi_local();
  if (job.stage == ZeroStage::kNone) {
    v.grads = 2.0 * 4.0 * psi;  // fp32 all-reduce
    return v;
  }
  const double e = 2.0;  // fp16 wire elements
  // ZeRO++ gates, mirroring ZeroDpEngine::InitState.
  const bool nodes_ok = job.ranks_per_node > 1 &&
                        job.dp() % job.ranks_per_node == 0;
  const bool qwz = job.qwz;
  const bool hpz = job.hpz && nodes_ok && job.stage == ZeroStage::kOsGP;
  const bool qgz = job.qgz && nodes_ok &&
                   (job.stage == ZeroStage::kOsG ||
                    job.stage == ZeroStage::kOsGP);
  const double qe = 1.0 + 2.0 / static_cast<double>(tensor::kQuantBlock);
  v.grads = e * psi;
  if (qgz) {
    // Only the (nodes-1) quantized relay shards cross the DP fabric.
    const double nodes = static_cast<double>(job.dp()) / job.ranks_per_node;
    v.grads = (nodes - 1.0) / job.dp() * qe * psi;
  }
  if (job.stage == ZeroStage::kOsGP) {
    v.fwd = (qwz ? qe : e) * psi;
    v.bwd = hpz ? 0.0 : (qwz ? qe : e) * psi;
  } else {
    v.ag = (qwz ? qe : e) * psi;
  }
  return v;
}

}  // namespace

double DpOverlapCoefficient(const JobConfig& job) {
  if (job.stage != model::ZeroStage::kOsGP || job.dp() <= 1) return 1.0;
  const DpVolumeSplit v = DpVolume(job);
  if (v.total() <= 0.0) return 1.0;
  // Gradient traffic and backward gathers hide behind the bucketizer;
  // forward gathers hide only as far as the prefetcher pipelines them
  // (lookahead >= 2 pipelines fully, 0 exposes them cold).
  const double hidden =
      std::min(1.0, static_cast<double>(job.prefetch_lookahead) / 2.0);
  return (v.grads + v.bwd + hidden * v.fwd) / v.total();
}

double Efficiency(const ClusterSpec& cluster, const JobConfig& job) {
  const double tokens = static_cast<double>(job.batch_per_gpu) *
                        static_cast<double>(job.model.seq);
  const double w = static_cast<double>(job.model.hidden) / job.mp;
  const double f_tokens = tokens / (tokens + cluster.tokens_half);
  const double f_width = w / (w + cluster.width_half);
  return cluster.eff_max * f_tokens * f_width;
}

double OptimizerOffloadBytesPerStep(const JobConfig& job) {
  if (job.optimizer_tier == OffloadTier::kNone) return 0.0;
  // The rank's optimizer shard: full model for the unpartitioned
  // baseline, Psi/Nd under Pos and above.
  const double shard = job.stage == model::ZeroStage::kNone
                           ? job.psi_local()
                           : job.psi_local() / job.dp();
  // fp16 gradients in + fp16 parameters out (the fp32 casts happen on
  // the host — ZeRO-Offload's compute split).
  double bytes = 4.0 * shard;
  if (job.optimizer_tier == OffloadTier::kNvme) {
    // The fp32 state itself streams through the link both ways.
    bytes += 24.0 * shard;
  }
  return bytes;
}

double ExposedOffloadSeconds(const ClusterSpec& cluster, const JobConfig& job,
                             double compute_s) {
  double exposed = 0.0;
  if (job.pa_cpu) {
    // Pa+cpu checkpoint slices: out during forward, back during
    // backward, synchronous per-layer copies on the critical path.
    const double slice = 2.0 * static_cast<double>(job.batch_per_gpu) *
                         static_cast<double>(job.model.seq) *
                         static_cast<double>(job.model.hidden) *
                         static_cast<double>(job.model.layers) / job.mp;
    const double t = 2.0 * slice / cluster.pcie_bw;
    exposed += std::max(0.0, t - cluster.offload_overlap * compute_s);
  }
  if (job.optimizer_tier != OffloadTier::kNone) {
    const double bw = job.optimizer_tier == OffloadTier::kNvme
                          ? cluster.nvme_bw
                          : cluster.pcie_bw;
    const double t = OptimizerOffloadBytesPerStep(job) / bw;
    exposed +=
        std::max(0.0, t - cluster.optimizer_offload_overlap * compute_s);
  }
  return exposed;
}

ThroughputEstimate EstimateThroughput(const ClusterSpec& cluster,
                                      const JobConfig& job) {
  ZERO_CHECK(job.batch_per_gpu >= 1, "batch must be positive");
  ThroughputEstimate out;
  const auto& m = job.model;
  const double b = static_cast<double>(job.batch_per_gpu);
  const double s = static_cast<double>(m.seq);
  const double h = static_cast<double>(m.hidden);
  const double l = static_cast<double>(m.layers);
  const int mp = job.mp;

  // --- compute ---
  const double flops_per_gpu =
      m.StepFlops(job.batch_per_gpu, job.activation_checkpointing) / mp;
  out.efficiency = Efficiency(cluster, job);
  out.compute_s = flops_per_gpu / (cluster.peak_flops * out.efficiency);

  // --- model-parallel communication (fully exposed) ---
  double mp_time = 0;
  if (mp > 1) {
    const double msg = 2.0 * b * s * h;  // fp16 activation tensor
    const double ring = 2.0 * msg * (mp - 1) / mp;  // all-reduce volume
    const int per_block =
        job.activation_checkpointing ? 6 : 4;  // 2 fwd (+2 recompute) +2 bwd
    double volume = l * per_block * ring;
    if (job.pa) {
      // One extra all-gather per block before recompute (Sec 8): volume
      // = message size.
      volume += l * msg * (mp - 1) / mp;
    }
    mp_time = volume / cluster.MpBandwidth(mp);
  }
  out.mp_comm_s = mp_time;

  // --- data-parallel communication (overlapped with backward) ---
  double dp_time = 0;
  double overlap = cluster.dp_overlap;
  if (job.dp() > 1) {
    // ZeRO moves fp16 gradients/parameters (2 Psi for stages 0-2,
    // 3 Psi for stage 3, Sec 7, rewritten by any active ZeRO++ path);
    // the 2019 DDP baseline all-reduced fp32 gradients, and (without
    // MP) without ZeRO's bucketized compute overlap.
    if (job.stage == model::ZeroStage::kNone && mp == 1) overlap = 0.0;
    overlap *= DpOverlapCoefficient(job);
    const double volume = DpVolume(job).total();
    dp_time = volume / cluster.DpBandwidth();
  }
  out.dp_comm_s = std::max(0.0, dp_time - overlap * out.compute_s);

  // --- off-device transfers (Pa+cpu + the optimizer tier) ---
  out.offload_s = ExposedOffloadSeconds(cluster, job, out.compute_s);

  out.step_seconds =
      out.compute_s + out.mp_comm_s + out.dp_comm_s + out.offload_s;
  out.tflops_per_gpu = flops_per_gpu / out.step_seconds / 1e12;
  out.aggregate_pflops = out.tflops_per_gpu * job.gpus / 1e3;
  return out;
}

}  // namespace zero::sim
