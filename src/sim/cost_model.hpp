// Per-step time and throughput model (Sec 7, Sec 8, Sec 10).
//
// step_time = compute + exposed MP communication + exposed DP
// communication + exposed host-offload transfers, with:
//   - compute = step flops / (peak * eff(batch, local width)), the
//     saturating arithmetic-intensity curve that produces both the
//     baseline's small-batch collapse and ZeRO's super-linear scaling;
//   - MP all-reduces (2 fwd + 2 bwd + 2 recompute per block, Sec 8) are
//     synchronous and fully exposed, over NVSwitch inside a node and
//     over InfiniBand once the MP group spans nodes — the Sec 10.2
//     bandwidth cliff;
//   - DP gradient traffic (2*Psi for stages 0-2, 3*Psi for stage 3,
//     Sec 7) overlaps with backward up to cluster.dp_overlap;
//   - Pa adds one all-gather per block (Sec 8); Pa+cpu adds 2x slice
//     transfers over PCIe, partially hidden.
#pragma once

#include "sim/cluster.hpp"
#include "sim/job.hpp"

namespace zero::sim {

struct ThroughputEstimate {
  double step_seconds = 0;
  double tflops_per_gpu = 0;       // achieved, hardware flops incl. recompute
  double aggregate_pflops = 0;
  // breakdown (seconds)
  double compute_s = 0;
  double mp_comm_s = 0;            // exposed
  double dp_comm_s = 0;            // exposed
  double offload_s = 0;            // exposed
  double efficiency = 0;           // eff() used for compute
};

// Fraction of peak the GEMMs achieve for this job.
double Efficiency(const ClusterSpec& cluster, const JobConfig& job);

// Per-rank optimizer-tier link traffic per step in bytes: ZeRO-Offload's
// fp16 wire format (gradients to the tier + updated parameters back,
// 4 B/param of this rank's shard); the NVMe tier additionally streams
// the K = 12 B/param fp32 state in and back out each update because it
// is not host-addressable. 0 when the optimizer is device-resident.
double OptimizerOffloadBytesPerStep(const JobConfig& job);

// Exposed (non-overlapped) off-device transfer seconds per step: Pa+cpu
// checkpoint slices over PCIe, plus the optimizer-tier stream.
double ExposedOffloadSeconds(const ClusterSpec& cluster, const JobConfig& job,
                             double compute_s);

// Multiplier on cluster.dp_overlap: 1.0 for stages 0-2; for stage 3 the
// volume-weighted overlap split — gradient traffic and backward gathers
// hide behind the bucketizer/compute, forward gathers hide only as far
// as prefetch_lookahead pipelines them. Collapses to the historical
// (2 + min(1, lookahead/2)) / 3 when no ZeRO++ flag engages.
double DpOverlapCoefficient(const JobConfig& job);

ThroughputEstimate EstimateThroughput(const ClusterSpec& cluster,
                                      const JobConfig& job);

}  // namespace zero::sim
