// Step report: joins measured runtime telemetry (CommStats bytes,
// ModelStateReport bytes) against the paper's analytic predictions and
// flags divergence.
//
// Memory (Sec 3.1 / Figure 1, via model::PerDeviceModelStates): per-rank
// model-state bytes must match the stage equation at the run's actual
// DP degree. The famous 4x / 8x / Nd reductions are the Nd->infinity
// limits of those equations; the report carries both the at-Nd check
// (asserted) and the asymptotic figure (informational).
//
// Communication (Sec 7): ring collectives move (Nd-1)/Nd of nominal
// volume per rank, so per-rank bytes sent per step are predicted as
//   stages 0-2:  2 * (Nd-1)/Nd * P * e      (reduce-scatter + all-gather)
//   stage 3:     (Nd-1)/Nd * (2*T + P) * e  (params broadcast fwd+bwd,
//                                            gradients reduce-scattered)
// with P = padded parameter elements, T = total (unpadded) elements and
// e the low-precision element size. Relative to the stage-0 baseline
// that is the paper's 1x / 1x / 1x / 1.5x comm-volume claim.
//
// ZeRO++ compression (arXiv:2306.10209) rewrites those wire volumes and
// the report predicts the rewritten values, so a compressed run still
// closes with ok=true:
//   qwZ  parameter gathers ship int8 codes + one fp16 scale per
//        B = tensor::kQuantBlock elements: e -> 1 + 2/B bytes per
//        element.
//   hpZ  stage-3 backward gathers leave the DP ledger entirely (they
//        ride the intra-node communicator, reported separately as
//        local_bytes_per_step).
//   qgZ  the gradient reduce-scatter sends only (nodes-1) quantized
//        shards per rank across nodes; the fp16 intra-node folding
//        traffic moves to the local ledger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace zero::obs {

struct MemoryCheck {
  double measured_bytes = 0;    // per-rank model states, as measured
  double predicted_bytes = 0;   // stage equation at the actual Nd
  double baseline_bytes = 0;    // stage-0 equation (same psi/precision)
  double measured_reduction = 0;    // baseline_bytes / measured_bytes
  double predicted_reduction = 0;   // baseline_bytes / predicted_bytes
  double asymptotic_reduction = 0;  // 1x / 4x / 8x / Nd
  double rel_error = 0;  // |measured - predicted| / predicted
  bool ok = false;
};

struct CommCheck {
  double measured_bytes_per_step = 0;   // per-rank bytes sent (DP ledger)
  double predicted_bytes_per_step = 0;  // formula above
  double measured_ratio = 0;   // measured / predicted stage-0 volume
  double predicted_ratio = 0;  // predicted / predicted stage-0 volume
  double rel_error = 0;
  bool ok = false;
  // ---- wire-precision split (informational; never a divergence) ----
  // Intra-node traffic the DP ledger no longer sees (hpZ backward
  // gathers, qgZ fp16 folding); 0 when no node-aware path ran.
  double local_bytes_per_step = 0;
  // Of the bytes sent, how many were int8 payload vs fp16 block scales
  // (comm.wire.* counters); both 0 in uncompressed runs.
  double wire_int8_bytes_per_step = 0;
  double wire_scale_bytes_per_step = 0;
};

struct StepReportInputs {
  int stage = 0;  // 0..3
  int nd = 1;     // DP degree
  bool fp16 = true;
  double psi = 0;         // logical parameter elements
  double padded_psi = 0;  // partition-padded elements (>= psi)
  // Per-rank measurements. Comm bytes should exclude warm-up (step 0 of
  // stage 3 materializes from the owner once extra) — measure a delta
  // over `steps` steady-state steps.
  double measured_state_bytes = 0;
  double measured_comm_bytes = 0;
  int steps = 1;
  double tolerance = 0.10;  // relative error allowed before divergence
  // Fraction of stage-3 gather time hidden behind compute by the
  // parameter prefetcher (metrics gauge comm.overlap_frac); -1 when
  // prefetch was off. Informational — never a divergence.
  double overlap_frac = -1.0;
  // ---- optimizer-state offload (informational; never a divergence) ----
  // Tier name ("host" / "nvme") when the fp32 optimizer state lives
  // behind a storage tier; empty when device-resident. The byte ledgers
  // mirror the alloc.host.* / offload.* metrics series.
  std::string offload_tier;
  double host_in_use_bytes = 0;       // alloc.host.in_use at run end
  double host_peak_bytes = 0;         // alloc.host.peak
  double offload_bytes_to_tier = 0;   // device -> tier link traffic
  double offload_bytes_to_device = 0;  // tier -> device link traffic
  // Fraction of offload link time hidden behind compute; -1 when the
  // link was instant or the tier device-resident.
  double offload_hidden_frac = -1.0;
  // ---- ZeRO++ compression, as resolved by the engine ----
  bool qwz = false;
  bool hpz = false;
  bool qgz = false;
  int ranks_per_node = 1;         // node size behind hpZ/qgZ
  // Per-rank intra-node bytes over the same steady-state window (0 when
  // no local communicator existed).
  double measured_local_comm_bytes = 0;
  // Process-wide comm.wire.* counter deltas over the window (divided by
  // the world size for the per-rank figures in the report).
  double wire_int8_bytes = 0;
  double wire_scale_bytes = 0;
  int world_size = 1;
  // ---- step anatomy (informational; never a divergence) ----
  // Cross-rank critical-path decomposition from obs/critical_path over
  // the merged timeline: per-rank per-step means, and the plurality
  // straggler across the measured steps. Replaces the old rank-0-only
  // overlap gauge with a per-rank figure.
  struct RankAnatomy {
    int rank = -1;
    double step_ms = 0;
    double compute_ms = 0;
    double comm_ms = 0;      // active wire work (exposed)
    double stall_ms = 0;     // blocked waits (mailbox/prefetch/drain)
    double offload_ms = 0;   // optimizer-state tier pipeline
    double critical_ms = 0;  // mean time on the step's critical path
    double overlap_frac = -1.0;  // per-rank comm.overlap_frac.rank<r>
  };
  std::vector<RankAnatomy> anatomy_ranks;
  int anatomy_steps = 0;    // steps the analyzer measured (0 = no data)
  int straggler_rank = -1;  // plurality critical-path winner
  int straggler_steps = 0;  // measured steps attributed to that rank
  // Trace-ring overflow across all lanes for the run (obs/trace
  // per-thread drop counters); a nonzero value means the trace and the
  // anatomy above describe a truncated window.
  double trace_dropped_events = 0;
};

struct StepReport {
  StepReportInputs inputs;
  MemoryCheck memory;
  CommCheck comm;
  // Human-readable description of every check outside tolerance. Empty
  // means the run matched the paper equations.
  std::vector<std::string> divergences;

  [[nodiscard]] bool ok() const { return divergences.empty(); }
  [[nodiscard]] std::string ToJson() const;
  // One-paragraph log-friendly summary of the ratio checks.
  [[nodiscard]] std::string Summary() const;
};

// Pure analytic predictions (exposed for tests and the report itself).
double PredictedStateBytes(int stage, int nd, bool fp16, double psi);
double PredictedCommBytesPerStep(int stage, int nd, bool fp16, double psi,
                                 double padded_psi);
// Compression-aware DP-ledger prediction: collapses to the plain
// formula when no ZeRO++ path is flagged in `in`.
double PredictedCommBytesPerStep(const StepReportInputs& in);

StepReport BuildStepReport(const StepReportInputs& inputs);

}  // namespace zero::obs
