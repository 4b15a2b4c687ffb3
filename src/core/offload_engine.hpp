// Streaming optimizer-state offload (ZeRO-Offload / ZeRO-Infinity).
//
// This is the K-bytes-per-param eviction the paper's Sec 2.2.2 points
// at: the fp32 master weights and Adam moments live in a StorageTier
// (host DRAM or simulated NVMe) instead of device memory, and the
// update runs host-side — ZeRO-Offload's compute split. Per step, per
// 1/Nd shard, only 2 bytes/param of gradients cross to the tier and
// 2 bytes/param of updated fp16 parameters cross back; the 12
// bytes/param of state never touch the device again.
//
// The shard is processed as fixed-size slices through a double-buffered
// pipeline: while slice i runs its host Adam update, slice i+1's
// gradient fetch is already on the link and slice i-1's parameter
// writeback is draining. On top of that, when the engine is installed
// as the StageContext's GradStreamSink, gradient slices stream to the
// tier *during backward*, as the bucketized reduction finalizes them —
// scheduled by record/replay exactly like ParamPrefetcher: the first
// update records the order slices become final; later steps launch
// eager transfers in that order, each held until its slice is actually
// final (stalls, never skips). A slice not yet staged at update time
// moves there, blocking — a difference in time, never in bits.
//
// Bit-exactness: transfers move bytes verbatim and land at submit time
// (alloc/tier.hpp), and each slice runs optim::FusedAdamStep, the same
// elementwise kernel MixedPrecisionAdam runs over its whole shard, with
// per-step bias correction. So slicing and slice *order* cannot change a
// single bit vs MixedPrecisionAdam over the same shard. The only
// observable difference between tiers is time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "alloc/tier.hpp"
#include "common/half.hpp"
#include "core/stages/stage_strategy.hpp"
#include "optim/adam.hpp"
#include "optim/shard_optimizer.hpp"

namespace zero::core {

struct OffloadOptions {
  // Streaming granularity in fp32 elements.
  std::int64_t slice_elems = 1 << 15;
  // Stream gradient slices during backward (requires being installed as
  // the grad-stream sink).
  bool eager_grads = true;
};

class OffloadEngine final : public optim::ShardOptimizer,
                            public GradStreamSink {
 public:
  // `tier` must outlive the engine. `init` seeds the master weights.
  OffloadEngine(optim::AdamConfig cfg, alloc::StorageTier& tier,
                std::span<const float> init, OffloadOptions opts);
  ~OffloadEngine() override;

  // ---- ShardOptimizer ----
  void Step(std::span<Half> params_f16, std::span<const Half> grads_f16,
            float loss_scale) override;
  void StepFromF32(std::span<Half> params_f16, std::span<const float> grads,
                   float grad_scale) override;
  void StepF32(std::span<float> params_out, std::span<const float> grads,
               float grad_scale) override;
  [[nodiscard]] std::int64_t numel() const override { return numel_; }
  [[nodiscard]] std::int64_t step_count() const override { return t_; }
  void set_step_count(std::int64_t t) override { t_ = t; }
  void CopyStateOut(optim::OptStateKind kind, std::span<float> out) override;
  void CopyStateIn(optim::OptStateKind kind,
                   std::span<const float> in) override;
  [[nodiscard]] std::uint64_t transfer_bytes() const override;
  void DiscardStagedGradients() override;

  // ---- GradStreamSink ----
  void OnShardGradFinal(std::int64_t begin_elem, std::int64_t numel,
                        std::span<const std::byte> bytes) override;

  [[nodiscard]] const alloc::ChannelStats* channel_stats() const;

 private:
  [[nodiscard]] std::int64_t num_slices() const {
    return (numel_ + opts_.slice_elems - 1) / opts_.slice_elems;
  }
  [[nodiscard]] std::int64_t slice_begin(std::int64_t s) const {
    return s * opts_.slice_elems;
  }
  [[nodiscard]] std::int64_t slice_len(std::int64_t s) const {
    return std::min(opts_.slice_elems, numel_ - slice_begin(s));
  }

  void TryLaunchEager();
  // One fused Adam pass per slice. `grad_elem` is sizeof(Half) for fp16
  // gradients (always into fp16 params) or sizeof(float); exactly one of
  // the two parameter spans is non-empty.
  void RunUpdate(std::span<Half> params_f16, std::span<float> params_f32,
                 std::span<const std::byte> grads, std::size_t grad_elem,
                 float scale);
  void ResetStaging();
  void PublishMetrics();

  optim::AdamConfig cfg_;
  alloc::StorageTier* tier_;
  OffloadOptions opts_;
  std::int64_t numel_ = 0;
  std::int64_t t_ = 0;

  // Tier regions holding the fp32 state (numel * 4 bytes each).
  std::size_t master_rg_ = 0;
  std::size_t m_rg_ = 0;
  std::size_t v_rg_ = 0;
  bool resident_ = false;  // tier exposes the state host-addressably
  // In-place views of the regions when resident (host Adam operates on
  // them directly); empty for non-resident tiers.
  std::span<float> master_host_;
  std::span<float> m_host_;
  std::span<float> v_host_;

  // ---- eager gradient staging (record/replay) ----
  bool replaying_ = false;            // first update records, then replay
  std::vector<std::int32_t> schedule_;   // slice finality order, replayed
  std::vector<std::int32_t> recording_;  // this step's observed order
  std::size_t launch_pos_ = 0;           // next schedule_ index to launch
  std::vector<std::int64_t> slice_covered_;  // finalized elems per slice
  std::vector<std::byte> grad_host_;         // staged raw gradient bytes
  std::vector<alloc::TransferRequest> slice_req_;  // eager D2H in flight
  std::vector<bool> staged_;
  std::size_t grad_elem_ = 0;  // element width observed this step

  // Per-pipeline-slot staging for non-resident tiers.
  struct Slot {
    std::vector<float> master, m, v;
    std::vector<alloc::TransferRequest> in_reqs;   // state fetches
    std::vector<alloc::TransferRequest> out_reqs;  // param + state stores
  };
  Slot slots_[2];

  // Last-published channel byte counts (metric deltas).
  std::uint64_t prev_to_tier_ = 0;
  std::uint64_t prev_to_device_ = 0;
};

}  // namespace zero::core
