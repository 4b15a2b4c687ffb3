#include "core/offload_engine.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zero::core {

namespace {
std::span<float> AsFloats(std::span<std::byte> bytes) {
  return {reinterpret_cast<float*>(bytes.data()),
          bytes.size() / sizeof(float)};
}
}  // namespace

OffloadEngine::OffloadEngine(optim::AdamConfig cfg, alloc::StorageTier& tier,
                             std::span<const float> init, OffloadOptions opts)
    : cfg_(cfg),
      tier_(&tier),
      opts_(opts),
      numel_(static_cast<std::int64_t>(init.size())) {
  ZERO_CHECK(opts_.slice_elems > 0, "offload slice size must be positive");
  const std::size_t state_bytes = init.size_bytes();
  master_rg_ = tier_->CreateRegion(state_bytes);
  m_rg_ = tier_->CreateRegion(state_bytes);
  v_rg_ = tier_->CreateRegion(state_bytes);
  resident_ = !tier_->ResidentBytes(master_rg_).empty();
  if (resident_) {
    master_host_ = AsFloats(tier_->ResidentBytes(master_rg_));
    m_host_ = AsFloats(tier_->ResidentBytes(m_rg_));
    v_host_ = AsFloats(tier_->ResidentBytes(v_rg_));
    std::memcpy(master_host_.data(), init.data(), init.size_bytes());
  } else {
    // Initial population of the tier (counted as tier traffic, waited:
    // nothing to overlap with at construction).
    tier_->StoreAsync(master_rg_, 0, std::as_bytes(init)).Wait();
  }
  const std::int64_t s = num_slices();
  slice_covered_.assign(static_cast<std::size_t>(s), 0);
  staged_.assign(static_cast<std::size_t>(s), false);
  slice_req_.assign(static_cast<std::size_t>(s), alloc::TransferRequest{});
}

OffloadEngine::~OffloadEngine() {
  tier_->ReleaseRegion(master_rg_);
  tier_->ReleaseRegion(m_rg_);
  tier_->ReleaseRegion(v_rg_);
}

const alloc::ChannelStats* OffloadEngine::channel_stats() const {
  return &tier_->channel()->stats();
}

std::uint64_t OffloadEngine::transfer_bytes() const {
  return channel_stats()->total_bytes();
}

// ---------------------------------------------------------------------------
// Eager gradient streaming (GradStreamSink)

void OffloadEngine::OnShardGradFinal(std::int64_t begin_elem,
                                     std::int64_t numel,
                                     std::span<const std::byte> bytes) {
  ZERO_CHECK(numel > 0 && bytes.size() % static_cast<std::size_t>(numel) == 0,
             "malformed gradient-finality notification");
  ZERO_CHECK(begin_elem >= 0 && begin_elem + numel <= numel_,
             "gradient-finality range outside the shard");
  const std::size_t elem = bytes.size() / static_cast<std::size_t>(numel);
  if (grad_elem_ != elem) {
    grad_elem_ = elem;
    grad_host_.assign(static_cast<std::size_t>(numel_) * elem, std::byte{});
  }
  std::memcpy(grad_host_.data() + static_cast<std::size_t>(begin_elem) * elem,
              bytes.data(), bytes.size());

  const std::int64_t end_elem = begin_elem + numel;
  const std::int64_t first = begin_elem / opts_.slice_elems;
  const std::int64_t last = (end_elem - 1) / opts_.slice_elems;
  for (std::int64_t s = first; s <= last; ++s) {
    const std::int64_t lo = std::max(begin_elem, slice_begin(s));
    const std::int64_t hi = std::min(end_elem, slice_begin(s) + slice_len(s));
    auto& covered = slice_covered_[static_cast<std::size_t>(s)];
    covered += hi - lo;
    if (covered == slice_len(s)) {
      recording_.push_back(static_cast<std::int32_t>(s));
    }
  }
  TryLaunchEager();
}

void OffloadEngine::TryLaunchEager() {
  if (!replaying_ || !opts_.eager_grads) return;
  while (launch_pos_ < schedule_.size()) {
    const std::int32_t s = schedule_[launch_pos_];
    const auto su = static_cast<std::size_t>(s);
    if (slice_covered_[su] < slice_len(s)) return;  // stall, never skip
    if (staged_[su]) {
      ++launch_pos_;
      continue;
    }
    const std::size_t bytes =
        static_cast<std::size_t>(slice_len(s)) * grad_elem_;
    {
      TRACE_SPAN("offload/slice_launch");
      slice_req_[su] = tier_->SubmitToTier(bytes);
    }
    staged_[su] = true;
    ++launch_pos_;
    static obs::Counter& eager =
        obs::Metrics().counter("offload.eager_slices");
    eager.Add();
  }
}

void OffloadEngine::ResetStaging() {
  std::fill(slice_covered_.begin(), slice_covered_.end(), 0);
  std::fill(staged_.begin(), staged_.end(), false);
  std::fill(slice_req_.begin(), slice_req_.end(), alloc::TransferRequest{});
  recording_.clear();
  launch_pos_ = 0;
}

void OffloadEngine::DiscardStagedGradients() {
  if (launch_pos_ != 0 || !recording_.empty()) {
    static obs::Counter& discards = obs::Metrics().counter("offload.discards");
    discards.Add();
  }
  ResetStaging();
}

// ---------------------------------------------------------------------------
// The streaming update pipeline

void OffloadEngine::Step(std::span<Half> params_f16,
                         std::span<const Half> grads_f16, float loss_scale) {
  ZERO_CHECK(params_f16.size() == static_cast<std::size_t>(numel_) &&
                 grads_f16.size() == static_cast<std::size_t>(numel_),
             "shard size mismatch");
  RunUpdate(params_f16, {}, std::as_bytes(grads_f16), sizeof(Half),
            1.0f / loss_scale);
}

void OffloadEngine::StepFromF32(std::span<Half> params_f16,
                                std::span<const float> grads,
                                float grad_scale) {
  ZERO_CHECK(params_f16.size() == static_cast<std::size_t>(numel_) &&
                 grads.size() == static_cast<std::size_t>(numel_),
             "shard size mismatch");
  RunUpdate(params_f16, {}, std::as_bytes(grads), sizeof(float),
            grad_scale);
}

void OffloadEngine::StepF32(std::span<float> params_out,
                            std::span<const float> grads, float grad_scale) {
  ZERO_CHECK(params_out.size() == static_cast<std::size_t>(numel_) &&
                 grads.size() == static_cast<std::size_t>(numel_),
             "shard size mismatch");
  RunUpdate({}, params_out, std::as_bytes(grads), sizeof(float),
            grad_scale);
}

void OffloadEngine::RunUpdate(std::span<Half> params_f16,
                              std::span<float> params_f32,
                              std::span<const std::byte> grads,
                              std::size_t grad_elem, float scale) {
  TRACE_SPAN("optim/offload_step");
  const std::int64_t num = num_slices();
  ++t_;

  // Replay the recorded finality order when it covers the shard; the
  // eagerly staged slices then complete in exactly the order the
  // pipeline consumes them. Ascending otherwise. The order is a pure
  // schedule choice: Adam is elementwise with one bias-correction clock
  // per step, so any order produces identical bits.
  std::vector<std::int32_t> order;
  if (static_cast<std::int64_t>(schedule_.size()) == num) {
    order = schedule_;
  } else {
    order.resize(static_cast<std::size_t>(num));
    std::iota(order.begin(), order.end(), 0);
  }

  auto prepare = [&](std::int64_t idx) {
    TRACE_SPAN("offload/slice_launch");
    const std::int32_t s = order[static_cast<std::size_t>(idx)];
    const std::int64_t begin = slice_begin(s);
    const std::int64_t len = slice_len(s);
    Slot& slot = slots_[idx & 1];
    // The slot's previous occupant must have drained its writebacks
    // before its buffers are reused.
    for (auto& r : slot.out_reqs) r.Wait();
    slot.out_reqs.clear();
    if (!staged_[static_cast<std::size_t>(s)]) {
      slice_req_[static_cast<std::size_t>(s)] =
          tier_->SubmitToTier(static_cast<std::size_t>(len) * grad_elem);
    }
    if (!resident_) {
      const auto n = static_cast<std::size_t>(len);
      slot.master.resize(n);
      slot.m.resize(n);
      slot.v.resize(n);
      const std::size_t off = static_cast<std::size_t>(begin) * sizeof(float);
      slot.in_reqs.push_back(tier_->FetchAsync(
          master_rg_, off, std::as_writable_bytes(std::span(slot.master))));
      slot.in_reqs.push_back(tier_->FetchAsync(
          m_rg_, off, std::as_writable_bytes(std::span(slot.m))));
      slot.in_reqs.push_back(tier_->FetchAsync(
          v_rg_, off, std::as_writable_bytes(std::span(slot.v))));
    }
  };

  prepare(0);
  for (std::int64_t idx = 0; idx < num; ++idx) {
    const std::int32_t s = order[static_cast<std::size_t>(idx)];
    const std::int64_t begin = slice_begin(s);
    const std::int64_t len = slice_len(s);
    Slot& slot = slots_[idx & 1];

    // Next slice's transfers ride the link while this slice computes.
    if (idx + 1 < num) prepare(idx + 1);

    {
      TRACE_SPAN("offload/slice_wait");
      slice_req_[static_cast<std::size_t>(s)].Wait();
      for (auto& r : slot.in_reqs) r.Wait();
      slot.in_reqs.clear();
    }

    const auto b = static_cast<std::size_t>(begin);
    const auto n = static_cast<std::size_t>(len);
    const optim::AdamState state =
        resident_ ? optim::AdamState{master_host_.subspan(b, n),
                                     m_host_.subspan(b, n),
                                     v_host_.subspan(b, n)}
                  : optim::AdamState{slot.master, slot.m, slot.v};
    const std::byte* src =
        (staged_[static_cast<std::size_t>(s)] ? grad_host_.data()
                                              : grads.data()) +
        b * grad_elem;
    if (grad_elem == sizeof(Half)) {
      optim::FusedAdamStep(cfg_, t_, {reinterpret_cast<const Half*>(src), n},
                           scale, state, params_f16.subspan(b, n));
    } else {
      const std::span<const float> g(reinterpret_cast<const float*>(src), n);
      if (!params_f16.empty()) {
        optim::FusedAdamStep(cfg_, t_, g, scale, state,
                             params_f16.subspan(b, n));
      } else {
        optim::FusedAdamStep(cfg_, t_, g, scale, state,
                             params_f32.subspan(b, n));
      }
    }
    slot.out_reqs.push_back(tier_->SubmitToDevice(
        n * (params_f16.empty() ? sizeof(float) : sizeof(Half))));
    if (!resident_) {
      const std::size_t off = b * sizeof(float);
      slot.out_reqs.push_back(
          tier_->StoreAsync(master_rg_, off, std::as_bytes(state.master)));
      slot.out_reqs.push_back(
          tier_->StoreAsync(m_rg_, off, std::as_bytes(state.m)));
      slot.out_reqs.push_back(
          tier_->StoreAsync(v_rg_, off, std::as_bytes(state.v)));
    }
  }
  {
    TRACE_SPAN("offload/slice_wait");
    for (Slot& slot : slots_) {
      for (auto& r : slot.out_reqs) r.Wait();
      slot.out_reqs.clear();
    }
  }

  if (static_cast<std::int64_t>(recording_.size()) == num) {
    schedule_ = recording_;
  }
  replaying_ = true;
  ResetStaging();
  PublishMetrics();
}

void OffloadEngine::PublishMetrics() {
  static obs::Counter& updates = obs::Metrics().counter("offload.updates");
  updates.Add();
  const alloc::ChannelStats* s = channel_stats();
  static obs::Counter& to_tier =
      obs::Metrics().counter("offload.bytes_to_tier");
  static obs::Counter& to_device =
      obs::Metrics().counter("offload.bytes_to_device");
  to_tier.Add(s->bytes_to_tier - prev_to_tier_);
  to_device.Add(s->bytes_to_device - prev_to_device_);
  prev_to_tier_ = s->bytes_to_tier;
  prev_to_device_ = s->bytes_to_device;
  obs::Metrics().gauge("offload.hidden_frac").Set(s->hidden_fraction());
}

// ---------------------------------------------------------------------------
// Checkpoint access

void OffloadEngine::CopyStateOut(optim::OptStateKind kind,
                                 std::span<float> out) {
  ZERO_CHECK(out.size() == static_cast<std::size_t>(numel_),
             "state copy size mismatch");
  const std::size_t region = kind == optim::OptStateKind::kMaster ? master_rg_
                             : kind == optim::OptStateKind::kMomentum
                                 ? m_rg_
                                 : v_rg_;
  if (resident_) {
    std::memcpy(out.data(), tier_->ResidentBytes(region).data(),
                out.size_bytes());
  } else {
    tier_->FetchAsync(region, 0, std::as_writable_bytes(out)).Wait();
  }
}

void OffloadEngine::CopyStateIn(optim::OptStateKind kind,
                                std::span<const float> in) {
  ZERO_CHECK(in.size() == static_cast<std::size_t>(numel_),
             "state copy size mismatch");
  const std::size_t region = kind == optim::OptStateKind::kMaster ? master_rg_
                             : kind == optim::OptStateKind::kMomentum
                                 ? m_rg_
                                 : v_rg_;
  if (resident_) {
    std::memcpy(tier_->ResidentBytes(region).data(), in.data(),
                in.size_bytes());
  } else {
    tier_->StoreAsync(region, 0, std::as_bytes(in)).Wait();
  }
}

}  // namespace zero::core
