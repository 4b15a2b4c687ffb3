#include "core/stages/param_prefetcher.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "comm/quant_collectives.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels.hpp"

namespace zero::core {

using model::Phase;

namespace {
obs::Counter& HitCounter() {
  static obs::Counter& c = obs::Metrics().counter("prefetch.hits");
  return c;
}
obs::Counter& MissCounter() {
  static obs::Counter& c = obs::Metrics().counter("prefetch.misses");
  return c;
}
obs::Counter& DerailCounter() {
  static obs::Counter& c = obs::Metrics().counter("prefetch.derails");
  return c;
}
}  // namespace

ParamPrefetcher::ParamPrefetcher(const StageContext& ctx,
                                 const tensor::Tensor& own_params)
    : ctx_(&ctx),
      own_params_(&own_params),
      lookahead_(ctx.cfg->prefetch_lookahead) {
  if (!ctx.hpz) return;
  hpz_part_.emplace(ctx.part->total(), ctx.node_size);
  secondary_ = ctx.NewDevice(hpz_part_->partition_size(), DType::kF16);
  secondary_.FillZero();
  unit_captured_.assign(
      static_cast<std::size_t>(ctx.model->layout().num_units()), 0);
}

ParamPrefetcher::~ParamPrefetcher() { CancelAll(); }

void ParamPrefetcher::OnStepBegin() {
  if (lookahead_ == 0) return;
  if (schedule_.empty()) {
    mode_ = Mode::kRecording;
    recording_.clear();
    return;
  }
  mode_ = Mode::kReplaying;
  cursor_ = 0;
  next_launch_ = 0;
  EnsureBudget();
  TopUp();
}

void ParamPrefetcher::OnStepEnd() {
  if (mode_ == Mode::kRecording) {
    schedule_ = std::move(recording_);
    recording_.clear();
  } else if (mode_ == Mode::kReplaying) {
    if (cursor_ != schedule_.size()) {
      // The model stopped short of the recorded schedule (it changed
      // shape between steps): abandon the tail and re-learn.
      Derail();
    } else {
      const double overlap =
          active_ns_ > 0.0 ? std::max(0.0, 1.0 - exposed_ns_ / active_ns_)
                           : 0.0;
      static obs::Gauge& frac = obs::Metrics().gauge("comm.overlap_frac");
      frac.Set(overlap);
      // Per-rank figure for the step report's anatomy section (the
      // process-wide gauge above is last-writer-wins across ranks).
      obs::Metrics()
          .gauge("comm.overlap_frac.rank" + std::to_string(ctx_->rank()))
          .Set(overlap);
    }
  }
  mode_ = Mode::kIdle;
}

void ParamPrefetcher::EnsureBudget() {
  if (budget_ != 0) return;
  if (ctx_->device == nullptr) {
    budget_ = SIZE_MAX;  // heap-backed state: no capacity to respect
  } else {
    // Agree on the group-wide minimum headroom (an SPMD-identical
    // budget is what keeps every rank's launch decisions in lock-step),
    // and commit only half of it to look-ahead.
    float neg_free = -static_cast<float>(
        ctx_->device->device().Stats().free_total);
    ctx_->dp->AllReduce(std::span<float>(&neg_free, 1),
                        comm::ReduceOp::kMax);
    budget_ = static_cast<std::size_t>(
                  std::max(0.0f, -neg_free)) / 2;
  }
  if (budget_ == 0) budget_ = 1;  // "tight" sentinel: every claim misses
}

std::size_t ParamPrefetcher::UnitBytes(int u) const {
  const auto [ub, ue] = ctx_->model->layout().UnitRange(u);
  return static_cast<std::size_t>(ue - ub) *
         (ctx_->cfg->fp16 ? sizeof(Half) : sizeof(float));
}

ParamPrefetcher::InFlight ParamPrefetcher::Launch(Entry e) {
  TRACE_SPAN("params/gather_launch");
  const auto [ub, ue] = ctx_->model->layout().UnitRange(e.unit);
  const std::int64_t n = ue - ub;
  const Range unit_range{ub, ue};

  InFlight inf;
  inf.bytes = UnitBytes(e.unit);
  inf.launch_ns = obs::TraceNowNs();
  // Each overlap owner copies its slice into the landing buffer and
  // broadcasts it. hpZ backward gathers resolve inside the node group
  // from the secondary shard (zero bytes cross the node boundary);
  // global fp16 gathers go int8 on the wire under qwZ, dequantized on
  // every rank, the owner included, so all replicas agree.
  const Partitioner& part = e.local ? *hpz_part_ : *ctx_->part;
  comm::Communicator& group = e.local ? *ctx_->local : *ctx_->dp;
  const tensor::Tensor& src = e.local ? secondary_ : *own_params_;
  const Range own = part.PartitionRange(group.rank());
  auto broadcast_slices = [&]<typename T>(std::span<T> buf,
                                          std::span<const T> mine) {
    for (const auto& [j, overlap] : part.Overlaps(unit_range)) {
      std::span<T> dst = buf.subspan(
          static_cast<std::size_t>(overlap.begin - ub),
          static_cast<std::size_t>(overlap.size()));
      if (j == group.rank()) {
        std::memcpy(dst.data(), mine.data() + (overlap.begin - own.begin),
                    dst.size_bytes());
      }
      if constexpr (std::is_same_v<T, Half>) {
        if (ctx_->qwz && !e.local) {
          inf.reqs.push_back(
              comm::IQuantBroadcast(group, dst, j, tensor::kQuantBlock));
          continue;
        }
      }
      inf.reqs.push_back(comm::IBroadcast(group, dst, j));
    }
  };
  if (ctx_->cfg->fp16) {
    inf.unit.f16 = ctx_->NewDevice(n, DType::kF16);
    broadcast_slices(inf.unit.f16.f16(), src.f16());
  } else {
    inf.unit.f32.assign(static_cast<std::size_t>(n), 0.0f);
    broadcast_slices(std::span<float>(inf.unit.f32), src.f32());
  }
  return inf;
}

void ParamPrefetcher::TopUp() {
  while (next_launch_ < schedule_.size() &&
         inflight_.size() < static_cast<std::size_t>(lookahead_)) {
    const Entry e = schedule_[next_launch_];
    const std::size_t bytes = UnitBytes(e.unit);
    // Stop — never skip — when the budget is exhausted, so launches
    // stay in schedule order and degrade toward on-the-spot gathers
    // under pressure; likewise at a local entry whose unit this step's
    // forward has not captured yet (its secondary slice is stale).
    if (bytes > budget_ - std::min(budget_, inflight_bytes_)) break;
    if (e.local && unit_captured_[static_cast<std::size_t>(e.unit)] == 0) {
      break;
    }
    InFlight inf = Launch(e);
    inf.schedule_pos = next_launch_;
    inflight_.push_back(std::move(inf));
    inflight_bytes_ += bytes;
    ++next_launch_;
  }
}

void ParamPrefetcher::Progress() {
  for (InFlight& inf : inflight_) {
    for (comm::CollectiveRequest& r : inf.reqs) (void)r.Test();
  }
}

ParamPrefetcher::Unit ParamPrefetcher::Gather(int u, Phase phase) {
  Progress();
  // hpZ gather-kind decision: backward re-gathers resolve inside the
  // node group once the forward pass captured the unit.
  const Entry want{u, ctx_->hpz && phase == Phase::kBackward &&
                          unit_captured_[static_cast<std::size_t>(u)] != 0};
  if (mode_ == Mode::kReplaying &&
      (cursor_ >= schedule_.size() || schedule_[cursor_] != want)) {
    // Off-schedule acquire: cancel everything (all ranks see the same
    // divergence at the same claim) and gather on the spot.
    Derail();
  }
  const bool pipelined = mode_ == Mode::kReplaying;
  InFlight inf;
  if (pipelined) {
    const std::size_t pos = cursor_++;
    if (!inflight_.empty() && inflight_.front().schedule_pos == pos) {
      HitCounter().Add();
      inf = std::move(inflight_.front());
      inflight_.pop_front();
      inflight_bytes_ -= std::min(inflight_bytes_, inf.bytes);
    } else {
      // Budget (or the hpZ capture rule) kept this unit from launching
      // ahead: launch it now, fully exposed.
      MissCounter().Add();
      inf = Launch(want);
      next_launch_ = std::max(next_launch_, pos + 1);
    }
  } else {
    if (mode_ == Mode::kRecording) recording_.push_back(want);
    inf = Launch(want);
  }

  const std::uint64_t wait_t0 = obs::TraceNowNs();
  for (comm::CollectiveRequest& r : inf.reqs) {
    TRACE_SPAN(pipelined ? "params/prefetch_wait" : "comm/broadcast");
    r.Wait();
  }
  if (pipelined) {
    const std::uint64_t now = obs::TraceNowNs();
    static obs::Histogram& wait_us =
        obs::Metrics().histogram("prefetch.wait_us");
    wait_us.Observe(static_cast<double>(now - wait_t0) / 1000.0);
    active_ns_ += static_cast<double>(now - inf.launch_ns);
    exposed_ns_ += static_cast<double>(now - wait_t0);
  }

  Unit& unit = inf.unit;
  if (ctx_->cfg->fp16) {
    const std::int64_t n = unit.f16.numel();
    unit.f32.resize(static_cast<std::size_t>(n));
    tensor::CastHalfToFloat(unit.f16.f16().data(), unit.f32.data(), n);
  }
  if (ctx_->hpz && phase == Phase::kForward) CaptureSecondary(u, unit.f16);
  if (mode_ == Mode::kReplaying) TopUp();
  return std::move(unit);
}

void ParamPrefetcher::CaptureSecondary(int u, const tensor::Tensor& f16) {
  TRACE_SPAN("params/hpz_capture");
  const auto [ub, ue] = ctx_->model->layout().UnitRange(u);
  const Range own2 = hpz_part_->PartitionRange(ctx_->local->rank());
  const Range overlap = Intersect(Range{ub, ue}, own2);
  if (!overlap.empty()) {
    std::memcpy(secondary_.f16().data() + (overlap.begin - own2.begin),
                f16.f16().data() + (overlap.begin - ub),
                static_cast<std::size_t>(overlap.size()) * sizeof(Half));
    static obs::Counter& captured =
        obs::Metrics().counter("hpz.secondary_bytes_captured");
    captured.Add(static_cast<double>(overlap.size()) * sizeof(Half));
  }
  // Even a rank whose slice misses this unit marks it: the flag means
  // "the node group collectively holds unit u", which became true the
  // moment every local rank executed this same gather.
  unit_captured_[static_cast<std::size_t>(u)] = 1;
}

void ParamPrefetcher::OnParamsChanged() {
  std::fill(unit_captured_.begin(), unit_captured_.end(), 0);
}

void ParamPrefetcher::Derail() {
  DerailCounter().Add();
  CancelAll();
}

void ParamPrefetcher::CancelAll() {
  for (InFlight& inf : inflight_) {
    for (comm::CollectiveRequest& r : inf.reqs) r.Cancel();
  }
  inflight_.clear();
  inflight_bytes_ = 0;
  schedule_.clear();
  recording_.clear();
  mode_ = Mode::kIdle;
}

}  // namespace zero::core
