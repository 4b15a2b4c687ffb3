#include "core/stages/param_prefetcher.hpp"

#include <algorithm>
#include <cstring>

#include "comm/quant_collectives.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zero::core {

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

ParamPrefetcher::ParamPrefetcher(StageContext& ctx,
                                 const tensor::Tensor* own_params,
                                 const tensor::Tensor* secondary,
                                 const Partitioner* hpz_part)
    : ctx_(&ctx),
      own_params_(own_params),
      secondary_(secondary),
      hpz_part_(hpz_part),
      lookahead_(ctx.cfg->prefetch_lookahead) {
  ZERO_CHECK(lookahead_ > 0, "ParamPrefetcher needs prefetch_lookahead > 0");
  ZERO_CHECK((secondary == nullptr) == (hpz_part == nullptr),
             "hpZ shard and its partitioner come together");
}

ParamPrefetcher::~ParamPrefetcher() { CancelAll(); }

void ParamPrefetcher::OnStepBegin() {
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
  if (ctx_->cfg->prefetch_max_bytes > 0) {
    budget_ = ctx_->cfg->prefetch_max_bytes;
  } else if (ctx_->device == nullptr) {
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
  if (budget_ == 0) budget_ = 1;  // "tight" sentinel: degrade to blocking
}

std::size_t ParamPrefetcher::UnitBytes(int u) const {
  const auto [ub, ue] = ctx_->model->layout().UnitRange(u);
  return static_cast<std::size_t>(ue - ub) *
         (ctx_->cfg->fp16 ? sizeof(Half) : sizeof(float));
}

ParamPrefetcher::InFlight ParamPrefetcher::Launch(Entry e, std::size_t pos) {
  TRACE_SPAN("params/prefetch_launch");
  const int u = e.unit;
  const auto [ub, ue] = ctx_->model->layout().UnitRange(u);
  const std::int64_t n = ue - ub;
  const Range unit_range{ub, ue};
  const Range own = ctx_->part->PartitionRange(ctx_->rank());

  InFlight inf;
  inf.unit = u;
  inf.schedule_pos = pos;
  inf.bytes = UnitBytes(u);
  inf.launch_ns = obs::TraceNowNs();
  if (e.local) {
    // hpZ backward gather: the unit resolves inside the node group from
    // the secondary shard — fp16 byte moves, identical to what the
    // recording step's blocking local materialization delivered.
    ZERO_CHECK(secondary_ != nullptr && ctx_->local != nullptr,
               "local prefetch launch without an hpZ shard");
    inf.f16 = ctx_->NewDevice(n, DType::kF16);
    const Range own2 = hpz_part_->PartitionRange(ctx_->local->rank());
    for (const auto& [j2, overlap] : hpz_part_->Overlaps(unit_range)) {
      std::span<Half> dst = inf.f16.f16().subspan(
          static_cast<std::size_t>(overlap.begin - ub),
          static_cast<std::size_t>(overlap.size()));
      if (j2 == ctx_->local->rank()) {
        std::memcpy(dst.data(),
                    secondary_->f16().data() + (overlap.begin - own2.begin),
                    dst.size_bytes());
      }
      inf.reqs.push_back(comm::IBroadcast(*ctx_->local, dst, j2));
    }
    return inf;
  }
  // Same owner-slice copies and per-overlap broadcasts as the blocking
  // materialization in PosGPStrategy::AcquireUnit — only nonblocking
  // (and int8-quantized on the wire under qwZ).
  if (ctx_->cfg->fp16) {
    inf.f16 = ctx_->NewDevice(n, DType::kF16);
    for (const auto& [j, overlap] : ctx_->part->Overlaps(unit_range)) {
      std::span<Half> dst = inf.f16.f16().subspan(
          static_cast<std::size_t>(overlap.begin - ub),
          static_cast<std::size_t>(overlap.size()));
      if (j == ctx_->rank()) {
        std::memcpy(dst.data(),
                    own_params_->f16().data() + (overlap.begin - own.begin),
                    dst.size_bytes());
      }
      inf.reqs.push_back(
          ctx_->qwz
              ? comm::IQuantBroadcast(*ctx_->dp, dst, j, ctx_->quant_block)
              : comm::IBroadcast(*ctx_->dp, dst, j));
    }
  } else {
    inf.f32.assign(static_cast<std::size_t>(n), 0.0f);
    for (const auto& [j, overlap] : ctx_->part->Overlaps(unit_range)) {
      std::span<float> dst{inf.f32.data() + (overlap.begin - ub),
                           static_cast<std::size_t>(overlap.size())};
      if (j == ctx_->rank()) {
        std::memcpy(dst.data(),
                    own_params_->f32().data() + (overlap.begin - own.begin),
                    dst.size_bytes());
      }
      inf.reqs.push_back(comm::IBroadcast(*ctx_->dp, dst, j));
    }
  }
  return inf;
}

void ParamPrefetcher::TopUp() {
  while (next_launch_ < schedule_.size() &&
         inflight_.size() < static_cast<std::size_t>(lookahead_)) {
    const Entry e = schedule_[next_launch_];
    const std::size_t bytes = UnitBytes(e.unit);
    // Stop — never skip — when the budget is exhausted, so launches
    // stay in schedule order and degrade toward blocking under
    // pressure.
    if (bytes > budget_ - std::min(budget_, inflight_bytes_)) break;
    inflight_.push_back(Launch(e, next_launch_));
    inflight_bytes_ += bytes;
    ++next_launch_;
  }
}

void ParamPrefetcher::Progress() {
  for (InFlight& inf : inflight_) {
    for (comm::CollectiveRequest& r : inf.reqs) (void)r.Test();
  }
}

bool ParamPrefetcher::Claim(int u, tensor::Tensor* f16_out,
                            std::vector<float>* f32_out, bool local) {
  Progress();
  if (mode_ != Mode::kReplaying) return false;
  if (cursor_ >= schedule_.size() || schedule_[cursor_].unit != u ||
      schedule_[cursor_].local != local) {
    // Off-schedule acquire: cancel everything (all ranks see the same
    // divergence at the same claim) and fall back to blocking.
    Derail();
    return false;
  }
  const std::size_t pos = cursor_++;

  InFlight inf;
  const bool hit =
      !inflight_.empty() && inflight_.front().schedule_pos == pos;
  if (hit) {
    HitCounter().Add();
    inf = std::move(inflight_.front());
    inflight_.pop_front();
    inflight_bytes_ -= std::min(inflight_bytes_, inf.bytes);
  } else {
    // Budget (or a fresh schedule) kept this unit from launching ahead:
    // gather it now — still through the nonblocking machines, so tag
    // order matches the ranks that did launch ahead. Fully exposed.
    MissCounter().Add();
    inf = Launch(Entry{u, local}, pos);
    next_launch_ = std::max(next_launch_, pos + 1);
  }

  const std::uint64_t wait_t0 = obs::TraceNowNs();
  {
    TRACE_SPAN("params/prefetch_wait");
    for (comm::CollectiveRequest& r : inf.reqs) r.Wait();
  }
  const std::uint64_t now = obs::TraceNowNs();
  static obs::Histogram& wait_us =
      obs::Metrics().histogram("prefetch.wait_us");
  wait_us.Observe(static_cast<double>(now - wait_t0) / 1000.0);
  active_ns_ += static_cast<double>(now - inf.launch_ns);
  exposed_ns_ += static_cast<double>(now - wait_t0);

  if (f16_out != nullptr) *f16_out = std::move(inf.f16);
  if (f32_out != nullptr) *f32_out = std::move(inf.f32);
  TopUp();
  return true;
}

void ParamPrefetcher::Record(int u, bool local) {
  if (mode_ == Mode::kRecording) recording_.push_back(Entry{u, local});
}

void ParamPrefetcher::Derail() {
  DerailCounter().Add();
  for (InFlight& inf : inflight_) {
    for (comm::CollectiveRequest& r : inf.reqs) r.Cancel();
  }
  inflight_.clear();
  inflight_bytes_ = 0;
  schedule_.clear();
  recording_.clear();
  mode_ = Mode::kIdle;
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
