#include "core/stages/grad_bucketizer.hpp"

#include <algorithm>
#include <cstring>

#include "comm/quant_collectives.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quantize.hpp"

namespace zero::core {

GradBucketizer::GradBucketizer(StageContext& ctx, tensor::Tensor* owner_grads)
    : ctx_(&ctx), owner_grads_(owner_grads) {}

std::pair<std::int64_t, std::int64_t> GradBucketizer::ChunkSpan(
    std::int64_t c) const {
  const std::int64_t shard = ctx_->part->partition_size();
  const std::int64_t off = c * ctx_->cfg->bucket_elems;
  return {off, std::min(ctx_->cfg->bucket_elems, shard - off)};
}

void GradBucketizer::BeginStep() {
  ZERO_CHECK(segments_.empty(), "stale gradient segments from a prior step");
  ZERO_CHECK(!pending_.has_value() && hier_.empty(),
             "stale in-flight reduction from a prior step");
  // Padding between total() and padded_total() is never emitted; the
  // frontier starts at the top of the real parameter space.
  emit_frontier_ = ctx_->part->total();
}

void GradBucketizer::Emit(int u, std::span<const float> grad) {
  const Partitioner& part = *ctx_->part;
  const auto [ub, ue] = ctx_->model->layout().UnitRange(u);
  // Units tile the flat space and backward completes them from the top
  // down, so emissions form one descending contiguous frontier. The
  // bucketizer relies on this to know when a partition is complete.
  ZERO_CHECK(ue == emit_frontier_,
             "units must be emitted in descending contiguous order");
  emit_frontier_ = ub;

  for (const auto& [j, overlap] : part.Overlaps(Range{ub, ue})) {
    auto [seg_it, created] = segments_.try_emplace(j);
    Segment& seg = seg_it->second;
    if (created) {
      seg.data = ctx_->NewDevice(part.partition_size(), ctx_->work_dtype());
      seg.data.FillZero();
    }
    const std::int64_t local = overlap.begin - part.PartitionRange(j).begin;
    const float* src = grad.data() + (overlap.begin - ub);
    if (ctx_->cfg->fp16) {
      Half* dst = seg.data.f16().data() + local;
      for (std::int64_t i = 0; i < overlap.size(); ++i) {
        dst[i] = Half(src[i] * ctx_->loss_scale);
      }
    } else {
      std::memcpy(seg.data.f32().data() + local, src,
                  static_cast<std::size_t>(overlap.size()) * sizeof(float));
    }
    seg.covered += overlap.size();
    ZERO_CHECK(seg.covered <= part.PartitionRangeClipped(j).size(),
               "partition coverage overflow");
    if (seg.covered == part.PartitionRangeClipped(j).size()) {
      Flush(j);
    }
  }
  // Fold in whatever peer contributions have already arrived for the
  // reduction this rank owns, without blocking backward.
  Progress(/*block=*/false);
}

void GradBucketizer::Flush(int j) {
  TRACE_SPAN("grads/bucket_flush");
  auto it = segments_.find(j);
  ZERO_CHECK(it != segments_.end(), "flushing a partition with no segment");
  Segment seg = std::move(it->second);
  segments_.erase(it);

  if (ctx_->cfg->exact_reductions) {
    FlushExact(j, seg);
    return;
  }
  if (ctx_->qgz && ctx_->nd() > 1) {
    FlushHier(j, seg);
    return;
  }
  if (ctx_->nd() == 1) {
    std::memcpy(owner_grads_->raw(), seg.data.raw(), owner_grads_->nbytes());
    ctx_->NotifyGradFinal(
        0, owner_grads_->numel(),
        std::span<const std::byte>(owner_grads_->raw(),
                                   owner_grads_->nbytes()));
    return;
  }

  // CB (Sec 6.2): issue the reduction in constant-size chunks so the
  // fused communication buffer does not grow with the model. Every rank
  // reaches this flush at the same logical point of its backward, so the
  // tags drawn from the shared sequence line up across ranks.
  const std::int64_t shard = ctx_->part->partition_size();
  const std::size_t elem =
      ctx_->cfg->fp16 ? sizeof(Half) : sizeof(float);
  const std::int64_t num_chunks =
      (shard + ctx_->cfg->bucket_elems - 1) / ctx_->cfg->bucket_elems;

  if (ctx_->rank() == j) {
    ZERO_CHECK(!pending_.has_value(),
               "a rank owns exactly one partition reduction at a time");
    PendingReduce pr;
    pr.acc = std::move(seg.data);
    for (int r = 0; r < ctx_->nd(); ++r) {
      if (r != j) pr.peers.push_back(r);
    }
    pr.num_chunks = num_chunks;
    pr.chunk_elems = ctx_->cfg->bucket_elems;
    const std::size_t npeers = pr.peers.size();
    pr.staging.resize(static_cast<std::size_t>(num_chunks) * npeers);
    pr.requests.resize(static_cast<std::size_t>(num_chunks) * npeers);
    pr.next_peer.assign(static_cast<std::size_t>(num_chunks), 0);
    for (std::int64_t c = 0; c < num_chunks; ++c) {
      const std::uint64_t tag = ctx_->p2p_tag++;
      const auto [off, len] = ChunkSpan(c);
      (void)off;
      for (std::size_t k = 0; k < npeers; ++k) {
        const std::size_t idx = static_cast<std::size_t>(c) * npeers + k;
        pr.staging[idx].resize(static_cast<std::size_t>(len) * elem);
        pr.requests[idx] = ctx_->dp->IsRecvBytes(
            pr.peers[k], std::span<std::byte>(pr.staging[idx]), tag);
      }
    }
    pending_.emplace(std::move(pr));
  } else {
    const std::byte* base = seg.data.raw();
    for (std::int64_t c = 0; c < num_chunks; ++c) {
      const std::uint64_t tag = ctx_->p2p_tag++;
      const auto [off, len] = ChunkSpan(c);
      (void)ctx_->dp->IsSendBytes(
          j,
          std::span<const std::byte>(
              base + static_cast<std::size_t>(off) * elem,
              static_cast<std::size_t>(len) * elem),
          tag);
    }
    // "After the reduction we no longer need the gradients and their
    // memory can be released" (Sec 5.2) — the deposits are buffered, so
    // the segment dies here while the bytes are in flight.
  }
}

void GradBucketizer::FlushExact(int j, Segment& seg) {
  const std::int64_t shard = ctx_->part->partition_size();
  for (std::int64_t off = 0; off < shard; off += ctx_->cfg->bucket_elems) {
    const std::int64_t len = std::min(ctx_->cfg->bucket_elems, shard - off);
    ctx_->ExactReduceToRoot(
        seg.data.f32().subspan(static_cast<std::size_t>(off),
                               static_cast<std::size_t>(len)),
        j);
  }
  if (ctx_->rank() == j) {
    std::memcpy(owner_grads_->raw(), seg.data.raw(), owner_grads_->nbytes());
    ctx_->NotifyGradFinal(
        0, owner_grads_->numel(),
        std::span<const std::byte>(owner_grads_->raw(),
                                   owner_grads_->nbytes()));
  }
}

void GradBucketizer::FlushHier(int j, Segment& seg) {
  TRACE_SPAN("grads/bucket_flush_hier");
  ZERO_CHECK(ctx_->cfg->fp16 && ctx_->local != nullptr,
             "qgZ flush requires fp16 mode and a node slice");
  const std::int64_t shard = ctx_->part->partition_size();
  const std::int64_t num_chunks =
      (shard + ctx_->cfg->bucket_elems - 1) / ctx_->cfg->bucket_elems;
  const int s = ctx_->node_size;
  const int r = ctx_->rank();
  const int lo = j % s;          // owner's local index == relay index
  const int owner_node = j / s;
  const int my_node = r / s;
  const int nodes = ctx_->nd() / s;

  // Every rank draws the same two tags per chunk (intra fold, inter
  // hop) whatever its role, keeping the shared sequence aligned.
  std::vector<std::uint64_t> intra_tags(static_cast<std::size_t>(num_chunks));
  std::vector<std::uint64_t> inter_tags(static_cast<std::size_t>(num_chunks));
  for (std::int64_t c = 0; c < num_chunks; ++c) {
    intra_tags[static_cast<std::size_t>(c)] = ctx_->p2p_tag++;
    inter_tags[static_cast<std::size_t>(c)] = ctx_->p2p_tag++;
  }

  if (r % s != lo) {
    // Non-relay: the fp16 segment chunks go to this node's relay over
    // the intra-node communicator; buffered deposits, segment released.
    const std::byte* base = seg.data.raw();
    for (std::int64_t c = 0; c < num_chunks; ++c) {
      const auto [off, len] = ChunkSpan(c);
      (void)ctx_->local->IsSendBytes(
          lo,
          std::span<const std::byte>(
              base + static_cast<std::size_t>(off) * sizeof(Half),
              static_cast<std::size_t>(len) * sizeof(Half)),
          intra_tags[static_cast<std::size_t>(c)]);
    }
    return;
  }

  // Relay (the owner is its own node's relay): widen this rank's
  // contribution to fp32 — the intra-node fold accumulates in full
  // precision, which is what makes the quantized inter-node hop the
  // only lossy link of the path.
  HierReduce h;
  h.partition = j;
  h.owner = (r == j);
  h.num_chunks = num_chunks;
  h.inter_tags = std::move(inter_tags);
  h.acc32.resize(static_cast<std::size_t>(shard));
  tensor::CastHalfToFloat(seg.data.f16().data(), h.acc32.data(), shard);
  for (int k = 0; k < s; ++k) {
    if (k != lo) h.local_peers.push_back(k);
  }
  const std::size_t npeers = h.local_peers.size();
  h.intra_staging.resize(static_cast<std::size_t>(num_chunks) * npeers);
  h.intra_reqs.resize(static_cast<std::size_t>(num_chunks) * npeers);
  h.intra_next.assign(static_cast<std::size_t>(num_chunks), 0);
  h.intra_done.assign(static_cast<std::size_t>(num_chunks), 0);
  for (std::int64_t c = 0; c < num_chunks; ++c) {
    const auto [off, len] = ChunkSpan(c);
    (void)off;
    for (std::size_t k = 0; k < npeers; ++k) {
      const std::size_t idx = static_cast<std::size_t>(c) * npeers + k;
      h.intra_staging[idx].resize(static_cast<std::size_t>(len) *
                                  sizeof(Half));
      h.intra_reqs[idx] = ctx_->local->IsRecvBytes(
          h.local_peers[k], std::span<std::byte>(h.intra_staging[idx]),
          intra_tags[static_cast<std::size_t>(c)]);
    }
  }
  if (h.owner) {
    for (int n = 0; n < nodes; ++n) {
      if (n != owner_node) h.remote_relays.push_back(n * s + lo);
    }
    const std::size_t nrelays = h.remote_relays.size();
    h.inter_staging.resize(static_cast<std::size_t>(num_chunks) * nrelays);
    h.inter_reqs.resize(static_cast<std::size_t>(num_chunks) * nrelays);
    h.inter_next.assign(static_cast<std::size_t>(num_chunks), 0);
    h.chunk_final.assign(static_cast<std::size_t>(num_chunks), 0);
    for (std::int64_t c = 0; c < num_chunks; ++c) {
      const auto [off, len] = ChunkSpan(c);
      (void)off;
      const std::size_t wire =
          tensor::QuantWireBytes(len, ctx_->quant_block);
      for (std::size_t k = 0; k < nrelays; ++k) {
        const std::size_t idx = static_cast<std::size_t>(c) * nrelays + k;
        h.inter_staging[idx].resize(wire);
        h.inter_reqs[idx] = ctx_->dp->IsRecvBytes(
            h.remote_relays[k], std::span<std::byte>(h.inter_staging[idx]),
            h.inter_tags[static_cast<std::size_t>(c)]);
      }
    }
  }
  (void)my_node;
  hier_.push_back(std::move(h));
}

void GradBucketizer::ProgressHier(bool block) {
  for (HierReduce& h : hier_) {
    const std::size_t npeers = h.local_peers.size();
    const std::size_t nrelays = h.remote_relays.size();
    for (std::int64_t c = 0; c < h.num_chunks; ++c) {
      const auto [off, len] = ChunkSpan(c);
      const std::size_t ci = static_cast<std::size_t>(c);
      // Intra-node fold: widen-add local peers in ascending local-rank
      // order on top of the relay's own contribution.
      while (h.intra_next[ci] < npeers) {
        const std::size_t idx = ci * npeers + h.intra_next[ci];
        comm::CommRequest& req = h.intra_reqs[idx];
        if (block) {
          req.Wait();
        } else if (!req.Test()) {
          break;
        }
        const Half* peer =
            reinterpret_cast<const Half*>(h.intra_staging[idx].data());
        float* acc = h.acc32.data() + off;
        {
          TRACE_SPAN("grads/qgz_fold");
          for (std::int64_t i = 0; i < len; ++i) {
            acc[i] += peer[i].ToFloat();
          }
        }
        h.intra_staging[idx] = std::vector<std::byte>();
        if (++h.intra_next[ci] == npeers) {
          h.intra_done[ci] = 1;
          if (!h.owner) {
            // Remote relay: only the quantized fp32 partial crosses the
            // node boundary. The deposit is buffered; the wire vector
            // can die immediately.
            std::vector<std::byte> wire(
                tensor::QuantWireBytes(len, ctx_->quant_block));
            tensor::QuantizeF32(h.acc32.data() + off, len,
                                ctx_->quant_block, wire.data());
            comm::nb_detail::WireCounters(static_cast<std::size_t>(len),
                                          ctx_->quant_block);
            (void)ctx_->dp->IsSendBytes(h.partition,
                                        std::span<const std::byte>(wire),
                                        h.inter_tags[ci]);
            ++h.done_chunks;
          }
        }
      }
      // Owner inter-node fold: gated on the intra fold so the
      // bracketing (own node, then nodes ascending) is deterministic
      // whatever the arrival order.
      if (h.owner && h.intra_done[ci] != 0) {
        while (h.inter_next[ci] < nrelays) {
          const std::size_t idx = ci * nrelays + h.inter_next[ci];
          comm::CommRequest& req = h.inter_reqs[idx];
          if (block) {
            req.Wait();
          } else if (!req.Test()) {
            break;
          }
          {
            TRACE_SPAN("grads/qgz_fold");
            tensor::DequantizeAddF32(h.inter_staging[idx].data(), len,
                                     ctx_->quant_block,
                                     h.acc32.data() + off);
          }
          h.inter_staging[idx] = std::vector<std::byte>();
          ++h.inter_next[ci];
        }
        if (h.inter_next[ci] == nrelays && h.chunk_final[ci] == 0) {
          // All node partials folded: narrow this chunk of the owner's
          // partition gradient into the persistent store and report
          // finality (the offload stream hook).
          Half* dst = owner_grads_->f16().data() + off;
          tensor::CastFloatToHalf(h.acc32.data() + off, dst, len);
          ctx_->NotifyGradFinal(
              off, len,
              std::span<const std::byte>(
                  reinterpret_cast<const std::byte*>(dst),
                  static_cast<std::size_t>(len) * sizeof(Half)));
          h.chunk_final[ci] = 1;
          ++h.done_chunks;
        }
      }
    }
  }
  std::erase_if(hier_, [](const HierReduce& h) {
    return h.done_chunks == h.num_chunks;
  });
}

void GradBucketizer::MergeChunk(std::int64_t c, std::size_t peer_index) {
  PendingReduce& pr = *pending_;
  const auto [off, len] = ChunkSpan(c);
  std::vector<std::byte>& raw =
      pr.staging[static_cast<std::size_t>(c) * pr.peers.size() + peer_index];
  if (ctx_->cfg->fp16) {
    comm::detail::AccumulateInto(
        pr.acc.f16().data() + off,
        reinterpret_cast<const Half*>(raw.data()),
        static_cast<std::size_t>(len), comm::ReduceOp::kSum);
  } else {
    comm::detail::AccumulateInto(
        pr.acc.f32().data() + off,
        reinterpret_cast<const float*>(raw.data()),
        static_cast<std::size_t>(len), comm::ReduceOp::kSum);
  }
  raw = std::vector<std::byte>();  // release the staging early
}

void GradBucketizer::Progress(bool block) {
  if (!hier_.empty()) ProgressHier(block);
  if (!pending_.has_value()) return;
  PendingReduce& pr = *pending_;
  const std::size_t npeers = pr.peers.size();
  for (std::int64_t c = 0; c < pr.num_chunks; ++c) {
    auto& cursor = pr.next_peer[static_cast<std::size_t>(c)];
    // Within a chunk, peers merge in ascending rank order so the sum
    // bracketing (owner, then rank 0, 1, ...) is deterministic no
    // matter the arrival order.
    while (cursor < npeers) {
      comm::CommRequest& req =
          pr.requests[static_cast<std::size_t>(c) * npeers + cursor];
      if (block) {
        req.Wait();
      } else if (!req.Test()) {
        break;
      }
      MergeChunk(c, cursor);
      ++cursor;
      if (cursor == npeers) {
        ++pr.merged_chunks;
        // Every peer is folded in: this chunk of the owner's partition
        // gradient is final and can stream to the offload tier while
        // backward (and the rest of the reduction) continues.
        const auto [off, len] = ChunkSpan(c);
        const std::size_t elem =
            ctx_->cfg->fp16 ? sizeof(Half) : sizeof(float);
        ctx_->NotifyGradFinal(
            off, len,
            std::span<const std::byte>(
                pr.acc.raw() + static_cast<std::size_t>(off) * elem,
                static_cast<std::size_t>(len) * elem));
      }
    }
  }
  if (pr.merged_chunks == pr.num_chunks) {
    FinishPending();
  }
}

void GradBucketizer::FinishPending() {
  // The reduced partition gradient lands in this rank's persistent
  // (1/Nd-sized) gradient store.
  std::memcpy(owner_grads_->raw(), pending_->acc.raw(),
              owner_grads_->nbytes());
  pending_.reset();
}

void GradBucketizer::Drain() {
  ZERO_CHECK(emit_frontier_ == 0 && segments_.empty(),
             "backward did not cover the full parameter space");
  // Time the blocking tail of the reduction: this is the bucket-flush
  // wait the overlap machinery exists to hide.
  const std::uint64_t t0 = obs::TraceNowNs();
  Progress(/*block=*/true);
  static obs::Histogram& drain_us =
      obs::Metrics().histogram("bucket.drain_wait_us");
  drain_us.Observe(static_cast<double>(obs::TraceNowNs() - t0) / 1000.0);
  ZERO_CHECK(!pending_.has_value() && hier_.empty(),
             "in-flight reduction failed to drain");
}

void GradBucketizer::Reset() {
  if (pending_.has_value()) {
    // Cancel before dropping: a chunk that already arrived is drained so
    // it cannot be mistaken for a later step's payload, and the staging
    // buffers are released from the requests before they die.
    for (comm::CommRequest& r : pending_->requests) r.Cancel();
  }
  for (HierReduce& h : hier_) {
    for (comm::CommRequest& r : h.intra_reqs) r.Cancel();
    for (comm::CommRequest& r : h.inter_reqs) r.Cancel();
  }
  segments_.clear();
  pending_.reset();
  hier_.clear();
  emit_frontier_ = 0;
}

}  // namespace zero::core
