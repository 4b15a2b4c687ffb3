#include "comm/communicator.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

#include "obs/metrics.hpp"

namespace zero::comm {

Communicator::Communicator(RankContext& ctx, std::vector<int> members,
                           std::uint64_t group_id)
    : ctx_(&ctx), members_(std::move(members)), group_id_(group_id) {
  ZERO_CHECK(!members_.empty(), "empty communicator group");
  auto it = std::find(members_.begin(), members_.end(), ctx.rank);
  ZERO_CHECK(it != members_.end(),
             "rank " + std::to_string(ctx.rank) + " not in group");
  my_index_ = static_cast<int>(it - members_.begin());
  for (int m : members_) {
    ZERO_CHECK(m >= 0 && m < ctx.world_size, "group member out of range");
  }
  // Internal collective tags live above the user tag space.
  op_seq_ = kUserTagLimit;
}

Communicator Communicator::WholeWorld(RankContext& ctx) {
  std::vector<int> all(static_cast<std::size_t>(ctx.world_size));
  std::iota(all.begin(), all.end(), 0);
  return Communicator(ctx, std::move(all), /*group_id=*/0);
}

void Communicator::Barrier() {
  FaultPoint("barrier");
  // Distinct barrier key per group; all members pass the same key.
  ctx_->world->SharedBarrier(0x5A5A000000000000ull ^ group_id_, size())
      .Arrive();
}

void Communicator::FaultPoint(const char* site) {
  World* w = ctx_->world;
  if (FaultHooks* hooks = w->fault_hooks()) {
    hooks->AtPoint(ctx_->rank, site);  // may throw / block / sleep
  }
  if (w->comm_deadline_ns() != 0) {
    w->health().Beat(ctx_->rank, obs::TraceNowNs());
    if (w->health().AbortRequested()) {
      throw StepAbortedError("step aborted at fault point '" +
                             std::string(site) + "' on rank " +
                             std::to_string(ctx_->rank));
    }
  }
}

void Communicator::SendBytes(int peer, std::span<const std::byte> data,
                             std::uint64_t tag) {
  ZERO_CHECK(peer >= 0 && peer < size(), "send peer out of range");
  const int global_peer = members_[static_cast<std::size_t>(peer)];
  World* w = ctx_->world;
  int deposits = 1;
  if (FaultHooks* hooks = w->fault_hooks()) {
    const FaultSendVerdict v =
        hooks->OnSend(ctx_->rank, global_peer, tag, data.size());
    if (v.delay_ns != 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(v.delay_ns));
    }
    deposits = v.drop ? 0 : 1 + v.duplicates;
  }
  if (w->comm_deadline_ns() != 0) {
    w->health().Beat(ctx_->rank, obs::TraceNowNs());
  }
  for (int i = 0; i < deposits; ++i) {
    w->mailbox(global_peer).Deposit(ctx_->rank, tag ^ (group_id_ << 52), data);
  }
  stats_.bytes_sent += data.size();
  ++stats_.messages_sent;
}

std::vector<std::byte> Communicator::RecvBytes(int peer, std::uint64_t tag) {
  ZERO_CHECK(peer >= 0 && peer < size(), "recv peer out of range");
  const int global_peer = members_[static_cast<std::size_t>(peer)];
  World* w = ctx_->world;
  Mailbox& box = w->mailbox(ctx_->rank);
  const std::uint64_t full_tag = tag ^ (group_id_ << 52);
  const std::uint64_t deadline_ns = w->comm_deadline_ns();
  const std::uint64_t wait_start = deadline_ns != 0 ? obs::TraceNowNs() : 0;
  std::vector<std::byte> msg;

  // The whole take loop is blocked time: the span makes mailbox waits
  // inside ring collectives visible as a stall class to the step
  // critical-path analyzer (a message already queued costs ~nothing).
  TRACE_SPAN("comm/recv_wait");
  for (;;) {
    // A queued message wins over failure state (checked inside TakeFor's
    // predicate too): drain what was delivered before unwinding, so a
    // completed send is never lost to a concurrent abort.
    if (w->health().IsDead(global_peer)) {
      const TakeStatus st =
          box.TakeFor(global_peer, full_tag, std::chrono::nanoseconds(0), msg);
      if (st == TakeStatus::kOk) break;
      throw PeerFailedError(
          global_peer, "recv from rank " + std::to_string(global_peer) +
                           " which is dead: " +
                           w->health().DeathReason(global_peer));
    }
    if (w->health().AbortRequested()) {
      const TakeStatus st =
          box.TakeFor(global_peer, full_tag, std::chrono::nanoseconds(0), msg);
      if (st == TakeStatus::kOk) break;
      throw StepAbortedError("recv aborted on rank " +
                             std::to_string(ctx_->rank) +
                             ": step abort requested");
    }
    if (deadline_ns != 0) {
      w->health().Beat(ctx_->rank, obs::TraceNowNs());
    }
    const TakeStatus st = box.TakeFor(
        global_peer, full_tag,
        deadline_ns == 0 ? Mailbox::kForever
                         : std::chrono::nanoseconds(deadline_ns),
        msg);
    if (st == TakeStatus::kOk) break;
    if (st == TakeStatus::kShutdown) {
      throw CommError("mailbox shut down during recv on rank " +
                      std::to_string(ctx_->rank));
    }
    if (st == TakeStatus::kInterrupted) continue;  // re-check failure state

    // kTimeout: decide between a dead peer (no heartbeat for a full
    // deadline window) and a lost/stalled message (peer still beating).
    const std::uint64_t now = obs::TraceNowNs();
    const std::uint64_t last_seen =
        std::max(w->health().LastBeatNs(global_peer), wait_start);
    if (now >= last_seen + deadline_ns) {
      static obs::Counter& detected =
          obs::Metrics().counter("fault.detected_failures");
      detected.Add();
      w->DeclareDead(global_peer,
                     "no heartbeat within deadline (detected by rank " +
                         std::to_string(ctx_->rank) + ")");
      throw PeerFailedError(global_peer,
                            "rank " + std::to_string(global_peer) +
                                " missed its heartbeat deadline");
    }
    if (now >= wait_start + static_cast<std::uint64_t>(kStallFactor) *
                                deadline_ns) {
      throw CommTimeoutError(
          "recv on rank " + std::to_string(ctx_->rank) + " from rank " +
          std::to_string(global_peer) + " tag " + std::to_string(tag) +
          " stalled: peer is alive but the message never arrived");
    }
    // Peer is alive and we are within the stall budget: keep waiting.
  }
  stats_.bytes_received += msg.size();
  return msg;
}

std::optional<std::vector<std::byte>> Communicator::TryRecvBytes(
    int peer, std::uint64_t tag) {
  ZERO_CHECK(peer >= 0 && peer < size(), "recv peer out of range");
  const int global_peer = members_[static_cast<std::size_t>(peer)];
  std::optional<std::vector<std::byte>> msg =
      ctx_->world->mailbox(ctx_->rank)
          .TryTake(global_peer, tag ^ (group_id_ << 52));
  if (msg.has_value()) {
    stats_.bytes_received += msg->size();
  }
  return msg;
}

CommRequest Communicator::IsSendBytes(int peer,
                                      std::span<const std::byte> data,
                                      std::uint64_t tag) {
  // The deposit copies the payload into the receiver's mailbox, so the
  // operation is complete before this call returns.
  SendBytes(peer, data, tag);
  auto state = std::make_shared<CommRequest::State>();
  state->comm = this;
  state->peer = peer;
  state->tag = tag;
  state->done = true;
  return CommRequest(std::move(state));
}

CommRequest Communicator::IsRecvBytes(int peer, std::span<std::byte> out,
                                      std::uint64_t tag) {
  ZERO_CHECK(peer >= 0 && peer < size(), "recv peer out of range");
  auto state = std::make_shared<CommRequest::State>();
  state->comm = this;
  state->peer = peer;
  state->tag = tag;
  state->out = out;
  state->recv = true;
  return CommRequest(std::move(state));
}

void CommRequest::Complete(std::vector<std::byte> msg) {
  ZERO_CHECK(msg.size() == state_->out.size(),
             "IsRecv size mismatch: expected " +
                 std::to_string(state_->out.size()) + ", got " +
                 std::to_string(msg.size()));
  if (!msg.empty()) std::memcpy(state_->out.data(), msg.data(), msg.size());
  state_->done = true;
}

void CommRequest::Wait() {
  if (done()) return;
  // A blocking wait on a pending recv is exactly the "all-gather stall" /
  // "bucket-flush wait" the step report wants visible: record how long
  // the rank sat here.
  TRACE_SPAN("comm/p2p_wait");
  const std::uint64_t t0 = obs::TraceNowNs();
  Complete(state_->comm->RecvBytes(state_->peer, state_->tag));
  static obs::Histogram& wait_us = obs::Metrics().histogram("comm.p2p_wait_us");
  wait_us.Observe(static_cast<double>(obs::TraceNowNs() - t0) / 1000.0);
}

bool CommRequest::Test() {
  if (done()) return true;
  std::optional<std::vector<std::byte>> msg =
      state_->comm->TryRecvBytes(state_->peer, state_->tag);
  if (!msg.has_value()) return false;
  Complete(std::move(*msg));
  return true;
}

void CommRequest::Cancel() {
  if (!state_ || state_->done) {
    state_.reset();
    return;
  }
  if (state_->recv) {
    // Drain a message that already landed so it cannot be mistaken for a
    // later operation's payload. Tags are never reused, so a message
    // arriving after this point is simply inert.
    (void)state_->comm->TryRecvBytes(state_->peer, state_->tag);
  }
  state_->out = {};
  state_->done = true;
  state_.reset();
}

std::uint64_t Communicator::BeginCollective(const char* site, int sub_ops) {
  FaultPoint(site);
  stats_.collectives += static_cast<std::uint64_t>(sub_ops);
  return NextSeq();
}

std::pair<std::size_t, std::size_t> Communicator::ChunkRange(
    std::size_t total, int chunk_index) const {
  const auto p = static_cast<std::size_t>(size());
  const auto i = static_cast<std::size_t>(chunk_index);
  const std::size_t base = total / p;
  const std::size_t rem = total % p;
  const std::size_t begin = i * base + std::min(i, rem);
  const std::size_t len = base + (i < rem ? 1 : 0);
  return {begin, begin + len};
}

}  // namespace zero::comm
