// Collective communication over a group of in-process ranks.
//
// Algorithms are the bandwidth-optimal ring schedules NCCL uses, executed
// as real message-passing over mailboxes:
//   - ReduceScatter: p-1 steps; rank r ends holding chunk r, fully
//     reduced. Per-rank volume (p-1)/p * M  (~= M, "Psi" in the paper).
//   - AllGather: p-1 steps; per-rank volume (p-1)/p * M.
//   - AllReduce = ReduceScatter + AllGather; per-rank volume ~= 2M —
//     exactly the 2*Psi baseline-DP accounting of Sec 7.1.
//   - Broadcast: ring-pipelined; per-rank volume ~= M, which is what
//     makes the stage-3 schedule cost Psi per pass (Sec 7.2.2).
//
// Each schedule exists once, as a resumable state machine (nb_detail
// below). IAllReduce / IReduceScatter / IAllGather / IBroadcast launch a
// machine and return a waitable CollectiveRequest; the blocking member
// collectives are the same launch followed by Wait().
//
// Every byte sent/received is counted in CommStats, so the paper's
// communication-volume claims are verified by measurement in the tests
// and the comm_volume_analysis bench.
//
// SPMD contract: all ranks of a group must call the same collectives in
// the same order (enforced cheaply via a per-group operation sequence
// number embedded in message tags).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/world.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "obs/trace.hpp"

namespace zero::comm {

enum class ReduceOp : unsigned char { kSum, kMax };

struct CommStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t collectives = 0;

  CommStats& operator+=(const CommStats& o) {
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    messages_sent += o.messages_sent;
    collectives += o.collectives;
    return *this;
  }
  // Counters are monotonic, so a-b is only meaningful when a was sampled
  // after b on the same communicator; CommDelta provides that pattern.
  CommStats& operator-=(const CommStats& o) {
    bytes_sent -= o.bytes_sent;
    bytes_received -= o.bytes_received;
    messages_sent -= o.messages_sent;
    collectives -= o.collectives;
    return *this;
  }
  friend CommStats operator+(CommStats a, const CommStats& b) {
    a += b;
    return a;
  }
  friend CommStats operator-(CommStats a, const CommStats& b) {
    a -= b;
    return a;
  }
  friend bool operator==(const CommStats& a, const CommStats& b) {
    return a.bytes_sent == b.bytes_sent &&
           a.bytes_received == b.bytes_received &&
           a.messages_sent == b.messages_sent &&
           a.collectives == b.collectives;
  }
};

namespace detail {
// Reduction arithmetic runs in the promoted type: Half promotes through
// fp32 the way tensor-core reductions do; every wider type accumulates
// natively.
template <typename T>
struct FpPromote {
  using type = T;
  static constexpr type Widen(T v) { return v; }
  static constexpr T Narrow(type v) { return v; }
};
template <>
struct FpPromote<Half> {
  using type = float;
  static float Widen(Half v) { return v.ToFloat(); }
  static Half Narrow(float v) { return Half(v); }
};

// Element-wise accumulate src into dst in the promoted type.
template <typename T>
inline void AccumulateInto(T* dst, const T* src, std::size_t n,
                           ReduceOp op) {
  using P = FpPromote<T>;
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < n; ++i)
        dst[i] = P::Narrow(P::Widen(dst[i]) + P::Widen(src[i]));
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < n; ++i)
        dst[i] = P::Narrow(std::max(P::Widen(dst[i]), P::Widen(src[i])));
      break;
  }
}

// fp16 runs the same widen-op-narrow per element, in stack blocks through
// the bulk converters (bit-exact with the scalar Half conversions).
template <>
inline void AccumulateInto<Half>(Half* dst, const Half* src, std::size_t n,
                                 ReduceOp op) {
  constexpr std::size_t kBlock = 256;
  float a[kBlock];
  float b[kBlock];
  for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
    const std::size_t len = std::min(kBlock, n - i0);
    HalfToFloat(dst + i0, a, len);
    HalfToFloat(src + i0, b, len);
    if (op == ReduceOp::kMax) {
      for (std::size_t k = 0; k < len; ++k) a[k] = std::max(a[k], b[k]);
    } else {
      for (std::size_t k = 0; k < len; ++k) a[k] += b[k];
    }
    FloatToHalf(a, dst + i0, len);
  }
}
}  // namespace detail

class Communicator;

// Handle to an in-flight nonblocking point-to-point operation started
// with Communicator::IsSend / IsRecv.
//
//   - Wait() blocks until the operation completes (for a recv: until the
//     matching message arrives and has been copied into the caller's
//     buffer).
//   - Test() polls: completes the operation if it can finish without
//     blocking and returns whether it is done.
//   - A default-constructed or already-completed request is done; Wait
//     and Test on it are no-ops. Requests may be completed in any order
//     relative to how they were posted.
//
// Handles are copyable (shared state); the receive buffer passed to
// IsRecv must stay alive and unmodified until the request completes.
class CommRequest {
 public:
  CommRequest() = default;

  void Wait();
  [[nodiscard]] bool Test();
  // Abandons a pending request: a matching message that already arrived
  // is drained and discarded; one that arrives later rots in the mailbox
  // under its never-reused tag. The landing buffer is released (safe to
  // free afterwards) and the request reads as done. Used by the abort /
  // elastic-resume paths to unwind with operations still in flight.
  void Cancel();
  [[nodiscard]] bool done() const { return !state_ || state_->done; }

 private:
  friend class Communicator;
  struct State {
    Communicator* comm = nullptr;
    int peer = -1;             // group-relative rank
    std::uint64_t tag = 0;
    std::span<std::byte> out;  // recv landing buffer (empty for sends)
    bool recv = false;
    bool done = false;
  };
  explicit CommRequest(std::shared_ptr<State> s) : state_(std::move(s)) {}
  void Complete(std::vector<std::byte> msg);

  std::shared_ptr<State> state_;
};

// One Communicator instance exists per rank per group (SPMD style: each
// rank constructs its own over the same member list and group id).
class Communicator {
 public:
  // `members` lists global ranks; this rank must be among them. group_id
  // must be identical on all members and unique per logical group.
  Communicator(RankContext& ctx, std::vector<int> members,
               std::uint64_t group_id);

  // Convenience: the whole world as one group.
  static Communicator WholeWorld(RankContext& ctx);

  [[nodiscard]] int rank() const { return my_index_; }
  [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }
  [[nodiscard]] int global_rank() const { return ctx_->rank; }
  [[nodiscard]] const CommStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CommStats{}; }

  void Barrier();

  // ---- fault tolerance ----
  // Named injectable point: runs the world's fault hooks (if any),
  // publishes a heartbeat (when a comm deadline is configured), and
  // surfaces a pending step abort as StepAbortedError. One pointer load
  // plus two relaxed atomic loads when fault tolerance is off. Called at
  // every collective entry; the engine calls it at the top of each
  // training step with site "step".
  void FaultPoint(const char* site);

  // ---- point to point (peer is a group-relative rank) ----
  void SendBytes(int peer, std::span<const std::byte> data, std::uint64_t tag);
  // Blocks until the matching message arrives. With a world comm
  // deadline configured, the wait is bounded and failure-aware: a peer
  // declared dead (or heartbeat-silent past the deadline) surfaces as
  // PeerFailedError, a pending step abort as StepAbortedError, and a
  // wait that starves past kStallFactor deadlines with the peer still
  // beating as CommTimeoutError (lost message). With deadline 0 the wait
  // is unbounded but still wakes when the world declares a death.
  [[nodiscard]] std::vector<std::byte> RecvBytes(int peer, std::uint64_t tag);
  // Nonblocking poll for a matching message; nullopt if none is queued.
  [[nodiscard]] std::optional<std::vector<std::byte>> TryRecvBytes(
      int peer, std::uint64_t tag);

  template <typename T>
  void Send(int peer, std::span<const T> data, std::uint64_t tag) {
    SendBytes(peer, std::as_bytes(data), tag);
  }
  template <typename T>
  void Recv(int peer, std::span<T> out, std::uint64_t tag) {
    std::vector<std::byte> raw = RecvBytes(peer, tag);
    ZERO_CHECK(raw.size() == out.size_bytes(),
               "Recv size mismatch: expected " +
                   std::to_string(out.size_bytes()) + ", got " +
                   std::to_string(raw.size()));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
  }

  // ---- nonblocking point to point ----
  // IsSend completes immediately: mailbox deposits are buffered, so the
  // payload is copied out before the call returns and the returned
  // request is already done. It exists so call sites can treat both
  // directions uniformly.
  CommRequest IsSendBytes(int peer, std::span<const std::byte> data,
                          std::uint64_t tag);
  // IsRecv registers `out` as the landing buffer for the next message
  // matching (peer, tag) and returns without blocking. The message is
  // consumed (and its size checked against `out`) when the request
  // completes via Wait or a successful Test.
  [[nodiscard]] CommRequest IsRecvBytes(int peer, std::span<std::byte> out,
                                        std::uint64_t tag);

  template <typename T>
  CommRequest IsSend(int peer, std::span<const T> data, std::uint64_t tag) {
    return IsSendBytes(peer, std::as_bytes(data), tag);
  }
  template <typename T>
  [[nodiscard]] CommRequest IsRecv(int peer, std::span<T> out,
                                   std::uint64_t tag) {
    return IsRecvBytes(peer, std::as_writable_bytes(out), tag);
  }

  // ---- collectives ----
  // Blocking: each launches the matching I* state machine below and waits
  // for it, so the two forms share one ring schedule, one tag block and
  // one CommStats count.

  // In-place sum/avg/max across the group. Any length.
  template <typename T>
  void AllReduce(std::span<T> data, ReduceOp op = ReduceOp::kSum);

  // data.size() must be divisible by size(); out.size() == data.size()/p.
  // On return, out holds this rank's fully reduced chunk. `data` is used
  // as scratch and left in an unspecified state.
  template <typename T>
  void ReduceScatter(std::span<T> data, std::span<T> out,
                     ReduceOp op = ReduceOp::kSum);

  // out.size() must equal chunk.size() * p; rank i's chunk lands at
  // offset i*chunk.size().
  template <typename T>
  void AllGather(std::span<const T> chunk, std::span<T> out);

  // Ring-pipelined broadcast from group rank `root`; per-rank volume ~= M.
  template <typename T>
  void Broadcast(std::span<T> data, int root);

  // A bounded wait gives up with CommTimeoutError (lost message) after
  // this many comm-deadline windows with the peer still heartbeating.
  static constexpr int kStallFactor = 8;

  // ---- ring machine support ----
  // Tag arithmetic and ring geometry shared by the collective state
  // machines below and the quantized ones (comm/quant_collectives.hpp).
  static constexpr std::uint64_t kStepStride = 1ull << 20;

  [[nodiscard]] int Next() const { return (rank() + 1) % size(); }
  [[nodiscard]] int Prev() const { return (rank() + size() - 1) % size(); }
  [[nodiscard]] int Distance(int from, int to) const {
    return (to - from + size()) % size();
  }
  // Chunk [begin, end) element range for ring step bookkeeping; chunks
  // are as even as possible (first `rem` chunks one element longer).
  [[nodiscard]] std::pair<std::size_t, std::size_t> ChunkRange(
      std::size_t total, int chunk_index) const;

  // Entry point for one collective launch: runs the fault point, counts
  // `sub_ops` collectives in stats, and returns the base tag sequence
  // (two kStepStride slots, so AllReduce's two phases fit in one launch).
  std::uint64_t BeginCollective(const char* site, int sub_ops = 1);

  // Group introspection for topology builders (comm/topology.hpp).
  [[nodiscard]] const std::vector<int>& members() const { return members_; }
  [[nodiscard]] RankContext& context() const { return *ctx_; }
  [[nodiscard]] std::uint64_t group_id() const { return group_id_; }

 private:
  // User-supplied point-to-point tags must stay below this; internal
  // collective tags are allocated above it.
  static constexpr std::uint64_t kUserTagLimit = 1ull << 40;

  std::uint64_t NextSeq() {
    // Two stride slots per collective so AllReduce's two phases never
    // collide with the next call's tags.
    const std::uint64_t s = op_seq_;
    op_seq_ += 2 * kStepStride;
    return s;
  }

  RankContext* ctx_;
  std::vector<int> members_;
  int my_index_;
  std::uint64_t group_id_;
  std::uint64_t op_seq_ = 0;
  CommStats stats_;
};

// ---- ring state machines ----
//
// Each launcher (IBroadcast / IAllGather / IReduceScatter / IAllReduce)
// runs the FaultPoint + tag-sequence bookkeeping, posts the first ring
// step, and returns a waitable CollectiveRequest. The machine advances
// whenever the owner drives it:
//
//   - Test()  completes as many ring steps as have messages queued and
//     returns whether the collective finished — never blocks. This is
//     what lets a rank *forward* pipeline chunks for its neighbours
//     while it is busy computing (the stage-3 prefetch overlap).
//   - Wait()  drives the machine to completion, blocking in the
//     failure-aware bounded RecvBytes, so comm deadlines, dead-peer
//     detection and step aborts all apply.
//   - Cancel() abandons the machine: pending receives are drained if
//     already delivered and their landing buffers released, so a rank
//     unwinding from a fault can destroy buffers safely. Tags are never
//     reused, so peers' stale messages rot harmlessly.
//
// Determinism contract: the accumulation bracketing is fixed by ring
// position alone. Ring chunk c (ChunkRange) reduces as
//   x[c] + (x[c-1] + (... + (x[c+2] + x[c+1])))   (rank indices mod p)
// in the FpPromote arithmetic, however the machine is driven (Test,
// Wait, or the blocking member collectives). The stage-equivalence and
// exact-reduction gates rely on this;
// tests/comm/nonblocking_collectives_test.cpp pins it against a serial
// fold.
//
// SPMD contract (deadlock freedom): all ranks must launch collectives in
// the same order, and must eventually Wait (or Cancel) each one. Between
// launch and Wait, arbitrary other collectives may run — progress of a
// machine only consumes messages carrying its own tag block. Because
// every send a machine performs is a buffered mailbox deposit, a rank
// that has finished its own Wait has already forwarded everything its
// neighbours need: no rank ever blocks on a peer that is merely idle.

namespace nb_detail {

// Base of all chunked collective state machines. Driven from the owning
// rank's thread only (no internal locking; the mailbox underneath is the
// cross-thread boundary).
class Machine {
 public:
  virtual ~Machine() = default;
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Advance as far as possible; with `blocking` the next pending message
  // is waited for instead of polled. Returns whether the machine is done.
  virtual bool Advance(bool blocking) = 0;
  virtual void Cancel() = 0;
  [[nodiscard]] bool done() const { return done_; }

 protected:
  Machine() = default;
  bool done_ = false;
};

// Ring-pipelined broadcast in p chunks; q = ring distance from root. The
// root's sends are buffered deposits, so the root is done at launch; every
// other rank receives chunk c from Prev and forwards it to Next unless
// it is the ring tail.
class BroadcastMachine final : public Machine {
 public:
  BroadcastMachine(Communicator& comm, std::span<std::byte> data, int root,
                   std::uint64_t seq)
      : comm_(&comm), data_(data), seq_(seq) {
    const int p = comm.size();
    if (p == 1 || data.empty()) {
      done_ = true;
      return;
    }
    q_ = comm.Distance(root, comm.rank());
    if (q_ == 0) {
      for (int c = 0; c < p; ++c) {
        auto [b, e] = comm.ChunkRange(data.size(), c);
        if (e == b) continue;
        comm.SendBytes(comm.Next(),
                       std::span<const std::byte>(data.subspan(b, e - b)),
                       seq + static_cast<std::uint64_t>(c));
      }
      done_ = true;
      return;
    }
    recvs_.resize(static_cast<std::size_t>(p));
    for (int c = 0; c < p; ++c) {
      auto [b, e] = comm.ChunkRange(data.size(), c);
      if (e == b) continue;
      recvs_[static_cast<std::size_t>(c)] = comm.IsRecvBytes(
          comm.Prev(), data.subspan(b, e - b),
          seq + static_cast<std::uint64_t>(c));
    }
  }

  bool Advance(bool blocking) override {
    const int p = comm_->size();
    while (cursor_ < p) {
      auto [b, e] = comm_->ChunkRange(data_.size(), cursor_);
      if (e != b) {
        CommRequest& r = recvs_[static_cast<std::size_t>(cursor_)];
        if (blocking) {
          r.Wait();
        } else if (!r.Test()) {
          return false;
        }
        if (q_ != p - 1) {
          comm_->SendBytes(
              comm_->Next(),
              std::span<const std::byte>(data_.subspan(b, e - b)),
              seq_ + static_cast<std::uint64_t>(cursor_));
        }
      }
      ++cursor_;
    }
    done_ = true;
    return true;
  }

  void Cancel() override {
    for (CommRequest& r : recvs_) r.Cancel();
    recvs_.clear();
    done_ = true;
  }

 private:
  Communicator* comm_;
  std::span<std::byte> data_;
  std::uint64_t seq_;
  int q_ = 0;       // ring distance from root
  int cursor_ = 0;  // next chunk to complete-and-forward, in order
  std::vector<CommRequest> recvs_;
};

// In-place ring all-gather: at step s rank r forwards chunk r-s and
// receives chunk r-s-1 straight into place. Untyped: gathers move bytes only, so element ranges are scaled to byte
// ranges up front.
class GatherMachine final : public Machine {
 public:
  GatherMachine(Communicator& comm, std::byte* base, std::size_t elems,
                std::size_t elem_size, std::uint64_t seq)
      : comm_(&comm),
        base_(base),
        elems_(elems),
        elem_size_(elem_size),
        seq_(seq) {
    if (comm.size() == 1) {
      done_ = true;
      return;
    }
    StartStep();
  }

  bool Advance(bool blocking) override {
    const int p = comm_->size();
    while (s_ < p - 1) {
      if (blocking) {
        recv_.Wait();
      } else if (!recv_.Test()) {
        return false;
      }
      if (++s_ < p - 1) StartStep();
    }
    done_ = true;
    return true;
  }

  void Cancel() override {
    recv_.Cancel();
    done_ = true;
  }

 private:
  void StartStep() {
    const int p = comm_->size();
    const int r = comm_->rank();
    const int send_chunk = (r - s_ + 2 * p) % p;
    const int recv_chunk = (r - s_ - 1 + 2 * p) % p;
    auto [sb, se] = comm_->ChunkRange(elems_, send_chunk);
    auto [rb, re] = comm_->ChunkRange(elems_, recv_chunk);
    comm_->SendBytes(
        comm_->Next(),
        std::span<const std::byte>(base_ + sb * elem_size_,
                                   (se - sb) * elem_size_),
        seq_ + static_cast<std::uint64_t>(s_));
    recv_ = comm_->IsRecvBytes(
        comm_->Prev(),
        std::span<std::byte>(base_ + rb * elem_size_, (re - rb) * elem_size_),
        seq_ + static_cast<std::uint64_t>(s_));
  }

  Communicator* comm_;
  std::byte* base_;
  std::size_t elems_;
  std::size_t elem_size_;
  std::uint64_t seq_;
  int s_ = 0;  // ring step
  CommRequest recv_;
};

// In-place ring reduce-scatter phase followed by an optional finishing
// action (copy-out for IReduceScatter, the all-gather phase for
// IAllReduce). At step s rank r forwards its partial of chunk r-s-1
// and folds the received partial of chunk r-s-2 into its own buffer
// (own + received), so rank r ends holding chunk r with the bracketing
// of the determinism contract above.
template <typename T>
class ReducePhaseMachine : public Machine {
 public:
  ReducePhaseMachine(Communicator& comm, std::span<T> data, ReduceOp op,
                     std::uint64_t seq)
      : comm_(&comm), data_(data), op_(op), seq_(seq) {
    // size()==1 leaves the ring loop empty; the first Advance runs the
    // finishing action (OnReduceDone is virtual, so it cannot run here).
    if (comm.size() > 1) StartStep();
  }

  bool Advance(bool blocking) override {
    const int p = comm_->size();
    while (s_ < p - 1) {
      if (blocking) {
        recv_.Wait();
      } else if (!recv_.Test()) {
        return false;
      }
      detail::AccumulateInto(data_.data() + acc_begin_, staging_.data(),
                             staging_.size(), op_);
      if (++s_ < p - 1) StartStep();
    }
    if (!done_) OnReduceDone();
    return done_ ? true : Advance(blocking);
  }

  void Cancel() override {
    recv_.Cancel();
    done_ = true;
  }

 protected:
  // Called once when the reduce phase completes; sets done_ or arms a
  // follow-up phase (in which case Advance recurses into it).
  virtual void OnReduceDone() = 0;

  Communicator* comm_;
  std::span<T> data_;
  ReduceOp op_;
  std::uint64_t seq_;

 private:
  void StartStep() {
    const int p = comm_->size();
    const int r = comm_->rank();
    const int send_chunk = (r - s_ - 1 + 2 * p) % p;
    const int recv_chunk = (r - s_ - 2 + 2 * p) % p;
    auto [sb, se] = comm_->ChunkRange(data_.size(), send_chunk);
    auto [rb, re] = comm_->ChunkRange(data_.size(), recv_chunk);
    comm_->Send(comm_->Next(),
                std::span<const T>(data_.data() + sb, se - sb),
                seq_ + static_cast<std::uint64_t>(s_));
    staging_.resize(re - rb);
    acc_begin_ = rb;
    recv_ = comm_->IsRecv(comm_->Prev(), std::span<T>(staging_),
                          seq_ + static_cast<std::uint64_t>(s_));
  }

  int s_ = 0;
  std::size_t acc_begin_ = 0;
  std::vector<T> staging_;
  CommRequest recv_;
};

template <typename T>
class ReduceScatterMachine final : public ReducePhaseMachine<T> {
 public:
  ReduceScatterMachine(Communicator& comm, std::span<T> data, std::span<T> out,
                       ReduceOp op, std::uint64_t seq)
      : ReducePhaseMachine<T>(comm, data, op, seq), out_(out) {}

 protected:
  void OnReduceDone() override {
    const std::size_t chunk =
        this->data_.size() / static_cast<std::size_t>(this->comm_->size());
    std::memcpy(out_.data(),
                this->data_.data() +
                    chunk * static_cast<std::size_t>(this->comm_->rank()),
                chunk * sizeof(T));
    this->done_ = true;
  }

 private:
  std::span<T> out_;
};

template <typename T>
class AllReduceMachine final : public ReducePhaseMachine<T> {
 public:
  AllReduceMachine(Communicator& comm, std::span<T> data, ReduceOp op,
                   std::uint64_t seq)
      : ReducePhaseMachine<T>(comm, data, op, seq) {}

  bool Advance(bool blocking) override {
    if (gather_) {
      if (!gather_->Advance(blocking)) return false;
      this->done_ = true;
      return true;
    }
    return ReducePhaseMachine<T>::Advance(blocking);
  }

  void Cancel() override {
    if (gather_) gather_->Cancel();
    ReducePhaseMachine<T>::Cancel();
  }

 protected:
  void OnReduceDone() override {
    if (this->comm_->size() == 1) {
      this->done_ = true;  // single rank: reduction is the identity
      return;
    }
    // The launch's second kStepStride slot.
    gather_ = std::make_unique<GatherMachine>(
        *this->comm_, reinterpret_cast<std::byte*>(this->data_.data()),
        this->data_.size(), sizeof(T), this->seq_ + Communicator::kStepStride);
    // The fresh gather may already be able to run (2-rank groups: the
    // peer's send could be queued); let the caller's loop drive it.
  }

 private:
  std::unique_ptr<GatherMachine> gather_;
};

}  // namespace nb_detail

// Handle to an in-flight nonblocking collective. Copyable (shared
// machine); drive it from the owning rank's thread only. The data
// buffers passed at launch must stay alive and unmodified (except by the
// collective itself) until the request completes or is cancelled.
class CollectiveRequest {
 public:
  CollectiveRequest() = default;
  explicit CollectiveRequest(std::shared_ptr<nb_detail::Machine> m)
      : m_(std::move(m)) {}

  // Completes as many ring steps as possible without blocking; returns
  // whether the collective finished.
  bool Test() {
    if (!m_ || m_->done()) return true;
    return m_->Advance(/*blocking=*/false);
  }

  // Drives the machine to completion (failure-aware bounded waits).
  void Wait() {
    if (!m_ || m_->done()) return;
    TRACE_SPAN("comm/collective_wait");
    while (!m_->Advance(/*blocking=*/true)) {
    }
  }

  // Abandons the collective; see the header comment for semantics.
  void Cancel() {
    if (m_ && !m_->done()) m_->Cancel();
    m_.reset();
  }

  [[nodiscard]] bool done() const { return !m_ || m_->done(); }

 private:
  std::shared_ptr<nb_detail::Machine> m_;
};

// Nonblocking Communicator::Broadcast.
template <typename T>
[[nodiscard]] CollectiveRequest IBroadcast(Communicator& comm,
                                           std::span<T> data, int root) {
  TRACE_SPAN("comm/ibroadcast");
  // Collectives only count when a ring actually runs (p > 1).
  const std::uint64_t seq =
      comm.BeginCollective("collective", comm.size() > 1 ? 1 : 0);
  return CollectiveRequest(std::make_shared<nb_detail::BroadcastMachine>(
      comm, std::as_writable_bytes(data), root, seq));
}

// Nonblocking Communicator::AllGather.
template <typename T>
[[nodiscard]] CollectiveRequest IAllGather(Communicator& comm,
                                           std::span<const T> chunk,
                                           std::span<T> out) {
  const int p = comm.size();
  ZERO_CHECK(out.size() == chunk.size() * static_cast<std::size_t>(p),
             "AllGather output size mismatch");
  TRACE_SPAN("comm/iall_gather");
  const std::uint64_t seq =
      comm.BeginCollective("collective", p > 1 ? 1 : 0);
  if (!chunk.empty()) {
    std::memcpy(
        out.data() + chunk.size() * static_cast<std::size_t>(comm.rank()),
        chunk.data(), chunk.size_bytes());
  }
  return CollectiveRequest(std::make_shared<nb_detail::GatherMachine>(
      comm, reinterpret_cast<std::byte*>(out.data()), out.size(), sizeof(T),
      seq));
}

// Nonblocking Communicator::ReduceScatter.
template <typename T>
[[nodiscard]] CollectiveRequest IReduceScatter(Communicator& comm,
                                               std::span<T> data,
                                               std::span<T> out,
                                               ReduceOp op = ReduceOp::kSum) {
  const int p = comm.size();
  ZERO_CHECK(data.size() % static_cast<std::size_t>(p) == 0,
             "ReduceScatter length must divide evenly (pad first)");
  ZERO_CHECK(out.size() == data.size() / static_cast<std::size_t>(p),
             "ReduceScatter output size mismatch");
  TRACE_SPAN("comm/ireduce_scatter");
  const std::uint64_t seq =
      comm.BeginCollective("collective", p > 1 ? 1 : 0);
  return CollectiveRequest(std::make_shared<nb_detail::ReduceScatterMachine<T>>(
      comm, data, out, op, seq));
}

// Nonblocking Communicator::AllReduce: the reduce-scatter phase, then the
// all-gather phase.
template <typename T>
[[nodiscard]] CollectiveRequest IAllReduce(Communicator& comm,
                                           std::span<T> data,
                                           ReduceOp op = ReduceOp::kSum) {
  TRACE_SPAN("comm/iall_reduce");
  // Counts its two ring phases separately.
  const std::uint64_t seq =
      comm.BeginCollective("collective", comm.size() > 1 ? 2 : 0);
  return CollectiveRequest(std::make_shared<nb_detail::AllReduceMachine<T>>(
      comm, data, op, seq));
}

// ---- blocking collectives: launch + Wait ----

template <typename T>
void Communicator::AllReduce(std::span<T> data, ReduceOp op) {
  TRACE_SPAN("comm/all_reduce");
  IAllReduce(*this, data, op).Wait();
}

template <typename T>
void Communicator::ReduceScatter(std::span<T> data, std::span<T> out,
                                 ReduceOp op) {
  TRACE_SPAN("comm/reduce_scatter");
  IReduceScatter(*this, data, out, op).Wait();
}

template <typename T>
void Communicator::AllGather(std::span<const T> chunk, std::span<T> out) {
  TRACE_SPAN("comm/all_gather");
  IAllGather(*this, chunk, out).Wait();
}

template <typename T>
void Communicator::Broadcast(std::span<T> data, int root) {
  TRACE_SPAN("comm/broadcast");
  IBroadcast(*this, data, root).Wait();
}

// Measures the communication attributable to a region of code without
// resetting the communicator's monotonic counters:
//
//   comm::CommDelta step(dp);
//   ... one training step ...
//   comm::CommStats used = step.Delta();
//
// Replaces the old pattern of calling ResetStats() between steps, which
// destroyed the run-lifetime totals other readers (the trainer's
// RankMetrics) depend on.
class CommDelta {
 public:
  explicit CommDelta(const Communicator& comm)
      : comm_(&comm), start_(comm.stats()) {}
  [[nodiscard]] CommStats Delta() const { return comm_->stats() - start_; }
  // Re-bases the helper so the next Delta() starts from now.
  void Rebase() { start_ = comm_->stats(); }

 private:
  const Communicator* comm_;
  CommStats start_;
};

}  // namespace zero::comm
