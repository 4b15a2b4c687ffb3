// Stage-3 parameter gathers (Sec 5.3, Sec 7.2.2), with look-ahead.
//
// Every stage-3 unit materialization goes through Gather: the unit is
// broadcast from its partition owners into a fresh landing buffer,
// waited, widened to the fp32 values the model reads, and — under hpZ —
// captured into the intra-node secondary shard. Launch is the one place
// that builds a landing buffer and issues a unit's broadcasts.
//
// The paper's claim that stage 3's extra 1.5x communication volume is
// cheap rests on *pipelining*: "the parameters for each layer can be
// broadcast before the forward/backward on that layer needs them". With
// EngineConfig::prefetch_lookahead = L > 0 this class walks the unit
// schedule ahead of the compute and keeps up to L units' gathers in
// flight as nonblocking collectives (comm/communicator.hpp); Gather then
// claims the gather the pipeline already launched. With L = 0 nothing
// runs ahead: every Gather launches its broadcasts on the spot and waits
// them inside `comm/broadcast` spans, exactly what a blocking broadcast
// records.
//
// Schedule learning. The model's acquire order is irregular (a GPT
// forward touches the embedding unit again at the head; backward with
// recompute re-acquires in its own order), so the first training step
// gathers on the spot while the materialization order is *recorded*.
// Every later step replays that schedule. If the model ever derails from
// the recorded order, all in-flight gathers are cancelled on every rank,
// the step finishes gathering on the spot, and the next step re-records.
// Gathers outside the step bracket (EvalLoss, GatherFullParams,
// checkpointing) also run on the spot. Conveniently, the recording step
// is step 0 — the same warm-up step the trainer already excludes from
// its communication-volume accounting.
//
// Memory budget. Look-ahead buys overlap with up to `lookahead` extra
// materialized units of device memory. The budget is agreed group-wide
// once, at the first replayed step: half the minimum free device memory
// across ranks, or unlimited when the state is heap-backed. TopUp stops
// — never skips, so launch order stays schedule order — when the next
// unit would not fit. With a tight budget every claim launches its own
// gather.
//
// hpZ (ZeRO++, arXiv:2306.10209): a secondary fp16 copy of the
// parameters, sharded across the intra-node group (1/s per rank, s =
// node_size) — the paper's "memory for communication" trade. Forward
// gathers stay global and *capture* their unit into the copy; a backward
// gather of a captured unit then resolves entirely inside the node group
// over the local communicator — zero cross-node bytes on the backward
// half of stage 3's 3Ψ. A parameter change (optimizer update, import)
// makes every capture stale. Gather captures before it tops up the
// pipeline, and TopUp stops at a local entry whose unit is not captured,
// so a local gather never launches from a stale secondary shard. hpZ is
// therefore bit-exact vs plain stage 3 at every lookahead: the captured
// bytes are exact copies of what the global gather delivered.
//
// SPMD safety. Every launch, wait, and cancel decision is a pure
// function of state that is identical on all ranks (the recorded
// schedule, the agreed budget, the claim cursor, the capture flags), so
// all ranks drive the same collectives in the same order — the
// tag-sequencing contract the communicator requires. Bit-exactness vs
// lookahead 0 is structural: broadcasts are byte moves and parameters
// are frozen between optimizer updates, so *when* a gather runs cannot
// change *what* it delivers.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "comm/communicator.hpp"
#include "core/stages/stage_strategy.hpp"
#include "tensor/tensor.hpp"

namespace zero::core {

class ParamPrefetcher {
 public:
  // A gathered unit: the fp16 landing buffer (fp16 mode only;
  // device-accounted) and the fp32 values the model reads.
  struct Unit {
    tensor::Tensor f16;
    std::vector<float> f32;
  };

  // `own_params` is the strategy's 1/Nd parameter partition (the local
  // contribution to every gather); must outlive this object. Under
  // StageContext::hpz this allocates the secondary shard on the device
  // (a DeviceOomError when it does not fit).
  ParamPrefetcher(const StageContext& ctx, const tensor::Tensor& own_params);
  ~ParamPrefetcher();
  ParamPrefetcher(const ParamPrefetcher&) = delete;
  ParamPrefetcher& operator=(const ParamPrefetcher&) = delete;

  // Step bracket, driven by the strategy's OnStepBegin/ReduceGradients.
  // Both do nothing at lookahead 0.
  void OnStepBegin();
  void OnStepEnd();

  // Unit `u`, gathered and waited. In order: claims the pipeline's
  // gather for this materialization, or launches one on the spot; waits
  // it; widens it (fp16 mode); captures it into the hpZ secondary shard
  // (forward phase); then tops up the pipeline. Backward gathers of a
  // captured unit resolve inside the node group under hpZ; a mismatch
  // of unit or gather kind against the recorded schedule derails.
  [[nodiscard]] Unit Gather(int u, model::Phase phase);

  // Drives in-flight gathers without blocking. Called from the compute
  // hooks (acquire/release/grad emission) so intermediate ring ranks
  // forward pipeline chunks while they are busy computing — this is
  // where the overlap physically happens.
  void Progress();

  // The partition's values changed (optimizer update, import): every
  // hpZ capture is stale until the next forward gather refreshes it.
  void OnParamsChanged();

  // Abandons everything in flight and forgets the schedule (abort and
  // elastic-resume unwinding; also run by the destructor). Never
  // throws: stale chunks rot in the mailbox under never-reused tags.
  void CancelAll();

 private:
  enum class Mode : unsigned char { kIdle, kRecording, kReplaying };

  // One learned materialization: the unit plus the gather kind used
  // when it was recorded. Replay launches must reproduce the kind —
  // SPMD-consistent because the kind is a pure function of state that
  // is identical on all ranks (phase + per-unit capture flags).
  struct Entry {
    int unit = -1;
    bool local = false;  // hpZ intra-node gather from the secondary shard
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  struct InFlight {
    std::size_t schedule_pos = 0;
    std::size_t bytes = 0;
    std::uint64_t launch_ns = 0;
    Unit unit;                                  // landing buffer
    std::vector<comm::CollectiveRequest> reqs;  // one per overlap owner
  };

  void EnsureBudget();
  void TopUp();
  [[nodiscard]] InFlight Launch(Entry e);
  // Copies this rank's slice of the freshly gathered fp16 unit into the
  // secondary shard and marks the unit locally gatherable.
  void CaptureSecondary(int u, const tensor::Tensor& f16);
  [[nodiscard]] std::size_t UnitBytes(int u) const;
  void Derail();

  const StageContext* ctx_;
  const tensor::Tensor* own_params_;
  int lookahead_;

  // hpZ secondary shard (empty unless ctx_->hpz) and its partitioning
  // over the intra-node group.
  tensor::Tensor secondary_;
  std::optional<Partitioner> hpz_part_;
  // Per unit: 1 while the node group collectively holds a fresh copy of
  // the unit (set at forward gathers, cleared on parameter change).
  // SPMD-identical by construction — every rank gathers the same units
  // in the same order and applies updates collectively.
  std::vector<std::uint8_t> unit_captured_;

  Mode mode_ = Mode::kIdle;
  std::vector<Entry> schedule_;   // learned materialization order
  std::vector<Entry> recording_;  // being learned this step
  std::size_t cursor_ = 0;      // next schedule position to be claimed
  std::size_t next_launch_ = 0; // next schedule position to launch
  std::deque<InFlight> inflight_;
  std::size_t inflight_bytes_ = 0;
  std::size_t budget_ = 0;  // 0 = not yet agreed

  // Overlap accounting across the run: active = gather lifetime
  // (launch -> claim), exposed = time the claim actually blocked.
  double active_ns_ = 0.0;
  double exposed_ns_ = 0.0;
};

}  // namespace zero::core
