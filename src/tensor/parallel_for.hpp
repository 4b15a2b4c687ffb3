// Opt-in intra-op worker pool for the CPU kernels.
//
// Design constraints, in order:
//   1. Determinism. Work is split into fixed chunks whose boundaries
//      depend only on (begin, end, grain) — never on the worker count —
//      and every output element is produced by exactly one chunk with
//      its serial accumulation order intact. A kernel therefore returns
//      bitwise-identical results at 1 worker, N workers, or with the
//      pool disabled, which is what keeps the ZeRO stage-equivalence
//      tests exact. Reductions that need cross-chunk combining (bias
//      grads, squared norms) write per-chunk partials and combine them
//      in chunk-index order on the calling thread.
//   2. No oversubscription. The runtime is thread-per-rank SPMD, so the
//      engine clamps the worker budget to hardware_concurrency / ranks
//      (see EngineConfig::intra_op_workers); the default is serial.
//   3. TSan-cleanliness. Publication of the job, chunk claiming, and
//      consumption of the results all go through a mutex/condvar pair —
//      no lock-free cleverness to audit.
//
// Each calling thread owns its own lazily-spawned pool (rank threads
// never share workers, so there is no cross-rank convoying), and the
// calling thread participates in chunk execution. Nested ParallelFor
// calls from inside a worker degrade to serial execution.
#pragma once

#include <cstdint>
#include <functional>

namespace zero::tensor {

// Hardware threads visible to the process (>= 1).
[[nodiscard]] int HardwareConcurrency();

// Global intra-op worker budget. 0 resets to the environment default
// (ZERO_INTRAOP_WORKERS, read once; else 1 = serial). Values are
// clamped to [1, HardwareConcurrency() * 4] defensively.
void SetIntraOpWorkers(int n);
[[nodiscard]] int IntraOpWorkers();

// Runs fn over [begin, end) split into chunks of `grain` indices.
// fn(b, e) must handle any sub-range; chunk boundaries are fixed by
// (begin, end, grain) alone. Exceptions thrown by fn are rethrown on
// the calling thread after all chunks complete.
void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn);

// RAII worker-count override for tests and benches.
class IntraOpWorkersGuard {
 public:
  explicit IntraOpWorkersGuard(int n) : prev_(IntraOpWorkers()) {
    SetIntraOpWorkers(n);
  }
  ~IntraOpWorkersGuard() { SetIntraOpWorkers(prev_); }
  IntraOpWorkersGuard(const IntraOpWorkersGuard&) = delete;
  IntraOpWorkersGuard& operator=(const IntraOpWorkersGuard&) = delete;

 private:
  int prev_;
};

}  // namespace zero::tensor
