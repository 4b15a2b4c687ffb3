#include "tensor/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace zero::tensor {

namespace {

// ZERO_INTRAOP_WORKERS, read once; unset or 0 means serial.
int EnvWorkers() {
  static const int workers = [] {
    const std::uint64_t v =
        EnvUint("ZERO_INTRAOP_WORKERS", std::numeric_limits<int>::max())
            .value_or(1);
    return static_cast<int>(std::clamp<std::uint64_t>(
        v, 1, static_cast<std::uint64_t>(HardwareConcurrency()) * 4));
  }();
  return workers;
}

std::atomic<int>& ConfiguredWorkers() {
  static std::atomic<int> workers{EnvWorkers()};
  return workers;
}

// Set while a pool worker (or the caller, inside a chunk) is executing
// kernel code: nested ParallelFor calls run serially instead of
// deadlocking on or oversubscribing the pool.
thread_local bool tl_in_parallel_region = false;

class WorkerPool {
 public:
  explicit WorkerPool(int helpers) {
    // Workers inherit the owning thread's rank tag so their log lines
    // and trace events land in the owner's process lane; the trace name
    // distinguishes the worker lanes ("r<rank> w<i>").
    const int owner_rank = GetThreadLogRank();
    threads_.reserve(static_cast<std::size_t>(helpers));
    for (int i = 0; i < helpers; ++i) {
      threads_.emplace_back([this, owner_rank, i] {
        SetThreadLogRank(owner_rank);
        obs::SetThreadTraceName(
            (owner_rank >= 0 ? "r" + std::to_string(owner_rank) + " w"
                             : "w") +
            std::to_string(i));
        WorkerLoop();
      });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : threads_) t.join();
  }

  [[nodiscard]] int helpers() const {
    return static_cast<int>(threads_.size());
  }

  void Run(std::int64_t begin, std::int64_t end, std::int64_t grain,
           std::int64_t nchunks,
           const std::function<void(std::int64_t, std::int64_t)>& fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      begin_ = begin;
      end_ = end;
      grain_ = grain;
      nchunks_ = nchunks;
      fn_ = &fn;
      completed_ = 0;
      error_ = nullptr;
      next_ = 0;
      epoch_snapshot_ = ++epoch_;
    }
    cv_work_.notify_all();

    RunChunks(epoch_snapshot_);

    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return completed_ == nchunks_; });
    if (error_ != nullptr) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(e);
    }
  }

 private:
  void WorkerLoop() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock, [&] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        seen = epoch_;
      }
      RunChunks(seen);
    }
  }

  // Claims and runs chunks of the job identified by `epoch`. Claiming
  // happens under mu_ with an epoch check, so a straggler that loops
  // around after the caller has already published a new job (or is
  // about to) exits instead of touching the fresh job's fields.
  void RunChunks(std::uint64_t epoch) {
    tl_in_parallel_region = true;
    for (;;) {
      std::int64_t b = 0;
      std::int64_t e = 0;
      const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (epoch_ != epoch || next_ >= nchunks_) break;
        const std::int64_t c = next_++;
        b = begin_ + c * grain_;
        e = std::min(b + grain_, end_);
        fn = fn_;
      }
      std::exception_ptr err = nullptr;
      try {
        (*fn)(b, e);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (err != nullptr && error_ == nullptr) error_ = err;
      if (++completed_ == nchunks_) cv_done_.notify_all();
    }
    tl_in_parallel_region = false;
  }

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t epoch_snapshot_ = 0;  // caller's copy of its job's epoch

  // Current job; all fields written and read under mu_.
  std::int64_t begin_ = 0;
  std::int64_t end_ = 0;
  std::int64_t grain_ = 1;
  std::int64_t nchunks_ = 0;
  const std::function<void(std::int64_t, std::int64_t)>* fn_ = nullptr;
  std::int64_t next_ = 0;
  std::int64_t completed_ = 0;
  std::exception_ptr error_ = nullptr;
};

// Each calling thread lazily owns a pool sized to the worker budget
// alone; recreated only when the budget changes between calls.
WorkerPool* ThreadPool(int helpers) {
  thread_local std::unique_ptr<WorkerPool> pool;
  if (pool == nullptr || pool->helpers() != helpers) {
    pool = std::make_unique<WorkerPool>(helpers);
  }
  return pool.get();
}

}  // namespace

int HardwareConcurrency() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

void SetIntraOpWorkers(int n) {
  if (n <= 0) {
    ConfiguredWorkers().store(EnvWorkers(), std::memory_order_relaxed);
    return;
  }
  ConfiguredWorkers().store(std::min(n, HardwareConcurrency() * 4),
                            std::memory_order_relaxed);
}

int IntraOpWorkers() {
  return ConfiguredWorkers().load(std::memory_order_relaxed);
}

void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<std::int64_t>(grain, 1);
  const std::int64_t nchunks = (end - begin + grain - 1) / grain;
  const int workers = IntraOpWorkers();
  if (workers <= 1 || nchunks <= 1 || tl_in_parallel_region) {
    // Serial path: one call per chunk keeps the execution identical to
    // the parallel path for any fn (chunk boundaries are part of the
    // contract, not an implementation detail).
    for (std::int64_t c = 0; c < nchunks; ++c) {
      const std::int64_t b = begin + c * grain;
      fn(b, std::min(b + grain, end));
    }
    return;
  }
  // Only the pooled path gets a span: the serial path above runs inside
  // tight per-kernel loops where even a disabled span's check would show
  // up in the kernel microbenchmarks.
  TRACE_SPAN("tensor/parallel_for");
  // The pool is sized by the budget, not by this call's chunk count, so
  // alternating few- and many-chunk kernels reuse one set of threads;
  // helpers left without a chunk find none to claim and go back to wait.
  ThreadPool(workers - 1)->Run(begin, end, grain, nchunks, fn);
}

}  // namespace zero::tensor
