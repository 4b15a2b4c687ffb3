#include "tensor/parallel_for.hpp"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

namespace zero::tensor {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int workers : {1, 2, 4}) {
    IntraOpWorkersGuard guard(workers);
    for (std::int64_t grain : {1, 3, 7, 100}) {
      std::vector<std::atomic<int>> hits(103);
      ParallelFor(0, 103, grain, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      });
      for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
    }
  }
}

TEST(ParallelForTest, ChunkBoundariesDependOnlyOnShape) {
  // The (b, e) ranges handed to fn are part of the numeric contract:
  // they must be identical at every worker count.
  auto collect = [](int workers) {
    IntraOpWorkersGuard guard(workers);
    std::mutex mu;
    std::set<std::pair<std::int64_t, std::int64_t>> chunks;
    ParallelFor(5, 250, 17, [&](std::int64_t b, std::int64_t e) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace(b, e);
    });
    return chunks;
  };
  const auto serial = collect(1);
  EXPECT_EQ(serial, collect(2));
  EXPECT_EQ(serial, collect(4));
  // Sanity: chunks start at `begin` and step by grain.
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial.begin()->first, 5);
  EXPECT_EQ(std::prev(serial.end())->second, 250);
}

TEST(ParallelForTest, EmptyAndSingleChunkRanges) {
  IntraOpWorkersGuard guard(4);
  int calls = 0;
  ParallelFor(10, 10, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(0, 5, 100, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 5);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  for (int workers : {1, 4}) {
    IntraOpWorkersGuard guard(workers);
    EXPECT_THROW(
        ParallelFor(0, 100, 10,
                    [&](std::int64_t b, std::int64_t) {
                      if (b == 50) throw std::runtime_error("boom");
                    }),
        std::runtime_error);
    // The pool must still be usable after an exception.
    std::atomic<int> n{0};
    ParallelFor(0, 100, 10,
                [&](std::int64_t, std::int64_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 10);
  }
}

TEST(ParallelForTest, NestedCallsRunSerially) {
  IntraOpWorkersGuard guard(4);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(0, 8, 1, [&](std::int64_t ob, std::int64_t oe) {
    for (std::int64_t o = ob; o < oe; ++o) {
      // Inner call must degrade to serial on this thread instead of
      // deadlocking on or oversubscribing the pool.
      ParallelFor(0, 8, 1, [&](std::int64_t ib, std::int64_t ie) {
        for (std::int64_t i = ib; i < ie; ++i) {
          hits[static_cast<std::size_t>(o * 8 + i)].fetch_add(1);
        }
      });
    }
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

// The pool is sized by the worker budget, not by each call's chunk
// count: alternating few- and many-chunk calls reuse the same threads
// instead of joining and respawning helpers on every change.
TEST(ParallelForTest, PoolSurvivesChangingChunkCounts) {
  IntraOpWorkersGuard guard(4);
  std::mutex mu;
  std::set<pid_t> tids;
  for (int call = 0; call < 200; ++call) {
    const std::int64_t chunks = call % 2 == 0 ? 2 : 64;
    ParallelFor(0, chunks, 1, [&](std::int64_t, std::int64_t) {
      std::lock_guard<std::mutex> lock(mu);
      tids.insert(gettid());
    });
  }
  EXPECT_LE(tids.size(), 4u);
}

TEST(ParallelForTest, WorkerBudgetClampAndReset) {
  const int prev = IntraOpWorkers();
  SetIntraOpWorkers(1 << 20);
  EXPECT_LE(IntraOpWorkers(), HardwareConcurrency() * 4);
  SetIntraOpWorkers(0);  // back to the env default
  EXPECT_GE(IntraOpWorkers(), 1);
  SetIntraOpWorkers(prev);
}

}  // namespace
}  // namespace zero::tensor
