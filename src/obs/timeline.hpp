// Cross-rank timeline: merges every rank's per-thread trace rings into
// one global, clock-aligned view of a run.
//
// The recorder (obs/trace.hpp) is strictly rank-local — each thread owns
// a ring stamped with its rank tag. This module joins those rings:
//
//   1. Clock skew estimation. On real clusters every rank has its own
//      clock; here each rank's offset relative to rank 0 is estimated
//      from matched blocking-collective span pairs. A blocking
//      symmetric collective (all-reduce, reduce-scatter, all-gather,
//      all-to-all) releases every member within one wire latency of the
//      last arrival, so the k-th instance of such a span must end at
//      (nearly) the same true time on every rank: the median end-time
//      difference over all matched pairs is the skew. In the in-process
//      SPMD runtime all ranks share one steady_clock and the estimate
//      converges to ~0; the machinery exists so traces imported with an
//      artificial or genuine offset still align (tested by injecting
//      one).
//
//   2. A queryable in-memory form (Timeline) with skew-corrected spans
//      sorted by start time, plus the per-lane drop counters so a
//      truncated ring is visible in every downstream consumer.
//
// Export lives in obs/chrome_trace.hpp: ChromeTraceJson(timeline) is the
// one Chrome trace_event serializer, with the skew estimates and
// per-lane drop counts in otherData.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace zero::obs {

// One span in the merged timeline; timestamps are already corrected
// into rank 0's clock domain.
struct TimelineSpan {
  std::string name;
  int rank = -1;  // -1 = untagged helper thread
  int tid = 0;    // recorder lane (globally unique across ranks)
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;

  [[nodiscard]] std::uint64_t end_ns() const { return start_ns + dur_ns; }
};

// Per-rank clock model: skew_ns is this rank's clock minus rank 0's,
// estimated over `matched` collective span pairs (0 pairs => skew 0).
struct RankClock {
  int rank = -1;
  std::int64_t skew_ns = 0;
  int matched = 0;
};

struct Timeline {
  std::vector<TimelineSpan> spans;  // sorted by start_ns
  std::vector<RankClock> clocks;    // one per tagged rank, rank order
  std::map<int, std::string> lane_names;        // tid -> recorder name
  std::map<int, std::uint64_t> dropped_by_tid;  // nonzero lanes only
  std::uint64_t dropped_events = 0;

  // Largest tagged rank seen; -1 when only untagged lanes recorded.
  [[nodiscard]] int max_rank() const;
  [[nodiscard]] std::int64_t SkewFor(int rank) const;
  // Spans tagged `rank`, in start order (pointers into `spans`).
  [[nodiscard]] std::vector<const TimelineSpan*> RankSpans(int rank) const;
  // Spans named exactly `name`, in start order.
  [[nodiscard]] std::vector<const TimelineSpan*> Named(
      std::string_view name) const;
};

// True for span names usable as cross-rank synchronization anchors:
// blocking collectives every group member participates in end to end.
bool IsSyncSpanName(std::string_view name);

// Estimate per-rank skew relative to rank 0 from the raw collected
// rings. Only span names where every tagged rank recorded the same
// nonzero instance count contribute (subgroup collectives with
// rank-dependent schedules are skipped rather than mismatched).
std::vector<RankClock> EstimateClockSkew(
    const std::vector<ThreadEvents>& threads);

// Merge + skew-correct + sort. Input is CollectEvents() output (or a
// synthetic equivalent in tests).
Timeline BuildTimeline(const std::vector<ThreadEvents>& threads);

}  // namespace zero::obs
