#include "obs/timeline.hpp"

#include <algorithm>
#include <set>

namespace zero::obs {

namespace {

// End timestamps of every sync span on one rank, keyed by name, in
// recording (= program) order. SPMD lockstep makes index k on one rank
// correspond to index k on every other.
using SyncEnds = std::map<std::string, std::vector<std::uint64_t>>;

SyncEnds CollectSyncEnds(const std::vector<ThreadEvents>& threads,
                         int rank) {
  // Gather first, then sort by start so multi-lane ranks (intra-op
  // workers share the tag but never record collectives) stay ordered.
  std::vector<const TraceEvent*> spans;
  for (const ThreadEvents& te : threads) {
    for (const TraceEvent& e : te.events) {
      if (e.rank == rank && IsSyncSpanName(e.name)) spans.push_back(&e);
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              return a->start_ns < b->start_ns;
            });
  SyncEnds ends;
  for (const TraceEvent* e : spans) {
    ends[e->name].push_back(e->start_ns + e->dur_ns);
  }
  return ends;
}

}  // namespace

bool IsSyncSpanName(std::string_view name) {
  // Symmetric blocking collectives only: every member both feeds the
  // ring and drains it until the last contribution lands, so the exits
  // are aligned. A broadcast lets the root leave early over buffered
  // sends and would bias the estimate.
  return name == "comm/all_reduce" || name == "comm/reduce_scatter" ||
         name == "comm/all_gather";
}

std::vector<RankClock> EstimateClockSkew(
    const std::vector<ThreadEvents>& threads) {
  std::set<int> ranks;
  for (const ThreadEvents& te : threads) {
    for (const TraceEvent& e : te.events) {
      if (e.rank >= 0) ranks.insert(e.rank);
    }
  }
  std::vector<RankClock> clocks;
  if (ranks.empty()) return clocks;

  const int base_rank = *ranks.begin();
  const SyncEnds base = CollectSyncEnds(threads, base_rank);
  for (int r : ranks) {
    RankClock rc;
    rc.rank = r;
    if (r != base_rank) {
      const SyncEnds mine = CollectSyncEnds(threads, r);
      std::vector<std::int64_t> deltas;
      for (const auto& [name, ends] : mine) {
        auto it = base.find(name);
        // Only names where both ranks saw the same instance count can
        // be matched index-for-index; anything else (a subgroup
        // schedule, a truncated ring) is skipped, not guessed at.
        if (it == base.end() || it->second.size() != ends.size()) continue;
        for (std::size_t k = 0; k < ends.size(); ++k) {
          deltas.push_back(static_cast<std::int64_t>(ends[k]) -
                           static_cast<std::int64_t>(it->second[k]));
        }
      }
      if (!deltas.empty()) {
        std::nth_element(deltas.begin(),
                         deltas.begin() + deltas.size() / 2, deltas.end());
        rc.skew_ns = deltas[deltas.size() / 2];
        rc.matched = static_cast<int>(deltas.size());
      }
    }
    clocks.push_back(rc);
  }
  return clocks;
}

int Timeline::max_rank() const {
  int mx = -1;
  for (const RankClock& c : clocks) mx = std::max(mx, c.rank);
  return mx;
}

std::int64_t Timeline::SkewFor(int rank) const {
  for (const RankClock& c : clocks) {
    if (c.rank == rank) return c.skew_ns;
  }
  return 0;
}

std::vector<const TimelineSpan*> Timeline::RankSpans(int rank) const {
  std::vector<const TimelineSpan*> out;
  for (const TimelineSpan& s : spans) {
    if (s.rank == rank) out.push_back(&s);
  }
  return out;
}

std::vector<const TimelineSpan*> Timeline::Named(
    std::string_view name) const {
  std::vector<const TimelineSpan*> out;
  for (const TimelineSpan& s : spans) {
    if (s.name == name) out.push_back(&s);
  }
  return out;
}

Timeline BuildTimeline(const std::vector<ThreadEvents>& threads) {
  Timeline t;
  t.clocks = EstimateClockSkew(threads);
  for (const ThreadEvents& te : threads) {
    t.dropped_events += te.dropped;
    if (te.dropped != 0) t.dropped_by_tid[te.tid] = te.dropped;
    if (!te.events.empty()) t.lane_names[te.tid] = te.name;
    for (const TraceEvent& e : te.events) {
      TimelineSpan s;
      s.name = e.name;
      s.rank = e.rank;
      s.tid = te.tid;
      // Shift into rank 0's clock domain; a span that would land before
      // the epoch clamps to 0 (the relative ordering per lane holds).
      const std::int64_t skew = e.rank >= 0 ? t.SkewFor(e.rank) : 0;
      const std::int64_t start = static_cast<std::int64_t>(e.start_ns) - skew;
      s.start_ns = start > 0 ? static_cast<std::uint64_t>(start) : 0;
      s.dur_ns = e.dur_ns;
      t.spans.push_back(std::move(s));
    }
  }
  std::stable_sort(t.spans.begin(), t.spans.end(),
                   [](const TimelineSpan& a, const TimelineSpan& b) {
                     return a.start_ns < b.start_ns;
                   });
  return t;
}

}  // namespace zero::obs
