#include "obs/critical_path.hpp"

#include <algorithm>
#include <map>
#include <string>

namespace zero::obs {

namespace {

// Blocking collectives usable as dependency anchors in the walk. Wider
// than the skew set: a broadcast still pins the *other* members to the
// gating rank even though the root itself can leave early.
bool IsWalkAnchor(std::string_view name) {
  return name == "comm/all_reduce" || name == "comm/reduce_scatter" ||
         name == "comm/all_gather" || name == "comm/broadcast";
}

struct Interval {
  std::uint64_t lo;
  std::uint64_t hi;
  SegClass cls;
};

// Sum of stall-class time inside [lo, hi) given the rank's stall
// intervals (clipped; overlap within the class is counted once by
// merging — stall spans on one lane nest, so max-end tracking is
// enough).
double StallWithin(const std::vector<Interval>& stalls, std::uint64_t lo,
                   std::uint64_t hi) {
  double total = 0;
  std::uint64_t covered_to = lo;
  for (const Interval& s : stalls) {
    if (s.hi <= lo || s.lo >= hi) continue;
    const std::uint64_t b = std::max({s.lo, lo, covered_to});
    const std::uint64_t e = std::min(s.hi, hi);
    if (e > b) {
      total += static_cast<double>(e - b);
      covered_to = e;
    }
  }
  return total;
}

}  // namespace

const char* SegClassName(SegClass c) {
  switch (c) {
    case SegClass::kCompute:
      return "compute";
    case SegClass::kComm:
      return "comm";
    case SegClass::kStall:
      return "stall";
    case SegClass::kOffload:
      return "offload";
  }
  return "?";
}

SegClass ClassifySpanName(std::string_view name) {
  // Blocked waits first: a wait span nests inside the collective or
  // acquire that issued it and must win the sweep.
  if (name == "comm/p2p_wait" || name == "comm/recv_wait" ||
      name == "comm/collective_wait" || name == "params/prefetch_wait" ||
      name == "grads/bucket_drain") {
    return SegClass::kStall;
  }
  if (name.starts_with("offload/") || name == "optim/offload_step") {
    return SegClass::kOffload;
  }
  if (name.starts_with("comm/") || name.starts_with("grads/") ||
      name.starts_with("params/") || name == "tensor/quantize" ||
      name == "tensor/dequantize") {
    return SegClass::kComm;
  }
  return SegClass::kCompute;
}

std::vector<StepAnatomy> AnalyzeSteps(const Timeline& timeline) {
  std::vector<StepAnatomy> out;

  // One lane per rank: the one carrying engine/step spans. Worker lanes
  // share the rank tag but only ever record compute spans, so scoping
  // the sweep to the step lane avoids double counting.
  struct Lane {
    int rank = -1;
    int tid = -1;
    std::vector<const TimelineSpan*> steps;     // engine/step, start order
    std::vector<const TimelineSpan*> spans;     // every span on the lane
    std::vector<Interval> stalls;               // stall-class, start order
    std::vector<const TimelineSpan*> anchors;   // walk anchors, start order
  };
  std::map<int, Lane> lanes;
  for (const TimelineSpan& s : timeline.spans) {
    if (s.rank < 0) continue;
    if (std::string_view(s.name) == "engine/step") {
      Lane& l = lanes[s.rank];
      if (l.tid == -1) {
        l.rank = s.rank;
        l.tid = s.tid;
      }
      if (s.tid == l.tid) l.steps.push_back(&s);
    }
  }
  if (lanes.empty()) return out;
  std::size_t num_steps = SIZE_MAX;
  for (auto& [rank, lane] : lanes) {
    num_steps = std::min(num_steps, lane.steps.size());
  }
  if (num_steps == 0 || num_steps == SIZE_MAX) return out;

  for (const TimelineSpan& s : timeline.spans) {
    auto it = lanes.find(s.rank);
    if (it == lanes.end() || s.tid != it->second.tid) continue;
    it->second.spans.push_back(&s);
    const SegClass cls = ClassifySpanName(s.name);
    if (cls == SegClass::kStall) {
      it->second.stalls.push_back({s.start_ns, s.end_ns(), cls});
    }
    if (IsWalkAnchor(s.name)) it->second.anchors.push_back(&s);
  }

  for (std::size_t k = 0; k < num_steps; ++k) {
    StepAnatomy step;
    step.step = static_cast<int>(k);

    // ---- per-rank segment decomposition ----
    for (auto& [rank, lane] : lanes) {
      RankStepAnatomy ra;
      ra.rank = rank;
      const TimelineSpan* w = lane.steps[k];
      ra.begin_ns = w->start_ns;
      ra.end_ns = w->end_ns();

      // Boundary sweep over the classified spans inside the window: at
      // each elementary interval the highest-priority active class wins
      // (stall > offload > comm); uncovered time is compute.
      struct Edge {
        std::uint64_t t;
        int delta;
        SegClass cls;
      };
      std::vector<Edge> edges;
      for (const TimelineSpan* s : lane.spans) {
        if (s == w) continue;
        const SegClass cls = ClassifySpanName(s->name);
        if (cls == SegClass::kCompute) continue;
        const std::uint64_t lo = std::max(s->start_ns, ra.begin_ns);
        const std::uint64_t hi = std::min(s->end_ns(), ra.end_ns);
        if (hi <= lo) continue;
        edges.push_back({lo, +1, cls});
        edges.push_back({hi, -1, cls});
      }
      std::sort(edges.begin(), edges.end(),
                [](const Edge& a, const Edge& b) { return a.t < b.t; });
      int active[kSegClassCount] = {0, 0, 0, 0};
      std::uint64_t prev = ra.begin_ns;
      auto flush_to = [&](std::uint64_t t) {
        if (t <= prev) return;
        SegClass cls = SegClass::kCompute;
        if (active[static_cast<int>(SegClass::kStall)] > 0) {
          cls = SegClass::kStall;
        } else if (active[static_cast<int>(SegClass::kOffload)] > 0) {
          cls = SegClass::kOffload;
        } else if (active[static_cast<int>(SegClass::kComm)] > 0) {
          cls = SegClass::kComm;
        }
        ra.class_ns[static_cast<int>(cls)] += static_cast<double>(t - prev);
        prev = t;
      };
      for (const Edge& e : edges) {
        flush_to(e.t);
        active[static_cast<int>(e.cls)] += e.delta;
      }
      flush_to(ra.end_ns);
      step.ranks.push_back(ra);
    }

    // ---- matched collective instances ----
    // name -> per-rank anchor spans inside this step's window. Only
    // names where every rank saw the same count are matchable
    // (subgroup collectives drop out here).
    std::map<std::string, std::map<int, std::vector<const TimelineSpan*>>>
        by_name;
    for (auto& [rank, lane] : lanes) {
      const TimelineSpan* w = lane.steps[k];
      for (const TimelineSpan* a : lane.anchors) {
        if (a->start_ns >= w->start_ns && a->end_ns() <= w->end_ns()) {
          by_name[a->name][rank].push_back(a);
        }
      }
    }
    struct Instance {
      std::map<int, const TimelineSpan*> spans;  // rank -> span
    };
    std::vector<Instance> instances;
    for (auto& [name, per_rank] : by_name) {
      if (per_rank.size() != lanes.size()) continue;
      std::size_t count = per_rank.begin()->second.size();
      bool uniform = true;
      for (auto& [rank, v] : per_rank) uniform &= v.size() == count;
      if (!uniform) continue;
      for (std::size_t i = 0; i < count; ++i) {
        Instance inst;
        for (auto& [rank, v] : per_rank) inst.spans[rank] = v[i];
        instances.push_back(std::move(inst));
      }
    }
    // Per rank, its instance spans in start order (for "latest before t").
    std::map<int, std::vector<std::pair<const TimelineSpan*, std::size_t>>>
        rank_insts;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      for (auto& [rank, span] : instances[i].spans) {
        rank_insts[rank].push_back({span, i});
      }
    }
    for (auto& [rank, v] : rank_insts) {
      std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
        return a.first->start_ns < b.first->start_ns;
      });
    }

    // The member that finished contributing last gates the instance:
    // maximize arrival-adjusted busy end. A late arriver wins on start;
    // a rank slowed inside wins on busy time; a waiter never wins.
    auto gate_of = [&](const Instance& inst) {
      int gate = -1;
      double best = -1;
      for (auto& [rank, span] : inst.spans) {
        const double busy =
            static_cast<double>(span->dur_ns) -
            StallWithin(lanes[rank].stalls, span->start_ns, span->end_ns());
        const double busy_end = static_cast<double>(span->start_ns) +
                                std::max(0.0, busy);
        if (busy_end > best) {
          best = busy_end;
          gate = rank;
        }
      }
      return gate;
    };

    // ---- backward walk from the latest step end ----
    auto rank_entry = [&](int rank) -> RankStepAnatomy& {
      for (RankStepAnatomy& ra : step.ranks) {
        if (ra.rank == rank) return ra;
      }
      return step.ranks.front();
    };
    int cur = -1;
    std::uint64_t t = 0;
    for (const RankStepAnatomy& ra : step.ranks) {
      if (cur == -1 || ra.end_ns > t) {
        cur = ra.rank;
        t = ra.end_ns;
      }
    }
    std::vector<CriticalSegment> rev;
    auto attribute = [&](int rank, std::uint64_t lo, std::uint64_t hi) {
      if (hi <= lo) return;
      rev.push_back({rank, lo, hi});
      rank_entry(rank).critical_ns += static_cast<double>(hi - lo);
    };
    std::size_t guard = instances.size() * 2 + 4;
    while (guard-- > 0) {
      // Latest matched instance on `cur` starting before t.
      const std::vector<std::pair<const TimelineSpan*, std::size_t>>& v =
          rank_insts[cur];
      const TimelineSpan* span = nullptr;
      std::size_t inst_idx = 0;
      for (const auto& [s, idx] : v) {
        if (s->start_ns < t) {
          span = s;
          inst_idx = idx;
        } else {
          break;
        }
      }
      if (span == nullptr) {
        attribute(cur, rank_entry(cur).begin_ns, t);
        break;
      }
      const std::uint64_t seg_lo = std::min(span->end_ns(), t);
      attribute(cur, seg_lo, t);
      const int gate = gate_of(instances[inst_idx]);
      const TimelineSpan* gspan = instances[inst_idx].spans.at(gate);
      attribute(gate, gspan->start_ns, std::min(gspan->end_ns(), seg_lo));
      if (gspan->start_ns >= t) break;  // no progress: clocks disagree
      cur = gate;
      t = gspan->start_ns;
    }
    std::reverse(rev.begin(), rev.end());
    step.path = std::move(rev);

    for (const RankStepAnatomy& ra : step.ranks) {
      if (step.straggler_rank == -1 ||
          ra.critical_ns >
              rank_entry(step.straggler_rank).critical_ns) {
        step.straggler_rank = ra.rank;
      }
    }
    out.push_back(std::move(step));
  }
  return out;
}

AnatomySummary SummarizeAnatomy(const std::vector<StepAnatomy>& steps,
                                int skip_first) {
  AnatomySummary sum;
  const std::size_t skip = std::min<std::size_t>(
      steps.size() > 1 ? static_cast<std::size_t>(std::max(0, skip_first))
                       : 0,
      steps.empty() ? 0 : steps.size() - 1);
  std::map<int, RankAggregate> agg;
  std::map<int, int> votes;
  for (std::size_t i = skip; i < steps.size(); ++i) {
    const StepAnatomy& s = steps[i];
    ++sum.steps;
    if (s.straggler_rank >= 0) ++votes[s.straggler_rank];
    for (const RankStepAnatomy& ra : s.ranks) {
      RankAggregate& a = agg[ra.rank];
      a.rank = ra.rank;
      a.step_ms += ra.step_ns() / 1e6;
      a.compute_ms += ra.class_ns[static_cast<int>(SegClass::kCompute)] / 1e6;
      a.comm_ms += ra.class_ns[static_cast<int>(SegClass::kComm)] / 1e6;
      a.stall_ms += ra.class_ns[static_cast<int>(SegClass::kStall)] / 1e6;
      a.offload_ms += ra.class_ns[static_cast<int>(SegClass::kOffload)] / 1e6;
      a.critical_ms += ra.critical_ns / 1e6;
    }
  }
  if (sum.steps > 0) {
    for (auto& [rank, a] : agg) {
      a.step_ms /= sum.steps;
      a.compute_ms /= sum.steps;
      a.comm_ms /= sum.steps;
      a.stall_ms /= sum.steps;
      a.offload_ms /= sum.steps;
      a.critical_ms /= sum.steps;
      sum.ranks.push_back(a);
    }
  }
  for (const auto& [rank, n] : votes) {
    if (n > sum.straggler_steps) {
      sum.straggler_steps = n;
      sum.straggler_rank = rank;
    }
  }
  return sum;
}

}  // namespace zero::obs
