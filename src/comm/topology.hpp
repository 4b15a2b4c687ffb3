// DP x MP process-grid topology (Megatron-LM convention).
//
// With world size W = Nd * Nm, model-parallel groups are blocks of Nm
// consecutive ranks (they would share a node, where NVSwitch bandwidth
// lives), and data-parallel groups stride across blocks with step Nm.
// ZeRO composes with MP exactly this way (Sec 1: "16-way model
// parallelism within each DGX2 node and 64-way data parallelism across
// nodes").
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"

namespace zero::comm {

struct GridTopology {
  int world_size = 0;
  int mp_degree = 1;
  int dp_degree = 1;

  GridTopology(int world, int mp);

  // Group-id bases keep MP/DP communicator tags disjoint.
  static constexpr std::uint64_t kMpGroupBase = 0x100;
  static constexpr std::uint64_t kDpGroupBase = 0x200;

  [[nodiscard]] int MpGroupIndex(int rank) const { return rank / mp_degree; }
  [[nodiscard]] int DpGroupIndex(int rank) const { return rank % mp_degree; }
  [[nodiscard]] int MpRank(int rank) const { return rank % mp_degree; }
  [[nodiscard]] int DpRank(int rank) const { return rank / mp_degree; }

  [[nodiscard]] std::vector<int> MpGroupMembers(int rank) const;
  [[nodiscard]] std::vector<int> DpGroupMembers(int rank) const;

  // Communicators for the calling rank's row/column of the grid.
  [[nodiscard]] Communicator MakeMpComm(RankContext& ctx) const;
  [[nodiscard]] Communicator MakeDpComm(RankContext& ctx) const;
};

// Node-aware slicing of an existing communicator (the engine's DP group)
// into "nodes" of `ranks_per_node` consecutive group ranks: each rank
// builds the intra-node local group of its block. ZeRO++'s hpZ secondary
// shard and qgZ intra-node gradient fold (arXiv:2306.10209) run on it.
struct NodeTopology {
  // `within` supplies the member list being sliced. The size need not
  // divide evenly by ranks_per_node: the last node is short (ceil
  // division) and uniform() reports false. Schedules that require equal
  // node sizes (hpZ/qgZ) must check uniform() and fall back to flat when
  // it does not hold.
  NodeTopology(const Communicator& within, int ranks_per_node);

  int ranks_per_node = 1;
  int nodes = 1;
  std::vector<int> members;  // parent group's global ranks, in group order

  // Group-id bases; disjoint from the MP/DP grid bases above. Local
  // groups of different parents may alias ids, which is harmless: their
  // member sets are disjoint, and mailbox matching is (source, tag).
  static constexpr std::uint64_t kLocalGroupBase = 0x300;

  [[nodiscard]] int NodeIndex(int group_rank) const {
    return group_rank / ranks_per_node;
  }
  [[nodiscard]] int LocalRank(int group_rank) const {
    return group_rank % ranks_per_node;
  }
  // Members of a node, accounting for a short last node.
  [[nodiscard]] int LocalSize(int group_rank) const {
    const int size = static_cast<int>(members.size());
    const int base = NodeIndex(group_rank) * ranks_per_node;
    return std::min(ranks_per_node, size - base);
  }
  // True when every node has exactly ranks_per_node members — the
  // precondition of the equal-shard hpZ/qgZ schedules.
  [[nodiscard]] bool uniform() const {
    return static_cast<int>(members.size()) % ranks_per_node == 0;
  }

  [[nodiscard]] std::vector<int> LocalMembers(int group_rank) const;

  // The calling rank's intra-node group.
  [[nodiscard]] Communicator MakeLocalComm(RankContext& ctx) const;

 private:
  [[nodiscard]] int GroupRankOf(int global_rank) const;
  std::uint64_t parent_low_ = 0;  // parent group id, folded into new ids
};

}  // namespace zero::comm
