#include "comm/topology.hpp"

#include "common/error.hpp"

namespace zero::comm {

GridTopology::GridTopology(int world, int mp)
    : world_size(world), mp_degree(mp) {
  ZERO_CHECK(world >= 1 && mp >= 1, "degenerate grid");
  ZERO_CHECK(world % mp == 0, "world size must be divisible by MP degree");
  dp_degree = world / mp;
}

std::vector<int> GridTopology::MpGroupMembers(int rank) const {
  const int base = MpGroupIndex(rank) * mp_degree;
  std::vector<int> members(static_cast<std::size_t>(mp_degree));
  for (int i = 0; i < mp_degree; ++i) members[static_cast<std::size_t>(i)] = base + i;
  return members;
}

std::vector<int> GridTopology::DpGroupMembers(int rank) const {
  const int col = DpGroupIndex(rank);
  std::vector<int> members(static_cast<std::size_t>(dp_degree));
  for (int i = 0; i < dp_degree; ++i)
    members[static_cast<std::size_t>(i)] = col + i * mp_degree;
  return members;
}

Communicator GridTopology::MakeMpComm(RankContext& ctx) const {
  return Communicator(
      ctx, MpGroupMembers(ctx.rank),
      kMpGroupBase + static_cast<std::uint64_t>(MpGroupIndex(ctx.rank)));
}

Communicator GridTopology::MakeDpComm(RankContext& ctx) const {
  return Communicator(
      ctx, DpGroupMembers(ctx.rank),
      kDpGroupBase + static_cast<std::uint64_t>(DpGroupIndex(ctx.rank)));
}

NodeTopology::NodeTopology(const Communicator& within, int per_node)
    : ranks_per_node(per_node), members(within.members()),
      parent_low_(within.group_id() & 0xF) {
  ZERO_CHECK(per_node >= 1, "ranks_per_node must be positive");
  // Uneven worlds degrade cleanly: the last node is simply short (ceil
  // division), and per_node > size collapses to one node spanning the
  // whole group.
  nodes = (within.size() + per_node - 1) / per_node;
}

int NodeTopology::GroupRankOf(int global_rank) const {
  auto it = std::find(members.begin(), members.end(), global_rank);
  ZERO_CHECK(it != members.end(),
             "rank " + std::to_string(global_rank) + " not in sliced group");
  return static_cast<int>(it - members.begin());
}

std::vector<int> NodeTopology::LocalMembers(int group_rank) const {
  const std::size_t base = static_cast<std::size_t>(NodeIndex(group_rank)) *
                           static_cast<std::size_t>(ranks_per_node);
  const std::size_t end = std::min(
      members.size(), base + static_cast<std::size_t>(ranks_per_node));
  return {members.begin() + static_cast<std::ptrdiff_t>(base),
          members.begin() + static_cast<std::ptrdiff_t>(end)};
}

Communicator NodeTopology::MakeLocalComm(RankContext& ctx) const {
  const int g = GroupRankOf(ctx.rank);
  return Communicator(ctx, LocalMembers(g),
                      kLocalGroupBase + (parent_low_ << 4) +
                          static_cast<std::uint64_t>(NodeIndex(g) & 0xF));
}

}  // namespace zero::comm
