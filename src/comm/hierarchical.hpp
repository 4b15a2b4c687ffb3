// Two-level (node-aware) all-reduce.
//
// On a DGX-2 cluster the flat ring streams the whole message through
// every edge — including the slow inter-node ones — and pays ring
// latency proportional to the world size. The hierarchical schedule
// exploits the topology the paper's cluster has:
//
//   1. reduce-scatter inside each local (intra-node) group;
//   2. all-reduce each shard across the group leaders' communicator
//      (one participant per node on the slow network);
//   3. all-gather inside the local group.
//
// Every rank still sends O(M) bytes, but only 1/G of the message ever
// crosses nodes per rank and the slow-network ring has `nodes` members
// instead of `world` — the standard NCCL-style optimization for the
// NVSwitch + InfiniBand fabric of Sec 10.1.
//
// Usage (SPMD): every rank passes its intra-node communicator; ranks
// whose local rank is 0 also pass the cross-node (leaders)
// communicator, others pass nullptr.
#pragma once

#include <span>

#include "comm/communicator.hpp"

namespace zero::comm {

template <typename T>
void HierarchicalAllReduce(Communicator& local, Communicator* leaders,
                           std::span<T> data, ReduceOp op = ReduceOp::kSum) {
  const int g = local.size();
  const bool is_leader = local.rank() == 0;
  ZERO_CHECK(is_leader == (leaders != nullptr),
             "exactly the local-rank-0 members must pass the leader comm");

  if (g == 1) {
    // Degenerate local group: just the cross-node phase.
    if (leaders != nullptr) leaders->AllReduce(data, op);
    return;
  }

  // Pad to a multiple of the local group size so ReduceScatter divides
  // evenly; padding reduces to zero and is dropped at the end.
  const std::size_t chunk =
      (data.size() + static_cast<std::size_t>(g) - 1) /
      static_cast<std::size_t>(g);
  std::vector<T> padded(chunk * static_cast<std::size_t>(g), T{});
  std::memcpy(padded.data(), data.data(), data.size_bytes());

  // Phase 1: local reduce-scatter — each local rank ends with one fully
  // locally-reduced shard.
  std::vector<T> shard(chunk);
  local.ReduceScatter(std::span<T>(padded), std::span<T>(shard), op);

  // Phase 2: leaders combine their shards across nodes. Non-leaders'
  // shards must also cross, so each local rank funnels its shard through
  // its leader? No — every local rank owns a *different* shard, so all
  // shards together tile the message exactly once. The cross-node
  // reduction must therefore run per shard owner: the owner of shard i
  // on every node holds the same index range, so the natural leaders'
  // group for shard i is "local rank i across nodes". When the caller
  // provides one leaders' communicator (local rank 0 only), shards are
  // first gathered to the leader, reduced across nodes, and scattered
  // back — trading one extra local round trip for a single cross-node
  // group.
  if (is_leader) {
    std::vector<T> all_shards(padded.size());
    // Gather every local rank's shard to the leader.
    std::memcpy(all_shards.data(), shard.data(), shard.size() * sizeof(T));
    for (int r = 1; r < g; ++r) {
      local.Recv(r, std::span<T>(all_shards.data() +
                                     static_cast<std::size_t>(r) * chunk,
                                 chunk),
                 /*tag=*/0x11);
    }
    leaders->AllReduce(std::span<T>(all_shards), op);
    // Scatter the globally reduced shards back.
    for (int r = 1; r < g; ++r) {
      local.Send(r,
                 std::span<const T>(all_shards.data() +
                                        static_cast<std::size_t>(r) * chunk,
                                    chunk),
                 /*tag=*/0x12);
    }
    std::memcpy(shard.data(), all_shards.data(), shard.size() * sizeof(T));
  } else {
    local.Send(0, std::span<const T>(shard.data(), shard.size()),
               /*tag=*/0x11);
    local.Recv(0, std::span<T>(shard), /*tag=*/0x12);
  }

  // Phase 3: local all-gather reassembles the full message everywhere.
  local.AllGather(std::span<const T>(shard.data(), shard.size()),
                  std::span<T>(padded));
  std::memcpy(data.data(), padded.data(), data.size_bytes());
}

}  // namespace zero::comm
