// Flow-based network simulator for the paper's cluster fabric.
//
// The cost model (cost_model.hpp) *assumes* the Sec 10.2 bandwidth
// cliff: NVSwitch inside a DGX-2 node, a shared InfiniBand uplink
// between nodes. This module derives it instead. A collective is lowered
// to its ring schedule — a sequence of synchronized steps, each a set of
// point-to-point transfers — and each step's duration is the most
// congested link's serialization time:
//
//   links: per-GPU NVSwitch port (in and out), per-node IB uplink /
//          downlink shared by every flow leaving / entering the node.
//
// With the group inside one node, ring steps ride NVSwitch ports and the
// collective runs at intra-node speed; once the group spans nodes, the
// two ring edges that cross the boundary serialize on the node uplink
// and the whole collective degrades to inter-node speed — the emergent
// 300 GB/s -> 12.5 GB/s collapse that breaks Megatron beyond 16-way MP,
// and the per-GPU DP bandwidth division when many rings share a node's
// uplink.
#pragma once

#include <cstdint>
#include <vector>

namespace zero::sim {

struct NetTopology {
  int nodes = 25;
  int gpus_per_node = 16;
  double nvswitch_port_bw = 150e9;  // B/s per GPU port, each direction
  double node_uplink_bw = 100e9;    // 800 Gb/s IB per node, each direction
  // A single cross-node flow rides one InfiniBand EDR NIC: even when the
  // node's aggregate uplink is idle, one ring edge cannot exceed this —
  // the paper's "12.5 GB/sec per link" (Sec 10.2).
  double nic_bw = 12.5e9;
  double per_step_latency = 5e-6;   // fabric hop latency per ring step

  [[nodiscard]] int total_gpus() const { return nodes * gpus_per_node; }
  [[nodiscard]] int NodeOf(int gpu) const { return gpu / gpus_per_node; }
};

struct Transfer {
  int src = 0;
  int dst = 0;
  double bytes = 0;
};

class NetworkSimulator {
 public:
  explicit NetworkSimulator(NetTopology topology);

  [[nodiscard]] const NetTopology& topology() const { return topology_; }

  // Duration of one synchronized step: every transfer progresses in
  // parallel; each link serializes the flows mapped onto it.
  [[nodiscard]] double StepTime(const std::vector<Transfer>& transfers) const;

  // Ring collectives over `members` (global GPU ids), message `bytes`.
  // Returned times include per-step latency.
  [[nodiscard]] double RingReduceScatter(const std::vector<int>& members,
                                         double bytes) const;
  [[nodiscard]] double RingAllGather(const std::vector<int>& members,
                                     double bytes) const;
  [[nodiscard]] double RingAllReduce(const std::vector<int>& members,
                                     double bytes) const;
  [[nodiscard]] double PipelinedBroadcast(const std::vector<int>& members,
                                          double bytes) const;

  // `concurrent` identical ring all-reduces running at once (e.g. the Nd
  // data-parallel rings of an MP x DP grid, one per MP rank): returns
  // the completion time with all rings contending for the fabric.
  [[nodiscard]] double ConcurrentRingAllReduce(
      const std::vector<std::vector<int>>& rings, double bytes) const;

  // Effective bandwidth (bytes moved per rank / time) of an all-reduce
  // over `members` — the number to compare against link speeds.
  [[nodiscard]] double AllReduceBusBandwidth(const std::vector<int>& members,
                                             double bytes) const;

 private:
  // One ring step: every member sends a chunk to its successor.
  [[nodiscard]] std::vector<Transfer> RingStep(
      const std::vector<int>& members, double chunk_bytes) const;

  NetTopology topology_;
};

// Convenience: the contiguous member list for an MP group starting at
// `first_gpu`, and the strided list for a DP ring at mp offset `column`.
std::vector<int> ContiguousGroup(int first_gpu, int size);
std::vector<int> StridedGroup(int column, int stride, int count);

}  // namespace zero::sim
