#include "sim/netsim.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace zero::sim {

NetworkSimulator::NetworkSimulator(NetTopology topology)
    : topology_(topology) {
  ZERO_CHECK(topology_.nodes >= 1 && topology_.gpus_per_node >= 1,
             "degenerate topology");
  ZERO_CHECK(topology_.nvswitch_port_bw > 0 && topology_.node_uplink_bw > 0,
             "link bandwidths must be positive");
}

double NetworkSimulator::StepTime(
    const std::vector<Transfer>& transfers) const {
  // Link load accounting. Keys: GPU egress/ingress ports (NVSwitch), and
  // node uplink (egress) / downlink (ingress) for cross-node flows.
  std::map<std::pair<int, int>, double> gpu_out;   // (gpu, 0)
  std::map<std::pair<int, int>, double> gpu_in;    // (gpu, 1)
  std::map<int, double> node_up;
  std::map<int, double> node_down;

  for (const Transfer& t : transfers) {
    ZERO_CHECK(t.src >= 0 && t.src < topology_.total_gpus() && t.dst >= 0 &&
                   t.dst < topology_.total_gpus(),
               "transfer endpoint out of range");
    if (t.src == t.dst || t.bytes <= 0) continue;
    gpu_out[{t.src, 0}] += t.bytes;
    gpu_in[{t.dst, 1}] += t.bytes;
    const int src_node = topology_.NodeOf(t.src);
    const int dst_node = topology_.NodeOf(t.dst);
    if (src_node != dst_node) {
      node_up[src_node] += t.bytes;
      node_down[dst_node] += t.bytes;
    }
  }

  double worst = 0.0;
  // Per-flow NIC cap on cross-node transfers.
  for (const Transfer& t : transfers) {
    if (t.src == t.dst || t.bytes <= 0) continue;
    if (topology_.NodeOf(t.src) != topology_.NodeOf(t.dst)) {
      worst = std::max(worst, t.bytes / topology_.nic_bw);
    }
  }
  for (const auto& [key, bytes] : gpu_out) {
    worst = std::max(worst, bytes / topology_.nvswitch_port_bw);
  }
  for (const auto& [key, bytes] : gpu_in) {
    worst = std::max(worst, bytes / topology_.nvswitch_port_bw);
  }
  for (const auto& [node, bytes] : node_up) {
    worst = std::max(worst, bytes / topology_.node_uplink_bw);
  }
  for (const auto& [node, bytes] : node_down) {
    worst = std::max(worst, bytes / topology_.node_uplink_bw);
  }
  return worst;
}

std::vector<Transfer> NetworkSimulator::RingStep(
    const std::vector<int>& members, double chunk_bytes) const {
  std::vector<Transfer> transfers;
  transfers.reserve(members.size());
  const std::size_t p = members.size();
  for (std::size_t i = 0; i < p; ++i) {
    transfers.push_back(
        Transfer{members[i], members[(i + 1) % p], chunk_bytes});
  }
  return transfers;
}

double NetworkSimulator::RingReduceScatter(const std::vector<int>& members,
                                           double bytes) const {
  const auto p = static_cast<double>(members.size());
  if (members.size() <= 1) return 0.0;
  const double chunk = bytes / p;
  const double step = StepTime(RingStep(members, chunk));
  return (p - 1) * (step + topology_.per_step_latency);
}

double NetworkSimulator::RingAllGather(const std::vector<int>& members,
                                       double bytes) const {
  return RingReduceScatter(members, bytes);  // identical schedule shape
}

double NetworkSimulator::RingAllReduce(const std::vector<int>& members,
                                       double bytes) const {
  return RingReduceScatter(members, bytes) + RingAllGather(members, bytes);
}

double NetworkSimulator::PipelinedBroadcast(
    const std::vector<int>& members, double bytes) const {
  // Pipelined in p chunks: p-1 + p-1 overlapping steps; bounded below by
  // one full message over the slowest hop. Model as p steps of one
  // chunk each plus pipeline fill.
  const auto p = static_cast<double>(members.size());
  if (members.size() <= 1) return 0.0;
  const double chunk = bytes / p;
  const double step = StepTime(RingStep(members, chunk));
  return (2 * p - 2) * (step + topology_.per_step_latency) / 2.0 + step;
}

double NetworkSimulator::ConcurrentRingAllReduce(
    const std::vector<std::vector<int>>& rings, double bytes) const {
  if (rings.empty()) return 0.0;
  const auto p = static_cast<double>(rings.front().size());
  if (rings.front().size() <= 1) return 0.0;
  const double chunk = bytes / p;
  // One synchronized step of ALL rings at once: their flows contend.
  std::vector<Transfer> transfers;
  for (const auto& ring : rings) {
    ZERO_CHECK(ring.size() == rings.front().size(),
               "concurrent rings must have equal size");
    auto step = RingStep(ring, chunk);
    transfers.insert(transfers.end(), step.begin(), step.end());
  }
  const double step = StepTime(transfers);
  return 2 * (p - 1) * (step + topology_.per_step_latency);
}

double NetworkSimulator::AllReduceBusBandwidth(
    const std::vector<int>& members, double bytes) const {
  const double t = RingAllReduce(members, bytes);
  if (t <= 0) return 0.0;
  // Conventional "bus bandwidth" normalization: 2*(p-1)/p * bytes moved
  // per rank over the measured time.
  const auto p = static_cast<double>(members.size());
  return 2.0 * (p - 1) / p * bytes / t;
}

std::vector<int> ContiguousGroup(int first_gpu, int size) {
  std::vector<int> members(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) members[static_cast<std::size_t>(i)] = first_gpu + i;
  return members;
}

std::vector<int> StridedGroup(int column, int stride, int count) {
  std::vector<int> members(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    members[static_cast<std::size_t>(i)] = column + i * stride;
  }
  return members;
}

}  // namespace zero::sim
