// The storage-tier extension of the memory and cost models: "what fits
// on N GPUs with the optimizer state in host DRAM or on NVMe" (the
// ZeRO-Offload / ZeRO-Infinity direction the paper's Sec 2.2.2
// contrasts with), up to trillion-parameter configs.
#include <gtest/gtest.h>

#include "sim/cost_model.hpp"
#include "sim/memory_model.hpp"
#include "sim/search.hpp"

namespace zero::sim {
namespace {

using model::ZeroStage;

JobConfig TrillionJob(OffloadTier tier) {
  JobConfig job;
  job.model.hidden = 16384;
  job.model.heads = 128;
  job.model.layers = 310;  // 12*l*h^2 ~= 1T
  job.gpus = 1024;
  job.mp = 1;
  job.batch_per_gpu = 1;
  job.stage = ZeroStage::kOsGP;
  job.optimizer_tier = tier;
  return job;
}

TEST(OffloadMemoryModelTest, TierRelocatesTheOptimizerTermOffDevice) {
  ClusterSpec cluster;
  const MemoryBreakdown device =
      EstimateMemory(cluster, TrillionJob(OffloadTier::kNone));
  ASSERT_GT(device.optimizer, 0.0);
  EXPECT_EQ(device.host_total(), 0.0);
  EXPECT_EQ(device.nvme_total(), 0.0);

  const MemoryBreakdown host =
      EstimateMemory(cluster, TrillionJob(OffloadTier::kHost));
  EXPECT_EQ(host.optimizer, 0.0);
  EXPECT_EQ(host.host_optimizer, device.optimizer);
  EXPECT_EQ(host.nvme_total(), 0.0);
  // The device footprint drops by exactly the relocated K*Psi/Nd term.
  EXPECT_DOUBLE_EQ(device.total() - host.total(), device.optimizer);

  const MemoryBreakdown nvme =
      EstimateMemory(cluster, TrillionJob(OffloadTier::kNvme));
  EXPECT_EQ(nvme.optimizer, 0.0);
  EXPECT_EQ(nvme.host_optimizer, 0.0);
  EXPECT_EQ(nvme.nvme_optimizer, device.optimizer);
  EXPECT_DOUBLE_EQ(nvme.total(), host.total());
}

TEST(OffloadMemoryModelTest, PaCpuCheckpointsCountAgainstHostCapacity) {
  ClusterSpec cluster;
  JobConfig job = TrillionJob(OffloadTier::kHost);
  job.pa = true;
  job.pa_cpu = true;
  const MemoryBreakdown mem = EstimateMemory(cluster, job);
  EXPECT_EQ(mem.checkpoints, 0.0);
  EXPECT_GT(mem.host_checkpoints, 0.0);
  EXPECT_DOUBLE_EQ(mem.host_total(),
                   mem.host_optimizer + mem.host_checkpoints);
}

TEST(OffloadMemoryModelTest, CheckFitsEnforcesEveryTiersCapacity) {
  ClusterSpec cluster;
  // 1T on 512 GPUs with Pos+g+p: the K*Psi/Nd term blows the usable
  // device budget; relocating it to either off-device tier fits.
  JobConfig device_job = TrillionJob(OffloadTier::kNone);
  device_job.gpus = 512;
  EXPECT_FALSE(CheckFits(cluster, device_job).device);
  JobConfig host_job = TrillionJob(OffloadTier::kHost);
  host_job.gpus = 512;
  const FitsReport host = CheckFits(cluster, host_job);
  EXPECT_TRUE(host.device);
  EXPECT_TRUE(host.host);
  EXPECT_TRUE(host.all());
  JobConfig nvme_job = TrillionJob(OffloadTier::kNvme);
  nvme_job.gpus = 512;
  const FitsReport nvme = CheckFits(cluster, nvme_job);
  EXPECT_TRUE(nvme.all());

  // Host DRAM is a real capacity, not a free escape hatch: starve it
  // and the same job stops fitting (likewise NVMe).
  ClusterSpec tiny = cluster;
  tiny.host_memory_per_node = 1e9;
  const FitsReport starved = CheckFits(tiny, host_job);
  EXPECT_TRUE(starved.device);
  EXPECT_FALSE(starved.host);
  EXPECT_FALSE(starved.all());
  ClusterSpec tiny_nvme = cluster;
  tiny_nvme.nvme_per_node = 1e9;
  EXPECT_FALSE(CheckFits(tiny_nvme, nvme_job).nvme);
  EXPECT_FALSE(Fits(tiny_nvme, nvme_job));
}

TEST(OffloadSearchTest, MinGpusToFitIsTightAndOffloadShrinksIt) {
  ClusterSpec cluster;
  const int device_min = MinGpusToFit(cluster, TrillionJob(OffloadTier::kNone));
  const int host_min = MinGpusToFit(cluster, TrillionJob(OffloadTier::kHost));
  const int nvme_min = MinGpusToFit(cluster, TrillionJob(OffloadTier::kNvme));
  ASSERT_GT(device_min, 0);
  ASSERT_GT(host_min, 0);
  // Moving K*Psi/Nd off the device is what makes 1T reachable with
  // far fewer GPUs (Sec 9's feasibility frontier).
  EXPECT_LT(host_min, device_min);
  EXPECT_EQ(nvme_min, host_min);

  // Tightness: fits at the returned count, not one fewer.
  for (const int min_gpus : {device_min, host_min}) {
    JobConfig job = TrillionJob(min_gpus == host_min ? OffloadTier::kHost
                                                     : OffloadTier::kNone);
    job.gpus = min_gpus;
    EXPECT_TRUE(Fits(cluster, job)) << min_gpus;
    job.gpus = min_gpus - 1;
    EXPECT_FALSE(Fits(cluster, job)) << min_gpus;
  }

  // A search capped below the answer reports "never" as 0.
  EXPECT_EQ(MinGpusToFit(cluster, TrillionJob(OffloadTier::kNone), 64), 0);
}

TEST(OffloadCostModelTest, BytesPerStepMatchTheWireFormat) {
  JobConfig job = TrillionJob(OffloadTier::kNone);
  EXPECT_EQ(OptimizerOffloadBytesPerStep(job), 0.0);

  job.optimizer_tier = OffloadTier::kHost;
  const double shard = job.psi_local() / job.dp();
  // ZeRO-Offload's split: fp16 gradients down + fp16 parameters back.
  EXPECT_DOUBLE_EQ(OptimizerOffloadBytesPerStep(job), 4.0 * shard);

  // NVMe is not host-addressable: the 12 B/param fp32 state streams
  // through the link both ways on top of the wire format.
  job.optimizer_tier = OffloadTier::kNvme;
  EXPECT_DOUBLE_EQ(OptimizerOffloadBytesPerStep(job), 28.0 * shard);

  // The unpartitioned baseline offloads its full replica.
  job.stage = ZeroStage::kNone;
  job.optimizer_tier = OffloadTier::kHost;
  EXPECT_DOUBLE_EQ(OptimizerOffloadBytesPerStep(job), 4.0 * job.psi_local());
}

TEST(OffloadCostModelTest, ExposedTimeShrinksWithComputeToOverlap) {
  ClusterSpec cluster;
  JobConfig job = TrillionJob(OffloadTier::kHost);
  const double cold = ExposedOffloadSeconds(cluster, job, 0.0);
  EXPECT_DOUBLE_EQ(cold,
                   OptimizerOffloadBytesPerStep(job) / cluster.pcie_bw);
  // Enough backward/step compute hides the stream entirely.
  EXPECT_LT(ExposedOffloadSeconds(cluster, job, cold), cold);
  EXPECT_EQ(ExposedOffloadSeconds(cluster, job, 1e9), 0.0);
  // The NVMe stream rides the (slower) NVMe link.
  job.optimizer_tier = OffloadTier::kNvme;
  EXPECT_DOUBLE_EQ(ExposedOffloadSeconds(cluster, job, 0.0),
                   OptimizerOffloadBytesPerStep(job) / cluster.nvme_bw);
}

TEST(OffloadCostModelTest, ThroughputChargesTheExposedStream) {
  // EstimateThroughput's offload_s is exactly the shared helper's
  // answer.
  ClusterSpec cluster;
  JobConfig job = TrillionJob(OffloadTier::kNvme);
  const ThroughputEstimate none =
      EstimateThroughput(cluster, TrillionJob(OffloadTier::kNone));
  const ThroughputEstimate nvme = EstimateThroughput(cluster, job);
  EXPECT_EQ(none.offload_s, 0.0);
  EXPECT_DOUBLE_EQ(nvme.offload_s,
                   ExposedOffloadSeconds(cluster, job, nvme.compute_s));
  EXPECT_LE(nvme.tflops_per_gpu, none.tflops_per_gpu);
  EXPECT_NEAR(nvme.step_seconds,
              nvme.compute_s + nvme.mp_comm_s + nvme.dp_comm_s +
                  nvme.offload_s,
              1e-12);
}

}  // namespace
}  // namespace zero::sim
