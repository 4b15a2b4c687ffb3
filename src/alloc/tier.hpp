// Storage tiers for optimizer state (ZeRO-Offload / ZeRO-Infinity).
//
// The fp32 master weights and Adam moments — K=12 bytes/param, the
// dominant term of the paper's Sec 3.1 memory accounting — do not have
// to live on the device. This header abstracts *where* they live behind
// a small contract:
//
//   StorageTier     owns persistent byte regions in one off-device tier
//                   (host DRAM or simulated NVMe) and moves slices of
//                   them across the device link.
//   TransferChannel a serialized, configurable-bandwidth link. Like the
//                   rest of the runtime, the simulation moves real bytes
//                   eagerly — a submitted copy lands immediately — and
//                   the channel models *time*: each transfer occupies
//                   the link for bytes/bandwidth, queued FIFO behind
//                   earlier transfers.
//   TransferRequest waitable handle mirroring comm::CommRequest. Wait()
//                   blocks out the remaining simulated link time, so
//                   overlap is physically real: link time that elapses
//                   while the caller computes is never waited on, and
//                   the channel ledger splits active time into hidden
//                   and exposed accordingly.
//
// Because bytes land at submit time, tiering is structurally incapable
// of changing results — the only observable difference between tiers is
// when Wait() returns. That is the bit-exactness argument the offload
// engine builds on (DESIGN.md §13).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "alloc/host_memory.hpp"

namespace zero::alloc {

enum class TierKind : unsigned char {
  kDevice,  // no tier: the state stays on the device (no StorageTier)
  kHost,    // host DRAM behind a PCIe-like link (ZeRO-Offload)
  kNvme,    // simulated NVMe behind a slower link (ZeRO-Infinity)
};

[[nodiscard]] const char* TierKindName(TierKind kind);

enum class TransferDirection : unsigned char {
  kToTier,    // device -> tier (D2H)
  kToDevice,  // tier -> device (H2D)
};

struct ChannelStats {
  std::uint64_t bytes_to_tier = 0;
  std::uint64_t bytes_to_device = 0;
  std::uint64_t active_ns = 0;   // simulated time the link was busy
  std::uint64_t exposed_ns = 0;  // link time callers actually waited out
  [[nodiscard]] std::uint64_t total_bytes() const {
    return bytes_to_tier + bytes_to_device;
  }
  // Fraction of link time hidden behind compute; 1.0 when idle.
  [[nodiscard]] double hidden_fraction() const {
    if (active_ns == 0) return 1.0;
    return 1.0 - static_cast<double>(exposed_ns) /
                     static_cast<double>(active_ns);
  }
};

class TransferChannel;

// Waitable handle for one link transfer. Default-constructed requests
// are already done. Copyable: all copies share one completion state.
class TransferRequest {
 public:
  TransferRequest() = default;

  // Blocks until the simulated link has delivered the transfer; the
  // blocked-out time is charged to the channel's exposed ledger.
  void Wait();
  // Non-blocking completion probe.
  [[nodiscard]] bool Test();
  [[nodiscard]] bool done() const;

 private:
  friend class TransferChannel;
  struct Ticket {
    TransferChannel* channel = nullptr;
    std::uint64_t ready_ns = 0;  // absolute completion time on the link
    bool complete = false;
  };
  std::shared_ptr<Ticket> ticket_;
};

// A serialized device<->tier link of fixed bandwidth. Single-threaded:
// each rank owns its own channels, mirroring how each GPU owns its PCIe
// lanes. `bytes_per_second == 0` means an instant link (transfers
// complete at submit; unit tests default to this so they never sleep).
class TransferChannel {
 public:
  explicit TransferChannel(double bytes_per_second)
      : bytes_per_second_(bytes_per_second) {}
  TransferChannel(const TransferChannel&) = delete;
  TransferChannel& operator=(const TransferChannel&) = delete;

  [[nodiscard]] TransferRequest Submit(TransferDirection dir,
                                       std::size_t bytes);

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] double bytes_per_second() const { return bytes_per_second_; }

 private:
  friend class TransferRequest;
  void WaitUntil(std::uint64_t ready_ns);

  double bytes_per_second_;
  std::uint64_t link_free_ns_ = 0;  // when the link finishes its queue
  ChannelStats stats_;
};

// Persistent storage for optimizer-state regions in one tier.
//
// Regions are zero-initialized at creation. Host-addressable tiers
// expose their bytes via ResidentBytes (host Adam operates on them in
// place — ZeRO-Offload's compute split); tiers that are not
// byte-addressable from the CPU (NVMe) return an empty span and must be
// accessed through FetchAsync/StoreAsync staging.
//
// Fetch/Store move region bytes across the tier's link. SubmitToTier /
// SubmitToDevice account link traffic whose wire format differs from
// the stored fp32 bytes (fp16 gradients in, fp16 parameters out — the
// casts happen host-side in ZeRO-Offload), without touching a region.
class StorageTier {
 public:
  virtual ~StorageTier() = default;

  [[nodiscard]] virtual TierKind kind() const = 0;

  [[nodiscard]] virtual std::size_t CreateRegion(std::size_t bytes) = 0;
  virtual void ReleaseRegion(std::size_t region) = 0;
  [[nodiscard]] virtual std::span<std::byte> ResidentBytes(
      std::size_t region) = 0;

  [[nodiscard]] virtual TransferRequest FetchAsync(
      std::size_t region, std::size_t offset, std::span<std::byte> dst) = 0;
  [[nodiscard]] virtual TransferRequest StoreAsync(
      std::size_t region, std::size_t offset,
      std::span<const std::byte> src) = 0;

  [[nodiscard]] virtual TransferRequest SubmitToTier(std::size_t bytes) = 0;
  [[nodiscard]] virtual TransferRequest SubmitToDevice(std::size_t bytes) = 0;

  // The tier's simulated link (never null).
  [[nodiscard]] virtual TransferChannel* channel() = 0;
};

// Host tier: regions live in a HostMemory pool (so alloc.host.* metrics
// see the K bytes/param and the streaming traffic) behind a PCIe-speed
// link.
class HostTier final : public StorageTier {
 public:
  HostTier(HostMemory* pool, double bytes_per_second)
      : pool_(pool), channel_(bytes_per_second) {}
  ~HostTier() override;

  [[nodiscard]] TierKind kind() const override { return TierKind::kHost; }
  [[nodiscard]] std::size_t CreateRegion(std::size_t bytes) override;
  void ReleaseRegion(std::size_t region) override;
  [[nodiscard]] std::span<std::byte> ResidentBytes(std::size_t region) override;
  [[nodiscard]] TransferRequest FetchAsync(std::size_t region,
                                           std::size_t offset,
                                           std::span<std::byte> dst) override;
  [[nodiscard]] TransferRequest StoreAsync(
      std::size_t region, std::size_t offset,
      std::span<const std::byte> src) override;
  [[nodiscard]] TransferRequest SubmitToTier(std::size_t bytes) override;
  [[nodiscard]] TransferRequest SubmitToDevice(std::size_t bytes) override;
  [[nodiscard]] TransferChannel* channel() override { return &channel_; }

 private:
  HostMemory* pool_;
  TransferChannel channel_;
  std::vector<std::size_t> regions_;  // outstanding pool handles
};

// Simulated NVMe tier: regions live in tier-private storage that is not
// CPU-addressable (ResidentBytes is empty by contract) behind a slower
// link; all access goes through Fetch/Store staging. Occupancy and
// traffic are reported under `alloc.nvme.*`.
class NvmeTier final : public StorageTier {
 public:
  explicit NvmeTier(double bytes_per_second);
  ~NvmeTier() override;

  [[nodiscard]] TierKind kind() const override { return TierKind::kNvme; }
  [[nodiscard]] std::size_t CreateRegion(std::size_t bytes) override;
  void ReleaseRegion(std::size_t region) override;
  [[nodiscard]] std::span<std::byte> ResidentBytes(std::size_t region) override;
  [[nodiscard]] TransferRequest FetchAsync(std::size_t region,
                                           std::size_t offset,
                                           std::span<std::byte> dst) override;
  [[nodiscard]] TransferRequest StoreAsync(
      std::size_t region, std::size_t offset,
      std::span<const std::byte> src) override;
  [[nodiscard]] TransferRequest SubmitToTier(std::size_t bytes) override;
  [[nodiscard]] TransferRequest SubmitToDevice(std::size_t bytes) override;
  [[nodiscard]] TransferChannel* channel() override { return &channel_; }

 private:
  struct Region {
    std::vector<std::byte> bytes;
  };
  TransferChannel channel_;
  std::map<std::size_t, Region> regions_;
  std::size_t next_region_ = 1;
  std::size_t in_use_ = 0;
  std::size_t peak_in_use_ = 0;
  void PublishGauges() const;
};

// Builds the tier for `kind` (kHost or kNvme; kDevice has no tier).
// `host` backs the host tier (required for kHost). `bandwidth` is the
// link speed in bytes/second (0 = instant).
[[nodiscard]] std::unique_ptr<StorageTier> MakeStorageTier(
    TierKind kind, HostMemory* host, double bandwidth);

}  // namespace zero::alloc
