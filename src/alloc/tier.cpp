#include "alloc/tier.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zero::alloc {

const char* TierKindName(TierKind kind) {
  switch (kind) {
    case TierKind::kDevice:
      return "device";
    case TierKind::kHost:
      return "host";
    case TierKind::kNvme:
      return "nvme";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TransferRequest / TransferChannel

void TransferRequest::Wait() {
  if (ticket_ == nullptr || ticket_->complete) return;
  ticket_->channel->WaitUntil(ticket_->ready_ns);
  ticket_->complete = true;
}

bool TransferRequest::Test() {
  if (ticket_ == nullptr || ticket_->complete) return true;
  if (obs::TraceNowNs() >= ticket_->ready_ns) {
    ticket_->complete = true;
    return true;
  }
  return false;
}

bool TransferRequest::done() const {
  return ticket_ == nullptr || ticket_->complete;
}

TransferRequest TransferChannel::Submit(TransferDirection dir,
                                        std::size_t bytes) {
  if (dir == TransferDirection::kToTier) {
    stats_.bytes_to_tier += bytes;
  } else {
    stats_.bytes_to_device += bytes;
  }
  TransferRequest req;
  if (bytes_per_second_ <= 0.0) return req;  // instant link: already done

  const std::uint64_t now = obs::TraceNowNs();
  const auto duration_ns = static_cast<std::uint64_t>(
      static_cast<double>(bytes) / bytes_per_second_ * 1e9);
  const std::uint64_t start = std::max(now, link_free_ns_);
  link_free_ns_ = start + duration_ns;
  stats_.active_ns += duration_ns;

  req.ticket_ = std::make_shared<TransferRequest::Ticket>();
  req.ticket_->channel = this;
  req.ticket_->ready_ns = link_free_ns_;
  return req;
}

void TransferChannel::WaitUntil(std::uint64_t ready_ns) {
  const std::uint64_t now = obs::TraceNowNs();
  if (now >= ready_ns) return;
  const std::uint64_t remaining = ready_ns - now;
  stats_.exposed_ns += remaining;
  std::this_thread::sleep_for(std::chrono::nanoseconds(remaining));
}

// ---------------------------------------------------------------------------
// HostTier

HostTier::~HostTier() {
  for (const std::size_t handle : regions_) pool_->ReleaseRegion(handle);
}

std::size_t HostTier::CreateRegion(std::size_t bytes) {
  const std::size_t handle = pool_->CreateRegion(bytes);
  regions_.push_back(handle);
  return handle;
}

void HostTier::ReleaseRegion(std::size_t region) {
  auto it = std::find(regions_.begin(), regions_.end(), region);
  ZERO_CHECK(it != regions_.end(), "releasing unknown host-tier region");
  regions_.erase(it);
  pool_->ReleaseRegion(region);
}

std::span<std::byte> HostTier::ResidentBytes(std::size_t region) {
  return pool_->RegionBytes(region);
}

TransferRequest HostTier::FetchAsync(std::size_t region, std::size_t offset,
                                     std::span<std::byte> dst) {
  const std::span<std::byte> src = pool_->RegionBytes(region);
  ZERO_CHECK(offset + dst.size() <= src.size(), "host-tier fetch overflow");
  std::memcpy(dst.data(), src.data() + offset, dst.size());
  pool_->NoteFromHost(dst.size());
  return channel_.Submit(TransferDirection::kToDevice, dst.size());
}

TransferRequest HostTier::StoreAsync(std::size_t region, std::size_t offset,
                                     std::span<const std::byte> src) {
  const std::span<std::byte> dst = pool_->RegionBytes(region);
  ZERO_CHECK(offset + src.size() <= dst.size(), "host-tier store overflow");
  std::memcpy(dst.data() + offset, src.data(), src.size());
  pool_->NoteToHost(src.size());
  return channel_.Submit(TransferDirection::kToTier, src.size());
}

TransferRequest HostTier::SubmitToTier(std::size_t bytes) {
  pool_->NoteToHost(bytes);
  return channel_.Submit(TransferDirection::kToTier, bytes);
}

TransferRequest HostTier::SubmitToDevice(std::size_t bytes) {
  pool_->NoteFromHost(bytes);
  return channel_.Submit(TransferDirection::kToDevice, bytes);
}

// ---------------------------------------------------------------------------
// NvmeTier

NvmeTier::NvmeTier(double bytes_per_second) : channel_(bytes_per_second) {}

NvmeTier::~NvmeTier() {
  in_use_ = 0;
  regions_.clear();
  PublishGauges();
}

void NvmeTier::PublishGauges() const {
  obs::Metrics().gauge("alloc.nvme.in_use").Set(static_cast<double>(in_use_));
  obs::Metrics().gauge("alloc.nvme.peak").Set(
      static_cast<double>(peak_in_use_));
}

std::size_t NvmeTier::CreateRegion(std::size_t bytes) {
  const std::size_t id = next_region_++;
  regions_.emplace(id, Region{std::vector<std::byte>(bytes)});
  in_use_ += bytes;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  PublishGauges();
  return id;
}

void NvmeTier::ReleaseRegion(std::size_t region) {
  auto it = regions_.find(region);
  ZERO_CHECK(it != regions_.end(), "releasing unknown nvme region");
  in_use_ -= it->second.bytes.size();
  regions_.erase(it);
  PublishGauges();
}

std::span<std::byte> NvmeTier::ResidentBytes(std::size_t) {
  // NVMe is not CPU-addressable: callers must stage through Fetch/Store.
  return {};
}

TransferRequest NvmeTier::FetchAsync(std::size_t region, std::size_t offset,
                                     std::span<std::byte> dst) {
  auto it = regions_.find(region);
  ZERO_CHECK(it != regions_.end(), "fetching unknown nvme region");
  ZERO_CHECK(offset + dst.size() <= it->second.bytes.size(),
             "nvme fetch overflow");
  std::memcpy(dst.data(), it->second.bytes.data() + offset, dst.size());
  return channel_.Submit(TransferDirection::kToDevice, dst.size());
}

TransferRequest NvmeTier::StoreAsync(std::size_t region, std::size_t offset,
                                     std::span<const std::byte> src) {
  auto it = regions_.find(region);
  ZERO_CHECK(it != regions_.end(), "storing to unknown nvme region");
  ZERO_CHECK(offset + src.size() <= it->second.bytes.size(),
             "nvme store overflow");
  std::memcpy(it->second.bytes.data() + offset, src.data(), src.size());
  return channel_.Submit(TransferDirection::kToTier, src.size());
}

TransferRequest NvmeTier::SubmitToTier(std::size_t bytes) {
  return channel_.Submit(TransferDirection::kToTier, bytes);
}

TransferRequest NvmeTier::SubmitToDevice(std::size_t bytes) {
  return channel_.Submit(TransferDirection::kToDevice, bytes);
}

// ---------------------------------------------------------------------------

std::unique_ptr<StorageTier> MakeStorageTier(TierKind kind, HostMemory* host,
                                             double bandwidth) {
  switch (kind) {
    case TierKind::kDevice:
      break;  // no tier: the state stays on the device
    case TierKind::kHost:
      ZERO_CHECK(host != nullptr, "host tier requires a HostMemory pool");
      return std::make_unique<HostTier>(host, bandwidth);
    case TierKind::kNvme:
      return std::make_unique<NvmeTier>(bandwidth);
  }
  ZERO_CHECK(false, std::string("no storage tier for ") + TierKindName(kind));
  return nullptr;
}

}  // namespace zero::alloc
