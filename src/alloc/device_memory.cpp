#include "alloc/device_memory.hpp"

#include "obs/metrics.hpp"

#include <new>
#include <utility>

namespace zero::alloc {

Allocation::Allocation(DeviceMemory* owner, std::size_t offset,
                       std::size_t size)
    : owner_(owner), offset_(offset), size_(size) {}

Allocation::~Allocation() { Release(); }

Allocation::Allocation(Allocation&& other) noexcept
    : owner_(std::exchange(other.owner_, nullptr)),
      offset_(other.offset_),
      size_(other.size_) {}

Allocation& Allocation::operator=(Allocation&& other) noexcept {
  if (this != &other) {
    Release();
    owner_ = std::exchange(other.owner_, nullptr);
    offset_ = other.offset_;
    size_ = other.size_;
  }
  return *this;
}

std::byte* Allocation::data() {
  ZERO_CHECK(owner_ != nullptr, "dereferencing a released Allocation");
  return owner_->storage_.get() + offset_;
}

const std::byte* Allocation::data() const {
  ZERO_CHECK(owner_ != nullptr, "dereferencing a released Allocation");
  return owner_->storage_.get() + offset_;
}

void Allocation::Release() {
  if (owner_ != nullptr) {
    owner_->Free(offset_, size_);
    owner_ = nullptr;
  }
}

DeviceMemory::DeviceMemory(std::size_t capacity, std::string name,
                           FitPolicy policy)
    : capacity_(AlignUp(capacity)),
      name_(std::move(name)),
      policy_(policy),
      storage_(static_cast<std::byte*>(std::calloc(capacity_, 1))) {
  if (storage_ == nullptr) throw std::bad_alloc();
  free_blocks_[0] = capacity_;
}

std::map<std::size_t, std::size_t>::const_iterator DeviceMemory::FindBlock(
    std::size_t need) const {
  if (policy_ == FitPolicy::kFirstFit) {
    for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
      if (it->second >= need) return it;
    }
    return free_blocks_.end();
  }
  // Best fit: smallest block that satisfies the request.
  auto best = free_blocks_.end();
  std::size_t best_size = 0;
  for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
    if (it->second >= need &&
        (best == free_blocks_.end() || it->second < best_size)) {
      best = it;
      best_size = it->second;
    }
  }
  return best;
}

Allocation DeviceMemory::Allocate(std::size_t bytes) {
  const std::size_t need = AlignUp(bytes);
  auto it = FindBlock(need);
  if (it == free_blocks_.end()) {
    ++failed_allocs_;
    const DeviceStats s = Stats();
    static obs::Counter& failed = obs::Metrics().counter("alloc.device.oom");
    failed.Add();
    // Fragmentation at the moment of failure is the interesting sample:
    // it distinguishes "genuinely out of memory" from "memory is there
    // but shredded" (the ZeRO-R MD motivation).
    static obs::Histogram& frag =
        obs::Metrics().histogram("alloc.fragmentation_pct");
    frag.Observe(s.ExternalFragmentation() * 100.0);
    throw DeviceOomError(need, s.free_total, s.largest_free_block, name_);
  }
  const std::size_t offset = it->first;
  const std::size_t block_size = it->second;
  free_blocks_.erase(offset);
  if (block_size > need) {
    free_blocks_[offset + need] = block_size - need;
  }
  live_blocks_[offset] = need;
  in_use_ += need;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  ++total_allocs_;
  return Allocation(this, offset, need);
}

bool DeviceMemory::CanAllocate(std::size_t bytes) const {
  return FindBlock(AlignUp(bytes)) != free_blocks_.end();
}

void DeviceMemory::Free(std::size_t offset, std::size_t size) {
  auto live = live_blocks_.find(offset);
  ZERO_CHECK(live != live_blocks_.end() && live->second == size,
             "double free or corrupted allocation in " + name_);
  live_blocks_.erase(live);
  in_use_ -= size;
  ++total_frees_;

  // Insert and coalesce with neighbors.
  auto [it, inserted] = free_blocks_.emplace(offset, size);
  ZERO_CHECK(inserted, "free block overlaps existing free block");
  // Merge with successor.
  auto next = std::next(it);
  if (next != free_blocks_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_blocks_.erase(next);
  }
  // Merge with predecessor.
  if (it != free_blocks_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_blocks_.erase(it);
    }
  }
}

DeviceStats DeviceMemory::Stats() const {
  DeviceStats s;
  s.capacity = capacity_;
  s.in_use = in_use_;
  s.peak_in_use = peak_in_use_;
  s.free_total = capacity_ - in_use_;
  for (const auto& [offset, size] : free_blocks_) {
    s.largest_free_block = std::max(s.largest_free_block, size);
  }
  s.num_allocations = live_blocks_.size();
  s.total_allocs = total_allocs_;
  s.total_frees = total_frees_;
  s.failed_allocs = failed_allocs_;
  return s;
}

void DeviceMemory::ResetPeak() { peak_in_use_ = in_use_; }

}  // namespace zero::alloc
