// Simulated device (GPU) memory.
//
// The paper's headline experiments are memory experiments: max model size
// (Table 2, Fig 6), max cached memory (Fig 7), fragmentation-induced OOM
// with >30% free (Sec 3.2), and defragmentation via contiguous
// pre-allocation (Sec 6.3). To make those *measurable* rather than
// asserted, every "device" tensor in this runtime is carved out of a
// DeviceMemory: a fixed-capacity region managed by a real free-list
// allocator. Allocation failure, fragmentation and high-water marks are
// produced mechanistically, just at MiB scale instead of 32 GiB.
//
// The region is backed by actual host bytes so tensors can read/write
// through their allocation — the simulation is about *capacity*, not
// about faking data.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "common/error.hpp"

namespace zero::alloc {

enum class FitPolicy : unsigned char {
  kFirstFit,  // fastest, fragments more — models a naive allocator
  kBestFit,   // what most caching allocators approximate
};

struct DeviceStats {
  std::size_t capacity = 0;
  std::size_t in_use = 0;            // bytes currently allocated
  std::size_t peak_in_use = 0;       // high-water of in_use
  std::size_t free_total = 0;        // capacity - in_use (incl. padding)
  std::size_t largest_free_block = 0;
  std::size_t num_allocations = 0;   // live blocks
  std::uint64_t total_allocs = 0;    // lifetime counters
  std::uint64_t total_frees = 0;
  std::uint64_t failed_allocs = 0;
  // Fraction of free memory unusable for a request of largest_free_block+1.
  [[nodiscard]] double ExternalFragmentation() const {
    if (free_total == 0) return 0.0;
    return 1.0 - static_cast<double>(largest_free_block) /
                     static_cast<double>(free_total);
  }
};

class DeviceMemory;

// RAII handle to a device allocation. Move-only; frees on destruction.
class Allocation {
 public:
  Allocation() = default;
  Allocation(DeviceMemory* owner, std::size_t offset, std::size_t size);
  ~Allocation();

  Allocation(Allocation&& other) noexcept;
  Allocation& operator=(Allocation&& other) noexcept;
  Allocation(const Allocation&) = delete;
  Allocation& operator=(const Allocation&) = delete;

  [[nodiscard]] std::byte* data();
  [[nodiscard]] const std::byte* data() const;
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] bool valid() const { return owner_ != nullptr; }

  void Release();  // explicit early free

 private:
  DeviceMemory* owner_ = nullptr;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

class DeviceMemory {
 public:
  // `name` appears in OOM messages ("rank 3 device").
  DeviceMemory(std::size_t capacity, std::string name,
               FitPolicy policy = FitPolicy::kBestFit);

  DeviceMemory(const DeviceMemory&) = delete;
  DeviceMemory& operator=(const DeviceMemory&) = delete;

  // Throws DeviceOomError when no contiguous block fits. All sizes are
  // rounded up to kAlignment, matching CUDA's 256-byte granularity.
  [[nodiscard]] Allocation Allocate(std::size_t bytes);

  // Non-throwing probe used by max-model-size searches.
  [[nodiscard]] bool CanAllocate(std::size_t bytes) const;

  [[nodiscard]] DeviceStats Stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  void ResetPeak();

  static constexpr std::size_t kAlignment = 256;
  static std::size_t AlignUp(std::size_t bytes) {
    if (bytes == 0) bytes = 1;
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
  }

 private:
  friend class Allocation;
  void Free(std::size_t offset, std::size_t size);
  [[nodiscard]] std::map<std::size_t, std::size_t>::const_iterator FindBlock(
      std::size_t need) const;

  std::size_t capacity_;
  std::string name_;
  FitPolicy policy_;
  // Zero-filled by calloc, so the OS commits pages on first touch and a
  // 256 MiB device costs no up-front memset. Rank setup must stay short:
  // peers already wait in setup collectives under the heartbeat deadline.
  struct FreeBytes {
    void operator()(std::byte* p) const { std::free(p); }
  };
  std::unique_ptr<std::byte[], FreeBytes> storage_;
  std::map<std::size_t, std::size_t> free_blocks_;  // offset -> size
  std::map<std::size_t, std::size_t> live_blocks_;  // offset -> size
  std::size_t in_use_ = 0;
  std::size_t peak_in_use_ = 0;
  std::uint64_t total_allocs_ = 0;
  std::uint64_t total_frees_ = 0;
  std::uint64_t failed_allocs_ = 0;
};

}  // namespace zero::alloc
