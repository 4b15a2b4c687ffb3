// Paged KV cache for incremental decode, carved from the caching
// allocator in fixed-size blocks (the inference-time analogue of the
// paper's residual-state analysis: KV rows are what bound serving batch
// size, so they get block-granular alloc/free and finished sequences
// return their blocks to the pool immediately).
//
// Layout: one block holds `block_tokens` positions for every layer,
//   [layer 0..L) × [K|V] × [token 0..block_tokens) × [row_floats],
// so a sequence needs ceil(len / block_tokens) blocks regardless of
// depth, and a row pointer is one multiply away from the block base.
// Rows hold only this MP rank's local heads (row_floats = hidden / mp).
//
// Blocks are refcounted so full prefix blocks can be shared
// copy-on-write between sequences whose token prefixes match: a
// hash-keyed index maps the chained hash of each block-aligned token
// prefix to the block holding its K/V rows. Sharing is sound because
// K/V rows are a pure function of the token prefix and the weights —
// bitwise, by the GEMM row contract DESIGN.md §9 states — so an adopted
// block is indistinguishable from recomputing prefill.
// Writers must hold a block exclusively: EnsureAppendable forks any
// shared block in the write range (whole-block copy) before the model
// appends to it. The index holds its own reference per published
// block; when the pool runs dry, index-only blocks (refcount 1) are
// dropped oldest-published-first before the caller sees pressure.
//
// Pool pressure is exported through `alloc.kv.*` gauges: blocks
// total/used/peak plus internal fragmentation (the fraction of token
// capacity in held blocks that no cached row occupies yet);
// `serve.kv.prefix_index_blocks` tracks published prefix blocks.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "alloc/caching_allocator.hpp"
#include "model/gpt.hpp"

namespace zero::serve {

struct KvGeometry {
  std::int64_t layers = 1;
  std::int64_t row_floats = 1;    // hidden / mp on the owning rank
  std::int64_t block_tokens = 8;  // positions per block

  [[nodiscard]] std::int64_t block_floats() const {
    return layers * 2 * block_tokens * row_floats;
  }
  [[nodiscard]] std::size_t block_bytes() const {
    return static_cast<std::size_t>(block_floats()) * sizeof(float);
  }
  [[nodiscard]] std::int64_t blocks_for(std::int64_t tokens) const {
    return (tokens + block_tokens - 1) / block_tokens;
  }
};

// Fixed-capacity pool of refcounted KV blocks. Backed by the caching
// allocator when a device is present (each block is one CachedBlock, so
// Fig-7-style cache accounting sees serving pressure too); heap
// otherwise. Fully released blocks go to an internal freelist for exact
// reuse.
class KvBlockPool {
 public:
  KvBlockPool(KvGeometry geom, std::int64_t max_blocks,
              alloc::CachingAllocator* device, bool record_metrics);

  // Returns a block base pointer with refcount 1, or nullptr when the
  // pool is exhausted (capacity reached, or the device allocator is out
  // of memory).
  [[nodiscard]] float* Acquire();
  // Adds a reference to a held block (prefix sharing).
  void AddRef(float* block);
  // Drops one reference; the block returns to the freelist when the
  // last reference goes away.
  void Release(float* block);
  [[nodiscard]] std::int64_t RefCount(float* block) const;

  [[nodiscard]] const KvGeometry& geometry() const { return geom_; }
  [[nodiscard]] std::int64_t capacity() const { return max_blocks_; }
  [[nodiscard]] std::int64_t used() const { return used_; }
  [[nodiscard]] std::int64_t peak_used() const { return peak_used_; }
  [[nodiscard]] bool record_metrics() const { return record_metrics_; }

  // Fragmentation gauge input: tokens actually cached in held blocks.
  void SetUsedTokens(std::int64_t tokens);

 private:
  void PublishGauges() const;

  KvGeometry geom_;
  std::int64_t max_blocks_ = 0;
  alloc::CachingAllocator* device_ = nullptr;
  bool record_metrics_ = true;
  std::vector<alloc::CachedBlock> device_blocks_;
  std::vector<std::vector<float>> heap_blocks_;
  std::vector<float*> free_list_;
  std::unordered_map<float*, std::int32_t> refs_;
  std::int64_t used_ = 0;
  std::int64_t peak_used_ = 0;
  std::int64_t used_tokens_ = 0;
};

// Slot table mapping sequence handles to block lists; the KvCache the
// model's DecodeForward reads and appends through. With the prefix
// index enabled it also owns the prefix-sharing machinery: AdoptPrefix
// seeds a fresh slot with published blocks, PublishPrefix registers a
// prefilled prompt's full blocks, EnsureAppendable performs
// copy-on-write forks ahead of appends.
class SlotKvCache final : public model::KvCache {
 public:
  explicit SlotKvCache(KvBlockPool* pool, bool prefix_index = false)
      : pool_(pool), prefix_index_(prefix_index) {}

  [[nodiscard]] std::int32_t AllocSlot();
  // Acquires blocks until the slot covers `tokens` positions. Returns
  // false (leaving already-held blocks in place) if the pool runs dry.
  [[nodiscard]] bool EnsureCapacity(std::int32_t slot, std::int64_t tokens);
  // EnsureCapacity for positions [0, from_pos + new_tokens), plus
  // exclusivity of every block overlapping the write range
  // [from_pos, from_pos + new_tokens): shared blocks are forked
  // (whole-block copy) so the model may append through KRow/VRow.
  // Acquisitions retry after dropping index-only blocks. False on dry
  // pool, leaving the slot consistent (some blocks may already be
  // forked — contents are unchanged either way).
  [[nodiscard]] bool EnsureAppendable(std::int32_t slot,
                                      std::int64_t from_pos,
                                      std::int64_t new_tokens);
  // Returns every block of the slot to the pool and retires the slot.
  void FreeSlot(std::int32_t slot);

  // Seeds a fresh (blockless) slot with the longest run of published
  // full blocks matching `tokens`, then — if a partially-filled tail
  // block is published under the same parent prefix — shares that too,
  // up to the longest common run of its tokens. Capped so at least one
  // token is left to prefill. Returns the number of adopted positions
  // (0 when the index is disabled or cold).
  [[nodiscard]] std::int64_t AdoptPrefix(std::int32_t slot,
                                         std::span<const std::int32_t> tokens);
  // Registers a fully prefilled prompt in the index: every full block
  // under its chained token hash, plus the partially-filled tail block
  // (if any) under the parent hash. First publication wins; the index
  // takes one reference per newly published block. No-op when the
  // index is disabled.
  void PublishPrefix(std::int32_t slot, std::span<const std::int32_t> tokens);
  // Drops the oldest published block held only by the index, freeing
  // it. False when every published block still has live readers.
  bool TryEvictIndexBlock();

  [[nodiscard]] std::int64_t slot_blocks(std::int32_t slot) const;
  [[nodiscard]] float* block_at(std::int32_t slot, std::int64_t i) const;
  [[nodiscard]] std::int64_t index_blocks() const {
    return static_cast<std::int64_t>(index_.size() + tail_index_.size());
  }
  [[nodiscard]] bool prefix_index_enabled() const { return prefix_index_; }
  [[nodiscard]] KvBlockPool& pool() { return *pool_; }

  float* KRow(std::int32_t slot, std::int64_t layer,
              std::int64_t pos) override;
  float* VRow(std::int32_t slot, std::int64_t layer,
              std::int64_t pos) override;

 private:
  struct Slot {
    std::vector<float*> blocks;
    bool live = false;
  };
  struct PrefixEntry {
    float* block = nullptr;
    std::vector<std::int32_t> tokens;  // the block's tokens (collision guard)
  };
  struct IndexRef {
    std::uint64_t key = 0;
    bool tail = false;
  };

  float* Row(std::int32_t slot, std::int64_t layer, std::int64_t pos,
             std::int64_t which);
  // Acquire, dropping index-only blocks oldest-first while dry.
  [[nodiscard]] float* AcquireBlock();
  void PublishIndexGauge() const;

  KvBlockPool* pool_;
  bool prefix_index_ = false;
  std::vector<Slot> slots_;
  std::vector<std::int32_t> free_slots_;
  // Full blocks keyed by the chained hash of the block-aligned token
  // prefix they complete; partial tail blocks keyed by the chained hash
  // of their *parent* (block-aligned) prefix.
  std::unordered_map<std::uint64_t, PrefixEntry> index_;
  std::unordered_map<std::uint64_t, PrefixEntry> tail_index_;
  std::deque<IndexRef> index_fifo_;  // publication order (eviction)
};

}  // namespace zero::serve
