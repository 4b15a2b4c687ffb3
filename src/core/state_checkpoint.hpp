// Training-state checkpointing for ZeRO engines.
//
// ZeRO scatters the authoritative training state — fp32 master
// parameters, Adam momentum and variance — across the data-parallel
// group, 1/Nd per rank. A checkpoint must therefore be *re-assembled*
// (all-gather of every shard) on save and *re-partitioned* on load.
// Storing the full, Nd-independent state buys elasticity: a run saved at
// Nd = 4 resumes at Nd = 2 (or 8) and continues the exact same Adam
// trajectory, because the state never depended on the partitioning.
//
// Format: a small versioned header followed by three fp32 arrays
// (master, momentum, variance) of total_numel elements each.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace zero::core {

struct TrainingState {
  std::int64_t total_numel = 0;
  std::int64_t step_count = 0;    // Adam's bias-correction clock
  float loss_scale = 1.0f;        // dynamic scaler position (fp16 runs)
  // Rest of the dynamic scaler's control loop (v2 checkpoints): without
  // the growth countdown, a resumed run re-doubles the scale at the
  // wrong step and its fp16 trajectory diverges from the original.
  std::int32_t scaler_steps_since_backoff = 0;
  std::int64_t scaler_skipped = 0;
  std::int64_t scaler_good = 0;
  std::vector<float> master;
  std::vector<float> momentum;
  std::vector<float> variance;

  [[nodiscard]] std::vector<std::byte> Serialize() const;
  static TrainingState Deserialize(std::span<const std::byte> bytes);

  // File round trip. The save is crash-safe: the bytes go to the sibling
  // `path + ".tmp"`, which is fsync'ed and then renamed over `path`, so a
  // save that fails (zero::Error) or dies part way leaves the previous
  // file at `path` whole.
  void SaveToFile(const std::string& path) const;
  static TrainingState LoadFromFile(const std::string& path);

  friend bool operator==(const TrainingState&, const TrainingState&) =
      default;
};

}  // namespace zero::core
