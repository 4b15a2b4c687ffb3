#include "core/engine_config.hpp"

#include <chrono>
#include <limits>
#include <string>

#include "common/env.hpp"
#include "common/error.hpp"

namespace zero::core {

void ApplyEnv(EngineConfig& config) {
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  if (auto v = EnvUint("ZERO_PREFETCH", kIntMax)) {
    config.prefetch_lookahead = static_cast<int>(*v);
  }
  if (auto v = EnvFlag("ZERO_QWZ")) config.qwz = *v;
  if (auto v = EnvFlag("ZERO_HPZ")) config.hpz = *v;
  if (auto v = EnvFlag("ZERO_QGZ")) config.qgz = *v;
  if (auto v = EnvUint("ZERO_RANKS_PER_NODE", kIntMax)) {
    config.ranks_per_node = static_cast<int>(*v);
  }
  if (auto v = EnvString("ZERO_OFFLOAD")) {
    bool known = false;
    for (alloc::TierKind kind :
         {alloc::TierKind::kDevice, alloc::TierKind::kHost,
          alloc::TierKind::kNvme}) {
      if (*v == alloc::TierKindName(kind)) {
        config.offload_tier = kind;
        known = true;
      }
    }
    if (!known) {
      throw ConfigError("ZERO_OFFLOAD=\"" + *v +
                        "\": expected device, host or nvme");
    }
  }
  if (auto v = EnvDouble("ZERO_OFFLOAD_BW", 0.0,
                         std::numeric_limits<double>::max())) {
    config.offload_bandwidth = *v;
  }
  // The deadline becomes nanoseconds on the world's clock.
  constexpr std::uint64_t kDeadlineMaxMs =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::nanoseconds::max())
          .count();
  if (auto v = EnvUint("ZERO_COMM_DEADLINE_MS", kDeadlineMaxMs)) {
    config.comm_deadline_ms = *v;
  }
  if (auto v = EnvString("ZERO_FAULT")) config.fault_spec = *v;
  if (auto v = EnvString("ZERO_TRACE")) {
    config.telemetry.enabled = true;
    config.telemetry.trace_path = *v;
  }
  if (auto v = EnvString("ZERO_POSTMORTEM")) {
    config.telemetry.postmortem_dir = *v;
  }
}

void ValidateEngineConfig(const EngineConfig& config) {
  if (config.accumulation_steps < 1) {
    throw ConfigError("accumulation_steps = " +
                      std::to_string(config.accumulation_steps) +
                      ": must be >= 1");
  }
  if (config.bucket_elems <= 0) {
    throw ConfigError("bucket_elems = " +
                      std::to_string(config.bucket_elems) +
                      ": must be positive");
  }
  if (config.prefetch_lookahead < 0) {
    throw ConfigError("prefetch_lookahead = " +
                      std::to_string(config.prefetch_lookahead) +
                      ": must be >= 0");
  }
  if (config.exact_reductions && config.fp16) {
    throw ConfigError("exact_reductions requires fp32 mode (fp16 = false)");
  }
  if (config.dynamic_loss_scale && !config.fp16) {
    throw ConfigError("dynamic_loss_scale requires fp16 mode (fp16 = true)");
  }
}

}  // namespace zero::core
