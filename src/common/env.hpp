// The process environment, read in one place. Every ZERO_* knob goes
// through one of these typed readers; nothing else in the runtime reads
// the environment. Binaries decide which knobs they honour
// (core::ApplyEnv for the training overlay, the example and bench mains
// for their own); the library itself reads no environment.
//
// Each reader returns nullopt when the variable is unset or empty. A set
// value that does not parse completely and in range throws
// zero::ConfigError naming the variable and its value: trailing junk, a
// sign on an unsigned knob, overflow, and NaN or Inf for a double are
// all rejected rather than silently becoming 0.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace zero {

[[nodiscard]] std::optional<std::string> EnvString(const char* name);

// Decimal digits only, value in [0, max].
[[nodiscard]] std::optional<std::uint64_t> EnvUint(const char* name,
                                                   std::uint64_t max);

// A finite decimal number in [lo, hi].
[[nodiscard]] std::optional<double> EnvDouble(const char* name, double lo,
                                              double hi);

// Exactly "0" (false) or "1" (true).
[[nodiscard]] std::optional<bool> EnvFlag(const char* name);

}  // namespace zero
