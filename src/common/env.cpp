#include "common/env.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "common/error.hpp"

namespace zero {

namespace {

[[noreturn]] void Reject(const char* name, const std::string& value,
                         const std::string& expected) {
  throw ConfigError(std::string(name) + "=\"" + value + "\": expected " +
                    expected);
}

std::string Shortest(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Parses all of `text` as a T; false on junk, trailing characters or
// overflow.
template <typename T>
bool ParseWhole(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::optional<std::string> EnvString(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return std::nullopt;
  return std::string(value);
}

std::optional<std::uint64_t> EnvUint(const char* name, std::uint64_t max) {
  const std::optional<std::string> text = EnvString(name);
  if (!text) return std::nullopt;
  std::uint64_t v = 0;
  if (!ParseWhole(*text, v) || v > max) {
    Reject(name, *text,
           "an unsigned integer in [0, " + std::to_string(max) + "]");
  }
  return v;
}

std::optional<double> EnvDouble(const char* name, double lo, double hi) {
  const std::optional<std::string> text = EnvString(name);
  if (!text) return std::nullopt;
  double v = 0.0;
  if (!ParseWhole(*text, v) || !std::isfinite(v) || v < lo || v > hi) {
    Reject(name, *text,
           "a finite number in [" + Shortest(lo) + ", " + Shortest(hi) +
               "]");
  }
  return v;
}

std::optional<bool> EnvFlag(const char* name) {
  const std::optional<std::string> text = EnvString(name);
  if (!text) return std::nullopt;
  if (*text == "0") return false;
  if (*text == "1") return true;
  Reject(name, *text, "0 or 1");
}

}  // namespace zero
