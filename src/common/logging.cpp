#include "common/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

namespace zero {

namespace {
std::mutex g_emit_mutex;
thread_local int tl_log_rank = -1;

// Warns and defaults instead of throwing: the logger must work before
// anything can catch an exception.
int InitialLevel() {
  if (const std::optional<std::string> env = EnvString("ZERO_LOG_LEVEL")) {
    if (std::optional<LogLevel> parsed = ParseLogLevel(*env)) {
      return static_cast<int>(*parsed);
    }
    std::fprintf(stderr,
                 "[zero WARN ] ignoring unrecognized ZERO_LOG_LEVEL=\"%s\" "
                 "(want debug/info/warn/error)\n",
                 env->c_str());
  }
  return static_cast<int>(LogLevel::kWarn);
}

std::atomic<int>& Level() {
  static std::atomic<int> level{InitialLevel()};
  return level;
}

std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

// Touch the epoch at static-init time so "+0.000s" really means process
// start, not first log line.
const bool g_epoch_primed = (ProcessEpoch(), true);

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

char AsciiLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}
}  // namespace

void SetLogLevel(LogLevel level) {
  Level().store(static_cast<int>(level));
}

LogLevel GetLogLevel() { return static_cast<LogLevel>(Level().load()); }

std::optional<LogLevel> ParseLogLevel(std::string_view text) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) lower += AsciiLower(c);
  if (lower == "debug" || lower == "0") return LogLevel::kDebug;
  if (lower == "info" || lower == "1") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning" || lower == "2") {
    return LogLevel::kWarn;
  }
  if (lower == "error" || lower == "3") return LogLevel::kError;
  return std::nullopt;
}

void SetThreadLogRank(int rank) { tl_log_rank = rank; }

int GetThreadLogRank() { return tl_log_rank; }

double LogUptimeSeconds() {
  (void)g_epoch_primed;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       ProcessEpoch())
      .count();
}

namespace detail {

std::string FormatLogLine(LogLevel level, double uptime_s, int rank,
                          const std::string& message) {
  char head[64];
  if (rank >= 0) {
    std::snprintf(head, sizeof(head), "[zero %-5s +%.3fs r%d] ",
                  LevelName(level), uptime_s, rank);
  } else {
    std::snprintf(head, sizeof(head), "[zero %-5s +%.3fs] ",
                  LevelName(level), uptime_s);
  }
  return head + message;
}

void Emit(LogLevel level, const std::string& message) {
  const std::string line =
      FormatLogLine(level, LogUptimeSeconds(), tl_log_rank, message);
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::fprintf(stderr, "%s\n", line.c_str());
}

void CheckFailed(const char* expr, const char* file, int line,
                 const std::string& msg) {
  std::string full = std::string("ZERO_CHECK failed: ") + expr + " at " +
                     file + ":" + std::to_string(line) + ": " + msg;
  Emit(LogLevel::kError, full);
  throw Error(full);
}

}  // namespace detail

std::string FormatBytes(double bytes) {
  char buf[64];
  const char* unit = "B";
  double v = bytes;
  if (bytes >= 1e12) {
    v = bytes / 1e12;
    unit = "TB";
  } else if (bytes >= 1e9) {
    v = bytes / 1e9;
    unit = "GB";
  } else if (bytes >= 1e6) {
    v = bytes / 1e6;
    unit = "MB";
  } else if (bytes >= 1e3) {
    v = bytes / 1e3;
    unit = "KB";
  }
  std::snprintf(buf, sizeof(buf), "%.4g %s", v, unit);
  return buf;
}

std::string FormatCount(double count) {
  char buf[64];
  if (count >= 1e12) {
    std::snprintf(buf, sizeof(buf), "%.3gT", count / 1e12);
  } else if (count >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.3gB", count / 1e9);
  } else if (count >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.3gM", count / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", count);
  }
  return buf;
}

std::string DeviceOomError::Format(std::size_t requested,
                                   std::size_t free_total, std::size_t largest,
                                   const std::string& context) {
  std::string s = "device OOM";
  if (!context.empty()) s += " (" + context + ")";
  s += ": requested " + FormatBytes(static_cast<double>(requested)) +
       ", free " + FormatBytes(static_cast<double>(free_total)) +
       ", largest contiguous block " +
       FormatBytes(static_cast<double>(largest));
  if (free_total >= requested) {
    s += " [fragmentation: total free would satisfy the request]";
  }
  return s;
}

}  // namespace zero
