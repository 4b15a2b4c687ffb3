#include "obs/telemetry.hpp"

#include <fstream>

#include "common/logging.hpp"

namespace zero::obs {

TelemetryOptions& TelemetryOptions::ResolvePaths() {
  if (!trace_path.empty()) {
    if (metrics_path.empty()) metrics_path = trace_path + ".metrics.json";
    if (report_path.empty()) report_path = trace_path + ".report.json";
  }
  return *this;
}

bool WriteTextFile(const std::string& path, std::string_view text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  f.close();  // flushes; a failed open, write or flush leaves !f
  if (!f) {
    ZLOG_ERROR << "cannot write " << path;
    return false;
  }
  ZLOG_INFO << "wrote " << text.size() << " bytes to " << path;
  return true;
}

}  // namespace zero::obs
