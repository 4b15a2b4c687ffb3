// Run-level telemetry switches, threaded through EngineConfig into the
// trainer. Tracing is always compiled in; these options decide whether
// the recorder is turned on for a run and where artifacts land. The
// trace itself is the merged, skew-corrected cross-rank timeline
// (obs/chrome_trace.hpp); the metrics snapshot and step report derive
// their paths from the trace path unless overridden:
//   <trace>.metrics.json    per-step metrics registry snapshots
//   <trace>.report.json     paper-equation step report
// The library reads no environment: a binary that honours ZERO_TRACE
// and ZERO_POSTMORTEM maps them onto these fields through
// core::ApplyEnv (core/engine_config.hpp) or common/env.hpp.
#pragma once

#include <string>
#include <string_view>

namespace zero::obs {

struct TelemetryOptions {
  // Master switch: spans are recorded, metrics snapshotted per step, and
  // the artifacts below written at the end of the run.
  bool enabled = false;

  // Chrome trace_event JSON output path ("" = do not write a trace).
  std::string trace_path;

  // Per-step metrics JSON ("" = derive from trace_path).
  std::string metrics_path;

  // Step report JSON with measured-vs-analytic checks ("" = derive).
  std::string report_path;

  // Flight-recorder post-mortem bundle root ("" = disarmed). Unlike the
  // artifacts above this is independent of `enabled`: the recorder arms
  // a small bounded ring even when full telemetry is off, and only
  // writes when a fault kills the run.
  std::string postmortem_dir;

  // Run the paper-equation validation (memory 4x/8x/Nd, comm 1x/1x/1.5x)
  // and log divergences. Independent of whether a report file is written.
  bool validate = true;

  // Per-thread ring capacity in events while this run records.
  std::size_t trace_buffer_events = 16384;

  // Fills the derived paths in place and returns self.
  TelemetryOptions& ResolvePaths();
};

// Writes `text` to `path`, creating or truncating it. Every telemetry
// artifact (trace, metrics, report, post-mortem bundle files) goes
// through here, so an unopenable file or a short write is detected and
// logged once, the same way everywhere. Returns false on failure.
bool WriteTextFile(const std::string& path, std::string_view text);

}  // namespace zero::obs
