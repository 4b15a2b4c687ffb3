// Chrome trace_event JSON export of the merged, skew-corrected Timeline
// (obs/timeline.hpp), plus a strict validator for the emitted format
// (used by the trace tests and the CI smoke gate, and runnable over any
// artifact via the bench/trace_validate binary).
//
// Layout: one pid per rank (pid = rank + 1; untagged threads land in
// pid 0), one tid per recording thread, "X" complete events with
// microsecond timestamps sorted ascending, and "M" metadata events
// naming each process ("rank N") and thread lane. otherData carries
// droppedEvents, droppedByLane (nonzero lanes only) and clockSkewNs (the
// per-rank offset subtracted from every span). The output loads directly
// in chrome://tracing and https://ui.perfetto.dev.
//
// Every trace artifact goes through here:
//   WriteTextFile(path, ChromeTraceJson(BuildTimeline(CollectEvents())))
#pragma once

#include <string>

#include "obs/timeline.hpp"

namespace zero::obs {

// Serializes `timeline` to a Chrome trace_event JSON document.
[[nodiscard]] std::string ChromeTraceJson(const Timeline& timeline);

// Strict validation: `text` must parse as JSON (RFC 8259) and satisfy
// the trace_event contract above — top-level object with a
// "traceEvents" array; every event an object with string "name"/"ph"
// and numeric "pid"/"tid"; every "X" event with numeric "ts" >= 0 and
// "dur" >= 0, and "X" timestamps monotonically non-decreasing in file
// order. On failure returns false and describes the problem in *error.
bool ValidateChromeTrace(const std::string& text, std::string* error);

// Reads `path` and validates. Missing/unreadable files fail.
bool ValidateChromeTraceFile(const std::string& path, std::string* error);

}  // namespace zero::obs
