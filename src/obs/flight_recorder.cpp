#include "obs/flight_recorder.hpp"

#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "common/logging.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace zero::obs {

namespace {

struct Recorder {
  std::mutex mutex;
  bool enabled = false;
  FlightRecorderOptions opts;
  std::deque<std::pair<std::int64_t, std::string>> snapshots;
};

Recorder& TheRecorder() {
  static Recorder* r = new Recorder();
  return *r;
}

}  // namespace

void EnableFlightRecorder(const FlightRecorderOptions& options) {
  Recorder& r = TheRecorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.enabled = true;
  r.opts = options;
  r.snapshots.clear();
  if (!TracingEnabled()) {
    SetTraceBufferCapacity(options.ring_events);
    EnableTracing();
  }
}

void DisableFlightRecorder() {
  Recorder& r = TheRecorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.enabled = false;
  r.snapshots.clear();
}

bool FlightRecorderEnabled() {
  Recorder& r = TheRecorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.enabled;
}

std::string FlightRecorderDir() {
  Recorder& r = TheRecorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.enabled ? r.opts.dir : std::string();
}

void FlightRecorderStepSnapshot(std::int64_t step,
                                std::string metrics_json) {
  Recorder& r = TheRecorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  if (!r.enabled) return;
  r.snapshots.emplace_back(step, std::move(metrics_json));
  while (r.snapshots.size() > r.opts.max_snapshots) {
    r.snapshots.pop_front();
  }
}

std::string FlushFlightRecorder(const std::string& reason,
                                const std::string& label) {
  FlightRecorderOptions opts;
  std::deque<std::pair<std::int64_t, std::string>> snapshots;
  {
    Recorder& r = TheRecorder();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (!r.enabled) return "";
    opts = r.opts;
    snapshots = r.snapshots;
  }
  std::string dir = opts.dir;
  if (!label.empty()) dir += "/" + label;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    ZLOG_ERROR << "flight recorder: cannot create " << dir << ": "
               << ec.message();
    return "";
  }

  const std::vector<ThreadEvents> threads = CollectEvents();
  const Timeline timeline = BuildTimeline(threads);

  // Per-rank traces: the timeline of each rank's events alone, keeping
  // the global lane ids so the bundle cross-references the merged one.
  std::set<int> ranks;
  for (const ThreadEvents& te : threads) {
    for (const TraceEvent& e : te.events) {
      if (e.rank >= 0) ranks.insert(e.rank);
    }
  }
  json::Value rank_traces = json::Value::MakeArray();
  bool io_ok = true;
  for (int rank : ranks) {
    std::vector<ThreadEvents> mine;
    for (const ThreadEvents& te : threads) {
      ThreadEvents filtered;
      filtered.tid = te.tid;
      filtered.name = te.name;
      filtered.dropped = te.dropped;
      for (const TraceEvent& e : te.events) {
        if (e.rank == rank) filtered.events.push_back(e);
      }
      if (!filtered.events.empty()) mine.push_back(std::move(filtered));
    }
    const std::string file = "rank-" + std::to_string(rank) + ".trace.json";
    io_ok &= WriteTextFile(dir + "/" + file,
                           ChromeTraceJson(BuildTimeline(mine)));
    rank_traces.Append(json::Value(file));
  }
  io_ok &= WriteTextFile(dir + "/timeline.json", ChromeTraceJson(timeline));

  json::Value manifest = json::Value::MakeObject();
  manifest.Set("reason", json::Value(reason));
  manifest.Set("world_ranks",
               json::Value(static_cast<std::int64_t>(ranks.size())));
  manifest.Set("rank_traces", std::move(rank_traces));
  manifest.Set("timeline", json::Value(std::string("timeline.json")));
  manifest.Set("dropped_events",
               json::Value(static_cast<std::int64_t>(timeline.dropped_events)));
  json::Value skew = json::Value::MakeObject();
  for (const RankClock& c : timeline.clocks) {
    skew.Set(std::to_string(c.rank), json::Value(c.skew_ns));
  }
  manifest.Set("clock_skew_ns", std::move(skew));
  json::Value snaps = json::Value::MakeArray();
  for (const auto& [step, metrics_json] : snapshots) {
    json::Value entry = json::Value::MakeObject();
    entry.Set("step", json::Value(step));
    json::Value metrics;
    std::string perr;
    if (json::Parse(metrics_json, &metrics, &perr)) {
      entry.Set("metrics", std::move(metrics));
    } else {
      entry.Set("metrics_raw", json::Value(metrics_json));
    }
    snaps.Append(std::move(entry));
  }
  manifest.Set("snapshots", std::move(snaps));
  io_ok &= WriteTextFile(dir + "/manifest.json", manifest.Dump(2) + "\n");

  if (!io_ok) return "";
  ZLOG_INFO << "flight recorder: post-mortem bundle (" << ranks.size()
            << " ranks, " << snapshots.size() << " snapshots) in " << dir;
  return dir;
}

bool ValidatePostmortemBundle(const std::string& dir, std::string* error) {
  std::ifstream f(dir + "/manifest.json", std::ios::binary);
  if (!f) {
    if (error != nullptr) *error = "cannot open " + dir + "/manifest.json";
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  json::Value manifest;
  std::string perr;
  if (!json::Parse(ss.str(), &manifest, &perr)) {
    if (error != nullptr) *error = "manifest parse failed: " + perr;
    return false;
  }
  const json::Value* reason = manifest.Find("reason");
  if (reason == nullptr || !reason->is_string()) {
    if (error != nullptr) *error = "manifest missing string reason";
    return false;
  }
  const json::Value* traces = manifest.Find("rank_traces");
  if (traces == nullptr || !traces->is_array()) {
    if (error != nullptr) *error = "manifest missing rank_traces array";
    return false;
  }
  for (const json::Value& t : traces->as_array()) {
    if (!t.is_string()) {
      if (error != nullptr) *error = "rank_traces entry is not a string";
      return false;
    }
    std::string terr;
    if (!ValidateChromeTraceFile(dir + "/" + t.as_string(), &terr)) {
      if (error != nullptr) *error = t.as_string() + ": " + terr;
      return false;
    }
  }
  const json::Value* timeline = manifest.Find("timeline");
  if (timeline != nullptr && timeline->is_string()) {
    std::string terr;
    if (!ValidateChromeTraceFile(dir + "/" + timeline->as_string(), &terr)) {
      if (error != nullptr) *error = timeline->as_string() + ": " + terr;
      return false;
    }
  }
  return true;
}

}  // namespace zero::obs
