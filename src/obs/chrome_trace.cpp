#include "obs/chrome_trace.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.hpp"

namespace zero::obs {

namespace {

void AppendMicros(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

int PidFor(int rank) { return rank >= 0 ? rank + 1 : 0; }

bool EventError(std::size_t index, const std::string& what,
                std::string* error) {
  if (error != nullptr) {
    *error = "traceEvents[" + std::to_string(index) + "]: " + what;
  }
  return false;
}

}  // namespace

std::string ChromeTraceJson(const Timeline& timeline) {
  // Hand-built output: event volume makes the generic json::Value dump
  // needlessly slow, and the format is fixed anyway.
  std::string out;
  out.reserve(timeline.spans.size() * 96 + 2048);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":";
  out += std::to_string(timeline.dropped_events);
  // Per-lane drop counts (nonzero lanes only): a truncated ring must be
  // visible in the artifact, not silently absorbed into the total.
  out += ",\"droppedByLane\":{";
  bool first = true;
  for (const auto& [tid, dropped] : timeline.dropped_by_tid) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += std::to_string(tid);
    out += "\":";
    out += std::to_string(dropped);
  }
  out += "},\"clockSkewNs\":{";
  first = true;
  for (const RankClock& c : timeline.clocks) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += std::to_string(c.rank);
    out += "\":";
    out += std::to_string(c.skew_ns);
  }
  out += "}},\"traceEvents\":[";
  first = true;
  auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };
  // Process metadata: one pid per rank that actually recorded. Lane
  // metadata: home pid = the last rank tag seen on the lane.
  std::set<int> pids;
  std::map<int, int> lane_pid;
  for (const TimelineSpan& s : timeline.spans) {
    pids.insert(PidFor(s.rank));
    lane_pid[s.tid] = PidFor(s.rank);
  }
  for (int pid : pids) {
    comma();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    out += pid == 0 ? "untagged" : "rank " + std::to_string(pid - 1);
    out += "\"}}";
  }
  for (const auto& [tid, name] : timeline.lane_names) {
    auto it = lane_pid.find(tid);
    if (it == lane_pid.end()) continue;
    comma();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(it->second);
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"args\":{\"name\":\"";
    out += json::Escape(name);
    out += "\"}}";
  }
  for (const TimelineSpan& s : timeline.spans) {
    comma();
    out += "{\"name\":\"";
    out += json::Escape(s.name);
    out += "\",\"cat\":\"zero\",\"ph\":\"X\",\"ts\":";
    AppendMicros(out, s.start_ns);
    out += ",\"dur\":";
    AppendMicros(out, s.dur_ns);
    out += ",\"pid\":";
    out += std::to_string(PidFor(s.rank));
    out += ",\"tid\":";
    out += std::to_string(s.tid);
    out += '}';
  }
  out += "]}";
  return out;
}

bool ValidateChromeTrace(const std::string& text, std::string* error) {
  json::Value root;
  std::string perr;
  if (!json::Parse(text, &root, &perr)) {
    if (error != nullptr) *error = "JSON parse failed: " + perr;
    return false;
  }
  if (!root.is_object()) {
    if (error != nullptr) *error = "top level is not an object";
    return false;
  }
  const json::Value* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    if (error != nullptr) *error = "missing traceEvents array";
    return false;
  }
  double last_ts = -1.0;
  for (std::size_t i = 0; i < events->as_array().size(); ++i) {
    const json::Value& ev = events->as_array()[i];
    if (!ev.is_object()) return EventError(i, "not an object", error);
    const json::Value* name = ev.Find("name");
    if (name == nullptr || !name->is_string() || name->as_string().empty()) {
      return EventError(i, "missing string name", error);
    }
    const json::Value* ph = ev.Find("ph");
    if (ph == nullptr || !ph->is_string()) {
      return EventError(i, "missing string ph", error);
    }
    for (const char* key : {"pid", "tid"}) {
      const json::Value* v = ev.Find(key);
      if (v == nullptr || !v->is_number()) {
        return EventError(i, std::string("missing numeric ") + key, error);
      }
    }
    const std::string& phase = ph->as_string();
    if (phase == "M") continue;  // metadata carries no timestamp
    if (phase != "X") {
      return EventError(i, "unexpected phase \"" + phase + "\"", error);
    }
    const json::Value* ts = ev.Find("ts");
    const json::Value* dur = ev.Find("dur");
    if (ts == nullptr || !ts->is_number() || ts->as_number() < 0) {
      return EventError(i, "X event needs numeric ts >= 0", error);
    }
    if (dur == nullptr || !dur->is_number() || dur->as_number() < 0) {
      return EventError(i, "X event needs numeric dur >= 0", error);
    }
    if (ts->as_number() < last_ts) {
      return EventError(i, "timestamps not monotonically ordered", error);
    }
    last_ts = ts->as_number();
  }
  return true;
}

bool ValidateChromeTraceFile(const std::string& path, std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return ValidateChromeTrace(ss.str(), error);
}

}  // namespace zero::obs
