#include "report.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"

namespace perfbench {

namespace json = zero::obs::json;

std::vector<Metric> EndToEndMetrics() {
  return {
      {"setup_s", 0.0, "s"},
      {"tok_s", 0.0, "tok/s"},
      {"gflops_per_rank", 0.0, "GFLOP/s"},
      {"peak_device_mb", 0.0, "MB"},
      {"p50_ms", 0.0, "ms"},
  };
}

std::vector<Metric> PerLayerMetrics() {
  return {
      {"model.step_ms", 0.0, "ms"},
      {"model.self_ms", 0.0, "ms"},
      {"model.gflops", 0.0, "GFLOP/s"},
      {"stages.acquire_ms", 0.0, "ms"},
      {"stages.acquire_calls", 0.0, "count"},
      {"stages.release_ms", 0.0, "ms"},
      {"stages.emit_ms", 0.0, "ms"},
      {"stages.emit_calls", 0.0, "count"},
      {"stages.prefetch_hit_ratio", 0.0, "ratio"},
      {"core.train_step_ms", 0.0, "ms"},
      {"core.post_backward_ms", 0.0, "ms"},
      {"core.reduce_grads_ms", 0.0, "ms"},
      {"core.apply_update_ms", 0.0, "ms"},
      {"optim.adam_ms", 0.0, "ms"},
      {"comm.bytes_per_step", 0.0, "B"},
      {"comm.collectives_per_step", 0.0, "count"},
      {"comm.messages_per_step", 0.0, "count"},
      {"comm.overlap_frac", 0.0, "ratio"},
      {"alloc.peak_cached_mb", 0.0, "MB"},
      {"alloc.peak_live_mb", 0.0, "MB"},
      {"alloc.cache_hit_ratio", 0.0, "ratio"},
      {"serve.plan_ms", 0.0, "ms"},
      {"serve.commit_ms", 0.0, "ms"},
      {"serve.decode_step_ms", 0.0, "ms"},
      {"serve.mixed_step_ms", 0.0, "ms"},
      {"serve.tokens_per_step", 0.0, "count"},
      {"serve.busy_frac", 0.0, "ratio"},
      {"serve.queue_wait_ms_p50", 0.0, "ms"},
      {"serve.gen_late_ms_max", 0.0, "ms"},
      {"serve.kv_blocks_peak", 0.0, "count"},
      {"serve.prefix_hit_ratio", 0.0, "ratio"},
      {"serve.evictions", 0.0, "count"},
      {"trace.overhead_frac", 0.0, "ratio"},
  };
}

void SetMetric(std::vector<Metric>& metrics, const std::string& name,
               double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::invalid_argument("unknown metric " + name);
}

std::string ResultLine(const RunOutcome& outcome) {
  json::Value metrics = json::Value::MakeObject();
  for (const Metric& m : outcome.metrics) {
    json::Value entry = json::Value::MakeObject();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    metrics.Set(m.name, std::move(entry));
  }
  json::Value root = json::Value::MakeObject();
  root.Set("correct", outcome.correct);
  root.Set("attempted", outcome.attempted);
  root.Set("failed", outcome.failed);
  root.Set("metrics", std::move(metrics));
  return root.Dump();
}

std::string MetricTable(const std::string& title,
                        const std::vector<Metric>& metrics) {
  std::string out = "# " + title + "\n";
  char buf[256];
  for (const Metric& m : metrics) {
    std::snprintf(buf, sizeof(buf), "#   %-28s %14.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
  }
  return out;
}

std::vector<std::string> ZeroEnvVars(char** envp) {
  std::vector<std::string> names;
  for (char** e = envp; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "ZERO_", 5) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e)
                                         : std::strlen(*e));
  }
  return names;
}

std::string BuildInfo() {
  std::string compiler;
#if defined(__clang__)
  compiler = "clang-" __clang_version__;
#elif defined(__GNUC__)
  compiler = "gcc-" __VERSION__;
#else
  compiler = "unknown";
#endif
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " compiler=" + compiler + " build=" PERFBENCH_BUILD_TYPE;
}

}  // namespace perfbench
