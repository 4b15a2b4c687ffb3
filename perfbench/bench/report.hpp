// Result reporting shared by every workload: named metrics with units,
// the final one-line JSON result, and the run's environment record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run produced. `metrics` holds the end-to-end set on
// an untraced run and the per-layer set on a traced run; `extra` holds
// figures that are printed for people but are not part of the result
// line (metrics that exist for only one kind of workload, such as TTFT
// or the loss, reconciliation residuals, sample counts).
struct RunOutcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::vector<std::string> failures;  // output checks that did not hold

  void Fail(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
  void Check(bool ok, std::string why) {
    if (!ok) Fail(std::move(why));
  }
};

// Every end-to-end metric (untraced runs) and every per-layer metric
// (traced runs), in BENCHMARK.json order, valued 0. Each workload sets
// the figures its layers produce; a layer a workload does not exercise
// keeps 0.
[[nodiscard]] std::vector<Metric> EndToEndMetrics();
[[nodiscard]] std::vector<Metric> PerLayerMetrics();
// Sets metric `name` in `metrics`; throws if the name is not listed.
void SetMetric(std::vector<Metric>& metrics, const std::string& name,
               double value);

// The final stdout line: {"correct", "attempted", "failed", "metrics":
// {name: {"value", "unit"}}}, serialized through obs/json.
[[nodiscard]] std::string ResultLine(const RunOutcome& outcome);

// Human-readable "# name value unit" lines for `metrics`.
[[nodiscard]] std::string MetricTable(const std::string& title,
                                      const std::vector<Metric>& metrics);

// Names of ZERO_* variables present in `envp` (a null-terminated
// environment block such as `environ`).
[[nodiscard]] std::vector<std::string> ZeroEnvVars(char** envp);

// "nproc=<n> compiler=<id> build=<type>".
[[nodiscard]] std::string BuildInfo();

}  // namespace perfbench
