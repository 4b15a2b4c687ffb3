// Repository benchmark: ZeRO training throughput and memory at h=256,
// wall-clock serving latency, and per-layer timing from public calls.
//
// Usage:
//   perfbench --workload <train_dp1|train_zero3_dp2|serve_fp16>
//             --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 runs an
// untraced pass and a traced pass over the same inputs and reports the
// per-layer metrics, the reconciliation of the layer accounting and the
// tracing overhead. Human-readable lines start with '#'; the last line
// of stdout is the JSON result. The exit code is nonzero when an output
// check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "serve_workload.hpp"
#include "train_workload.hpp"

extern char** environ;

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train_dp1|train_zero3_dp2|serve_fp16> --seed <n> --seconds "
               "<s> --trace <0|1> [--scratch <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string scratch = ".";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + key).c_str());
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      seconds = std::strtod(val.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(seconds > 0.0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return Usage("--trace must be 0 or 1");
      trace = val == "1" ? 1 : 0;
    } else if (key == "--scratch") {
      scratch = val;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (workload.empty() || !have_seed || seconds <= 0.0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  // ZERO_* knobs (ZERO_INTRAOP_WORKERS, ZERO_PREFETCH, ZERO_TRACE, ...)
  // silently change what is measured.
  const std::vector<std::string> knobs = perfbench::ZeroEnvVars(environ);
  if (!knobs.empty()) {
    std::string names;
    for (const std::string& k : knobs) names += " " + k;
    std::fprintf(stderr,
                 "perfbench: refusing to run with ZERO_* variables set:%s\n",
                 names.c_str());
    return 2;
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d %s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace, perfbench::BuildInfo().c_str());
  std::fflush(stdout);

  perfbench::RunOutcome out;
  try {
    if (workload == "train_dp1") {
      out = perfbench::RunTrainWorkload(perfbench::TrainDp1Spec(), seed,
                                        seconds, trace == 1);
    } else if (workload == "train_zero3_dp2") {
      out = perfbench::RunTrainWorkload(perfbench::TrainZero3Dp2Spec(), seed,
                                        seconds, trace == 1);
    } else if (workload == "serve_fp16") {
      out = perfbench::RunServeWorkload(perfbench::ServeFp16Spec(), seed,
                                        seconds, trace == 1, scratch);
    } else {
      return Usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::fputs(perfbench::MetricTable(trace == 1 ? "per-layer metrics"
                                               : "end-to-end metrics",
                                    out.metrics)
                 .c_str(),
             stdout);
  std::fputs(perfbench::MetricTable("details", out.extra).c_str(), stdout);
  for (const std::string& f : out.failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", perfbench::ResultLine(out).c_str());
  return out.correct ? 0 : 1;
}
