// Shared ZERO_BENCH_RELAX handling for the bench gate binaries.
//
// Every gate honors the same contract: a failed check prints FAIL and
// the binary exits 1, unless ZERO_BENCH_RELAX=1, in which case the
// failure is downgraded to a warning and the exit code stays 0 (for
// noisy or throttled machines). The variable is exactly 0 or 1; any
// other value exits 2 naming it. Two shapes cover all the benches:
//
//   * GateSet — accumulate named checks (`Require`/`Fail`), then
//     `return gates.ExitCode();`
//   * GateExit(ok) — tail call for benches that track one `ok` flag.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/env.hpp"
#include "common/error.hpp"

namespace zero::bench {

// True when ZERO_BENCH_RELAX=1: gate failures warn instead of fail.
[[nodiscard]] inline bool Relaxed() {
  try {
    return EnvFlag("ZERO_BENCH_RELAX").value_or(false);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

// Accumulates gate outcomes. Failures print immediately (FAIL, or
// "WARN (relaxed)" under ZERO_BENCH_RELAX=1); ExitCode() folds them into
// the process status with the standard relax downgrade.
class GateSet {
 public:
  GateSet() : relaxed_(Relaxed()) {}

  // Records one check; prints nothing when it passes.
  void Require(bool pass, const std::string& msg) {
    if (!pass) Fail(msg);
  }

  void Fail(const std::string& msg) {
    std::printf("%s: %s\n", relaxed_ ? "WARN (relaxed)" : "FAIL",
                msg.c_str());
    ++failures_;
  }

  [[nodiscard]] bool ok() const { return failures_ == 0; }
  [[nodiscard]] int failures() const { return failures_; }
  [[nodiscard]] bool relaxed() const { return relaxed_; }

  // 0 when every check passed or ZERO_BENCH_RELAX=1, else 1.
  [[nodiscard]] int ExitCode() const {
    return (failures_ == 0 || relaxed_) ? 0 : 1;
  }

 private:
  bool relaxed_;
  int failures_ = 0;
};

// Standard tail for benches that compute a single `ok` flag.
[[nodiscard]] inline int GateExit(bool ok) {
  if (!ok && Relaxed()) {
    std::printf("WARN: gate failed but ZERO_BENCH_RELAX=1\n");
    return 0;
  }
  return ok ? 0 : 1;
}

}  // namespace zero::bench
