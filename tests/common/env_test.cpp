// The one environment reader (common/env.hpp) and the training overlay
// built on it (core::ApplyEnv): unset and empty read as absent, valid
// values parse exactly, and anything else throws ConfigError naming the
// variable instead of silently becoming 0.
#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "core/engine_config.hpp"
#include "scoped_env.hpp"

namespace zero {
namespace {

using test::ScopedEnv;

constexpr const char* kVar = "ZERO_ENV_TEST_VAR";
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

// Runs `read` with kVar set to `value` and expects a ConfigError whose
// message names the variable and quotes the value.
template <typename Read>
void ExpectRejected(const char* value, Read read) {
  ScopedEnv env(kVar, value);
  try {
    (void)read();
    ADD_FAILURE() << kVar << "=\"" << value << "\" was accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kVar), std::string::npos) << what;
    EXPECT_NE(what.find(std::string("\"") + value + "\""), std::string::npos)
        << what;
  }
}

TEST(EnvTest, StringUnsetAndEmptyAreAbsent) {
  {
    ScopedEnv env(kVar, nullptr);
    EXPECT_EQ(EnvString(kVar), std::nullopt);
  }
  ScopedEnv env(kVar, "");
  EXPECT_EQ(EnvString(kVar), std::nullopt);
}

TEST(EnvTest, StringReturnsValueVerbatim) {
  ScopedEnv env(kVar, " a b ");
  EXPECT_EQ(EnvString(kVar), " a b ");
}

TEST(EnvTest, UintUnsetAndEmptyAreAbsent) {
  {
    ScopedEnv env(kVar, nullptr);
    EXPECT_EQ(EnvUint(kVar, 10), std::nullopt);
  }
  ScopedEnv env(kVar, "");
  EXPECT_EQ(EnvUint(kVar, 10), std::nullopt);
}

TEST(EnvTest, UintParsesWholeDecimalsUpToMax) {
  {
    ScopedEnv env(kVar, "0");
    EXPECT_EQ(EnvUint(kVar, 10), 0u);
  }
  {
    ScopedEnv env(kVar, "10");
    EXPECT_EQ(EnvUint(kVar, 10), 10u);
  }
  ScopedEnv env(kVar, "18446744073709551615");
  EXPECT_EQ(EnvUint(kVar, kU64Max), kU64Max);
}

TEST(EnvTest, UintRejectsMalformedAndOutOfRange) {
  const auto read = [] { return EnvUint(kVar, 10); };
  for (const char* bad : {"-1", "abc", "3abc", "1.5", " 1", "1 ", "+1",
                          "0x1", "11"}) {
    ExpectRejected(bad, read);
  }
  ExpectRejected("18446744073709551616", [] { return EnvUint(kVar, kU64Max); });
}

TEST(EnvTest, DoubleUnsetAndEmptyAreAbsent) {
  {
    ScopedEnv env(kVar, nullptr);
    EXPECT_EQ(EnvDouble(kVar, 0.0, 1.0), std::nullopt);
  }
  ScopedEnv env(kVar, "");
  EXPECT_EQ(EnvDouble(kVar, 0.0, 1.0), std::nullopt);
}

TEST(EnvTest, DoubleParsesFiniteValuesInRange) {
  {
    ScopedEnv env(kVar, "1.5e9");
    EXPECT_EQ(EnvDouble(kVar, 0.0, 1e10), 1.5e9);
  }
  {
    ScopedEnv env(kVar, "-0.25");
    EXPECT_EQ(EnvDouble(kVar, -1.0, 1.0), -0.25);
  }
  ScopedEnv env(kVar, "0");
  EXPECT_EQ(EnvDouble(kVar, 0.0, 1.0), 0.0);
}

TEST(EnvTest, DoubleRejectsMalformedNonFiniteAndOutOfRange) {
  const auto read = [] { return EnvDouble(kVar, 0.0, 1e300); };
  for (const char* bad : {"fast", "1e9x", "nan", "NaN", "inf", "-inf",
                          "1e400", "-1", "1e301", " 1"}) {
    ExpectRejected(bad, read);
  }
}

TEST(EnvTest, FlagAcceptsExactlyZeroAndOne) {
  {
    ScopedEnv env(kVar, nullptr);
    EXPECT_EQ(EnvFlag(kVar), std::nullopt);
  }
  {
    ScopedEnv env(kVar, "");
    EXPECT_EQ(EnvFlag(kVar), std::nullopt);
  }
  {
    ScopedEnv env(kVar, "0");
    EXPECT_EQ(EnvFlag(kVar), false);
  }
  ScopedEnv env(kVar, "1");
  EXPECT_EQ(EnvFlag(kVar), true);
}

TEST(EnvTest, FlagRejectsEverythingElse) {
  for (const char* bad : {"no", "yes", "true", "false", "2", "01", " 1"}) {
    ExpectRejected(bad, [] { return EnvFlag(kVar); });
  }
}

// The serving binaries' traffic seed: the default when unset, the value
// when numeric, and an error (not a silent fallback) otherwise.
TEST(EnvTest, ServeSeedParsesOrThrows) {
  const auto seed = [] {
    return EnvUint("ZERO_SERVE_SEED", kU64Max).value_or(5);
  };
  {
    ScopedEnv env("ZERO_SERVE_SEED", nullptr);
    EXPECT_EQ(seed(), 5u);
  }
  {
    ScopedEnv env("ZERO_SERVE_SEED", "1234");
    EXPECT_EQ(seed(), 1234u);
  }
  ScopedEnv env("ZERO_SERVE_SEED", "not-a-number");
  EXPECT_THROW((void)seed(), ConfigError);
}

// ---- core::ApplyEnv ----

constexpr const char* kTrainingKnobs[] = {
    "ZERO_PREFETCH",     "ZERO_QWZ",        "ZERO_HPZ",
    "ZERO_QGZ",          "ZERO_RANKS_PER_NODE",
    "ZERO_OFFLOAD",      "ZERO_OFFLOAD_BW", "ZERO_COMM_DEADLINE_MS",
    "ZERO_FAULT",        "ZERO_TRACE",      "ZERO_POSTMORTEM"};

// Unsets every training knob for the scope, whatever the shell exported.
class CleanTrainingEnv {
 public:
  CleanTrainingEnv() {
    for (const char* name : kTrainingKnobs) guards_.emplace_back(name, nullptr);
  }

 private:
  std::deque<ScopedEnv> guards_;
};

core::EngineConfig ExplicitConfig() {
  core::EngineConfig cfg;
  cfg.prefetch_lookahead = 3;
  cfg.qwz = true;
  cfg.hpz = true;
  cfg.qgz = true;
  cfg.ranks_per_node = 4;
  cfg.offload_tier = alloc::TierKind::kNvme;
  cfg.offload_bandwidth = 5e9;
  cfg.comm_deadline_ms = 250;
  cfg.fault_spec = "slow@0:step=1ms";
  cfg.telemetry.trace_path = "explicit.json";
  cfg.telemetry.postmortem_dir = "explicit_pm";
  return cfg;
}

TEST(ApplyEnvTest, UnsetKnobsLeaveExplicitFieldsAlone) {
  CleanTrainingEnv clean;
  core::EngineConfig cfg = ExplicitConfig();
  core::ApplyEnv(cfg);
  const core::EngineConfig want = ExplicitConfig();
  EXPECT_EQ(cfg.prefetch_lookahead, want.prefetch_lookahead);
  EXPECT_EQ(cfg.qwz, want.qwz);
  EXPECT_EQ(cfg.hpz, want.hpz);
  EXPECT_EQ(cfg.qgz, want.qgz);
  EXPECT_EQ(cfg.ranks_per_node, want.ranks_per_node);
  EXPECT_EQ(cfg.offload_tier, want.offload_tier);
  EXPECT_EQ(cfg.offload_bandwidth, want.offload_bandwidth);
  EXPECT_EQ(cfg.comm_deadline_ms, want.comm_deadline_ms);
  EXPECT_EQ(cfg.fault_spec, want.fault_spec);
  EXPECT_EQ(cfg.telemetry.enabled, want.telemetry.enabled);
  EXPECT_EQ(cfg.telemetry.trace_path, want.telemetry.trace_path);
  EXPECT_EQ(cfg.telemetry.postmortem_dir, want.telemetry.postmortem_dir);
}

TEST(ApplyEnvTest, SetKnobsOverwriteExplicitFields) {
  CleanTrainingEnv clean;
  // Every value differs from ExplicitConfig(), including the ones that
  // switch a feature off: an explicit field is no sentinel.
  ScopedEnv prefetch("ZERO_PREFETCH", "0");
  ScopedEnv qwz("ZERO_QWZ", "0");
  ScopedEnv hpz("ZERO_HPZ", "0");
  ScopedEnv qgz("ZERO_QGZ", "0");
  ScopedEnv rpn("ZERO_RANKS_PER_NODE", "1");
  ScopedEnv offload("ZERO_OFFLOAD", "device");
  ScopedEnv bw("ZERO_OFFLOAD_BW", "0");
  ScopedEnv deadline("ZERO_COMM_DEADLINE_MS", "0");
  ScopedEnv fault("ZERO_FAULT", "crash@1:step#2");
  ScopedEnv trace("ZERO_TRACE", "env.json");
  ScopedEnv postmortem("ZERO_POSTMORTEM", "env_pm");
  core::EngineConfig cfg = ExplicitConfig();
  core::ApplyEnv(cfg);
  EXPECT_EQ(cfg.prefetch_lookahead, 0);
  EXPECT_FALSE(cfg.qwz);
  EXPECT_FALSE(cfg.hpz);
  EXPECT_FALSE(cfg.qgz);
  EXPECT_EQ(cfg.ranks_per_node, 1);
  EXPECT_EQ(cfg.offload_tier, alloc::TierKind::kDevice);
  EXPECT_EQ(cfg.offload_bandwidth, 0.0);
  EXPECT_EQ(cfg.comm_deadline_ms, 0u);
  EXPECT_EQ(cfg.fault_spec, "crash@1:step#2");
  EXPECT_TRUE(cfg.telemetry.enabled);
  EXPECT_EQ(cfg.telemetry.trace_path, "env.json");
  EXPECT_EQ(cfg.telemetry.postmortem_dir, "env_pm");
}

TEST(ApplyEnvTest, PostmortemArmsWithoutEnablingTelemetry) {
  CleanTrainingEnv clean;
  ScopedEnv postmortem("ZERO_POSTMORTEM", "pm");
  core::EngineConfig cfg;
  core::ApplyEnv(cfg);
  EXPECT_FALSE(cfg.telemetry.enabled);
  EXPECT_EQ(cfg.telemetry.postmortem_dir, "pm");
}

TEST(ApplyEnvTest, OffloadAcceptsExactlyTheTierNames) {
  CleanTrainingEnv clean;
  for (alloc::TierKind kind : {alloc::TierKind::kDevice,
                               alloc::TierKind::kHost,
                               alloc::TierKind::kNvme}) {
    ScopedEnv env("ZERO_OFFLOAD", alloc::TierKindName(kind));
    core::EngineConfig cfg;
    core::ApplyEnv(cfg);
    EXPECT_EQ(cfg.offload_tier, kind);
  }
  for (const char* bad : {"1", "0", "Host", "gpu"}) {
    ScopedEnv env("ZERO_OFFLOAD", bad);
    core::EngineConfig cfg;
    EXPECT_THROW(core::ApplyEnv(cfg), ConfigError) << bad;
  }
}

// Lenient parsing would turn -1 into a wrapped negative deadline that
// declares healthy ranks dead, abc and fast into 0, and "no" into qwZ on.
TEST(ApplyEnvTest, MalformedKnobsThrowNamingTheVariable) {
  const struct {
    const char* name;
    const char* value;
  } cases[] = {{"ZERO_COMM_DEADLINE_MS", "-1"},
               {"ZERO_PREFETCH", "abc"},
               {"ZERO_OFFLOAD_BW", "fast"},
               {"ZERO_QWZ", "no"}};
  for (const auto& c : cases) {
    CleanTrainingEnv clean;
    ScopedEnv env(c.name, c.value);
    core::EngineConfig cfg;
    try {
      core::ApplyEnv(cfg);
      ADD_FAILURE() << c.name << "=" << c.value << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(c.name), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace zero
