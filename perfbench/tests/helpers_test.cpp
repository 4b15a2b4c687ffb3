// Tests of the benchmark's own helpers: the tail-percentile rule, the
// layer accounting on a tiny model, and the result line's JSON.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "report.hpp"
#include "serve_workload.hpp"
#include "stats.hpp"
#include "train_workload.hpp"

namespace perfbench {
namespace {

namespace json = zero::obs::json;

std::vector<double> OneToN(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  for (int n : {11, 20, 21, 50, 99, 100, 101, 150, 199, 200, 240, 1000}) {
    const Tail t = TailPercentile(OneToN(n));
    if (n >= 20) {
      EXPECT_GE(t.beyond, 10u) << "n=" << n;
    }
    EXPECT_LE(t.percent, 95);
    EXPECT_GE(t.percent, 50);
    // Values are 1..n, so the reported value is its own nearest rank.
    EXPECT_EQ(t.beyond, static_cast<std::size_t>(n) -
                            static_cast<std::size_t>(t.value))
        << "n=" << n;
  }
}

TEST(TailPercentile, ReachesP95AtTwoHundredSamples) {
  const Tail t = TailPercentile(OneToN(200));
  EXPECT_EQ(t.percent, 95);
  EXPECT_EQ(t.value, 190.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(TailPercentile(OneToN(240)).percent, 95);
}

TEST(TailPercentile, FallsBackBelowTwoHundred) {
  const Tail t = TailPercentile(OneToN(100));
  EXPECT_EQ(t.percent, 90);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  const Tail m = TailPercentile(OneToN(8));
  EXPECT_EQ(m.percent, 50);
  EXPECT_EQ(m.value, 4.0);
}

TEST(Median, EvenAndOdd) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

// Stage 3 at dp=2 with prefetch on a hidden=32 model: every piece of the
// layer accounting is exercised, and the traced pass must reproduce the
// untraced losses bit for bit.
TEST(LayerAccounting, ReconcilesOnTinyConfig) {
  TrainSpec spec = TrainZero3Dp2Spec();
  spec.model.vocab = 64;
  spec.model.seq = 16;
  spec.model.hidden = 32;
  spec.model.layers = 2;
  spec.model.heads = 2;
  spec.batch_per_rank = 2;
  spec.device_capacity_bytes = 32ull << 20;

  PassPlan plan;
  plan.seed = 7;
  plan.fixed_steps = 6;
  const TrainPass base = RunTrainPass(spec, plan);
  ASSERT_FALSE(base.failed) << base.failure;
  plan.traced = true;
  const TrainPass traced = RunTrainPass(spec, plan);
  ASSERT_FALSE(traced.failed) << traced.failure;
  ASSERT_EQ(traced.measured_steps(), 6);
  ASSERT_EQ(traced.model_steps.size(), 6u);
  EXPECT_EQ(traced.trace_dropped, 0u);
  for (std::size_t r = 0; r < base.losses.size(); ++r) {
    ASSERT_EQ(base.losses[r].size(), traced.losses[r].size());
    EXPECT_EQ(0, std::memcmp(base.losses[r].data(), traced.losses[r].data(),
                             base.losses[r].size() * sizeof(float)));
  }

  const LayerAccounting a = AccountLayers(traced);
  EXPECT_GT(a.acquire_calls, 0.0);
  EXPECT_GT(a.emit_calls, 0.0);
  EXPECT_GT(a.reduce_grads_ms + a.apply_update_ms, 0.0);
  // model.self_ms + nested calls = model.step_ms.
  EXPECT_NEAR(a.model_self_ms + a.acquire_ms + a.release_ms + a.emit_ms,
              a.model_step_ms, kIdentityTol * a.model_step_ms);
  // model.step_ms + core.post_backward_ms = core.train_step_ms.
  EXPECT_NEAR(a.model_step_ms + a.post_backward_ms, a.train_step_ms,
              kIdentityTol * a.train_step_ms);
  const Reconciliation rec = Reconcile(a);
  EXPECT_TRUE(rec.ok) << rec.detail;
  EXPECT_LE(rec.fwd_bwd_gap, kSpanGapTol) << rec.detail;
  EXPECT_LE(rec.post_backward_cover, kCoverTol) << rec.detail;
}

TEST(Reconcile, FlagsSpansThatDoNotNest) {
  LayerAccounting a;
  a.model_step_ms = 10.0;
  a.model_self_ms = 8.0;
  a.acquire_ms = 2.0;
  a.train_step_ms = 12.0;
  a.post_backward_ms = 2.0;
  a.fwd_bwd_span_ms = 10.1;
  a.reduce_grads_ms = 1.0;
  a.apply_update_ms = 0.9;
  EXPECT_TRUE(Reconcile(a).ok);
  a.apply_update_ms = 1.5;  // 2.5 ms of spans inside a 2 ms window
  EXPECT_FALSE(Reconcile(a).ok);
  a.apply_update_ms = 0.9;
  a.fwd_bwd_span_ms = 11.0;  // 10 % off the decorator's clock
  EXPECT_FALSE(Reconcile(a).ok);
}

TEST(ResultLine, ParsesUnderStrictValidator) {
  RunOutcome out;
  out.attempted = 240;
  out.failed = 0;
  out.metrics = EndToEndMetrics();
  SetMetric(out.metrics, "setup_s", 0.36123456789);
  SetMetric(out.metrics, "tok_s", 1873.25);
  std::string error;
  json::Value v;
  ASSERT_TRUE(json::Parse(ResultLine(out), &v, &error)) << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.as_object().size(), 4u);
  EXPECT_TRUE(v.Find("correct")->as_bool());
  EXPECT_EQ(v.Find("attempted")->as_number(), 240.0);
  EXPECT_EQ(v.Find("failed")->as_number(), 0.0);
  const json::Value* metrics = v.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->as_object().size(), EndToEndMetrics().size());
  const json::Value* setup = metrics->Find("setup_s");
  ASSERT_NE(setup, nullptr);
  EXPECT_EQ(setup->Find("value")->as_number(), 0.36123456789);
  EXPECT_EQ(setup->Find("unit")->as_string(), "s");

  out.metrics = PerLayerMetrics();
  out.Fail("an output check");
  ASSERT_TRUE(json::Parse(ResultLine(out), &v, &error)) << error;
  EXPECT_FALSE(v.Find("correct")->as_bool());
  EXPECT_EQ(v.Find("metrics")->as_object().size(), PerLayerMetrics().size());
}

TEST(SetMetric, RejectsUnknownNames) {
  std::vector<Metric> m = EndToEndMetrics();
  EXPECT_THROW(SetMetric(m, "no_such_metric", 1.0), std::invalid_argument);
}

TEST(ZeroEnvVars, FindsOnlyZeroKnobs) {
  char a[] = "ZERO_PREFETCH=2";
  char b[] = "PATH=/bin";
  char c[] = "ZERO_TRACE=";
  char d[] = "XZERO_X=1";
  char* env[] = {a, b, c, d, nullptr};
  const std::vector<std::string> names = ZeroEnvVars(env);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "ZERO_PREFETCH");
  EXPECT_EQ(names[1], "ZERO_TRACE");
}

TEST(Traffic, SeedDeterminesRequests) {
  const ServeSpec spec = ServeFp16Spec();
  const auto a = MakeTraffic(spec, 11, 20.0);
  const auto b = MakeTraffic(spec, 11, 20.0);
  const auto c = MakeTraffic(spec, 12, 20.0);
  ASSERT_EQ(a.size(), static_cast<std::size_t>(
                          std::llround(spec.rate_rps * 20.0)));
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prompt, b[i].prompt);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    differs = differs || a[i].prompt != c[i].prompt;
    const auto len = static_cast<std::int32_t>(a[i].prompt.size());
    EXPECT_GE(len, spec.prefix_len + spec.tail_min);
    EXPECT_LE(len, spec.prefix_len + spec.tail_max);
    EXPECT_GE(a[i].max_new_tokens, spec.out_min);
    EXPECT_LE(a[i].max_new_tokens, spec.out_max);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
    }
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(MakeTraffic(spec, 11, 1.0).size(),
            static_cast<std::size_t>(spec.min_requests));
}

}  // namespace
}  // namespace perfbench
