// Scheduler-in-isolation coverage: plans and commits are driven directly
// with synthetic logits (no model), so these tests pin down admission
// order, per-tenant fairness, the eviction/readmission round-trip and
// starvation-freedom independent of the engine.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/env.hpp"
#include "serve/traffic_gen.hpp"

namespace zero::serve {
namespace {

constexpr std::int64_t kVocab = 16;

ServeRequest Req(std::uint64_t id, std::int32_t tenant, std::size_t prompt,
                 std::int32_t max_new) {
  ServeRequest r;
  r.id = id;
  r.tenant = tenant;
  r.prompt.assign(prompt, 1);
  r.max_new_tokens = max_new;
  return r;
}

struct Harness {
  KvBlockPool pool;
  SlotKvCache kv;
  AdmissionController admission;
  ContinuousBatchScheduler scheduler;

  Harness(SchedulerConfig sc, std::int64_t blocks, std::int64_t block_tokens)
      : pool(KvGeometry{1, 2, block_tokens}, blocks, nullptr, false),
        kv(&pool),
        admission([] {
          AdmissionConfig a;
          a.record_metrics = false;
          a.max_queue_requests = 1 << 20;
          return a;
        }()),
        scheduler(
            [&sc] {
              sc.record_metrics = false;
              return sc;
            }(),
            &kv, &admission) {}

  // Executes one step with synthetic logits (argmax -> token 0).
  StepPlan StepOnce(std::vector<RequestOutcome>& done, double now) {
    StepPlan plan = scheduler.PlanStep();
    if (!plan.empty()) {
      std::vector<float> logits(plan.groups() * kVocab, 0.0f);
      scheduler.CommitStep(plan, logits.data(), kVocab, now, done);
    }
    return plan;
  }

  std::vector<RequestOutcome> RunToCompletion(std::int64_t max_steps) {
    std::vector<RequestOutcome> done;
    std::int64_t steps = 0;
    while (!scheduler.Idle()) {
      StepOnce(done, static_cast<double>(steps));
      ++steps;
      EXPECT_LT(steps, max_steps) << "scheduler failed to drain";
      if (steps >= max_steps) break;
    }
    return done;
  }
};

SchedulerConfig Config(std::int64_t max_running, std::int64_t budget,
                       std::int64_t max_seq = 64) {
  SchedulerConfig c;
  c.max_running = max_running;
  c.max_step_tokens = budget;
  c.max_seq = max_seq;
  return c;
}

TEST(Scheduler, PacksPrefillAndDecodeIntoOneStep) {
  Harness h(Config(4, 32), 64, 4);
  ASSERT_EQ(h.admission.Offer(Req(0, 0, 5, 3), 0.0), RejectReason::kNone);

  std::vector<RequestOutcome> done;
  // Step 1: the whole 5-token prompt prefills in one group and samples.
  StepPlan p1 = h.StepOnce(done, 0.0);
  ASSERT_EQ(p1.groups(), 1u);
  EXPECT_EQ(p1.group_chunk[0], 5);
  EXPECT_TRUE(p1.group_samples[0]);
  EXPECT_EQ(p1.tokens.size(), 5u);
  EXPECT_EQ(p1.tokens[0].pos, 0);
  EXPECT_EQ(p1.tokens[4].pos, 4);

  // A second request arrives: its prefill packs into the same step as
  // the first request's decode token — continuous batching.
  ASSERT_EQ(h.admission.Offer(Req(1, 0, 4, 2), 0.0), RejectReason::kNone);
  StepPlan p2 = h.StepOnce(done, 1.0);
  ASSERT_EQ(p2.groups(), 2u);
  EXPECT_EQ(p2.group_request[0], 0u);  // older sequence planned first
  EXPECT_EQ(p2.group_chunk[0], 1);     // decode
  EXPECT_EQ(p2.group_request[1], 1u);
  EXPECT_EQ(p2.group_chunk[1], 4);     // prefill
  EXPECT_EQ(p2.tokens.size(), 5u);
  EXPECT_EQ(p2.tokens[0].pos, 5);  // request 0's first generated token

  std::vector<RequestOutcome> rest = h.RunToCompletion(100);
  done.insert(done.end(), rest.begin(), rest.end());
  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[0].completed);
  EXPECT_TRUE(done[1].completed);
  EXPECT_EQ(done[0].output.size(), 3u);
  EXPECT_EQ(done[1].output.size(), 2u);
}

TEST(Scheduler, TokenBudgetChunksLongPrefill) {
  Harness h(Config(4, 8), 64, 4);
  ASSERT_EQ(h.admission.Offer(Req(0, 0, 20, 1), 0.0), RejectReason::kNone);
  std::vector<RequestOutcome> done;
  StepPlan p1 = h.StepOnce(done, 0.0);
  ASSERT_EQ(p1.groups(), 1u);
  EXPECT_EQ(p1.group_chunk[0], 8);       // budget-bounded chunk
  EXPECT_FALSE(p1.group_samples[0]);     // mid-prompt: no sampling
  StepPlan p2 = h.StepOnce(done, 1.0);
  EXPECT_EQ(p2.group_chunk[0], 8);
  StepPlan p3 = h.StepOnce(done, 2.0);
  EXPECT_EQ(p3.group_chunk[0], 4);       // prompt tail
  EXPECT_TRUE(p3.group_samples[0]);      // samples at the stream end
  ASSERT_EQ(done.size(), 1u);            // max_new = 1: done at first token
  EXPECT_TRUE(done[0].completed);
}

TEST(Scheduler, RoundRobinFairnessUnderSkewedLoad) {
  Harness h(Config(2, 16), 64, 4);
  // Tenant 0 floods; tenant 1 sends two requests.
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_EQ(h.admission.Offer(Req(i, 0, 4, 2), 0.0), RejectReason::kNone);
  }
  ASSERT_EQ(h.admission.Offer(Req(100, 1, 4, 2), 0.0), RejectReason::kNone);
  ASSERT_EQ(h.admission.Offer(Req(101, 1, 4, 2), 0.0), RejectReason::kNone);

  std::vector<RequestOutcome> done = h.RunToCompletion(200);
  ASSERT_EQ(done.size(), 12u);
  auto finish_pos = [&](std::uint64_t id) {
    for (std::size_t i = 0; i < done.size(); ++i) {
      if (done[i].id == id) return i;
    }
    return done.size();
  };
  // The sparse tenant's requests finish inside the first third of the
  // flood, not after it.
  EXPECT_LT(finish_pos(100), 4u);
  EXPECT_LT(finish_pos(101), 5u);
}

TEST(Scheduler, EvictionReadmissionRoundTrip) {
  // Pool of 3 two-token blocks; both requests eventually need 3 blocks
  // (2 prompt + 4 generated = 6 tokens). When the older sequence's
  // growth exhausts the pool, the younger one is preempted, readmitted
  // after the older finishes, and still completes with full output.
  Harness h(Config(2, 32), 3, 2);
  ASSERT_EQ(h.admission.Offer(Req(0, 0, 2, 4), 0.0), RejectReason::kNone);
  ASSERT_EQ(h.admission.Offer(Req(1, 0, 2, 4), 0.0), RejectReason::kNone);

  std::vector<RequestOutcome> done = h.RunToCompletion(200);
  ASSERT_EQ(done.size(), 2u);
  auto by_id = [&](std::uint64_t id) -> const RequestOutcome& {
    return done[done[0].id == id ? 0 : 1];
  };
  EXPECT_TRUE(by_id(0).completed);
  EXPECT_TRUE(by_id(1).completed);
  EXPECT_EQ(by_id(0).output.size(), 4u);
  EXPECT_EQ(by_id(1).output.size(), 4u);
  EXPECT_EQ(by_id(0).evictions, 0);     // the older sequence never loses
  EXPECT_GE(by_id(1).evictions, 1);     // the younger one round-trips
  EXPECT_EQ(h.pool.used(), 0);          // every block returned
}

TEST(Scheduler, SeededSoakNoRequestStarves) {
  TrafficConfig tc;
  tc.qps = 4000.0;
  tc.duration_s = 0.05;
  tc.tenants = 3;
  tc.prompt_min = 2;
  tc.prompt_max = 10;
  tc.out_min = 1;
  tc.out_max = 6;
  tc.vocab = kVocab;
  tc.seed = EnvUint("ZERO_SERVE_SEED",
                    std::numeric_limits<std::uint64_t>::max())
                .value_or(99);
  const auto traffic = GenerateOpenLoopTraffic(tc);
  ASSERT_GT(traffic.size(), 100u);

  auto run = [&] {
    Harness h(Config(6, 24), 16, 4);  // tight pool: evictions do happen
    for (const auto& r : traffic) {
      EXPECT_EQ(h.admission.Offer(r, r.arrival_s), RejectReason::kNone);
    }
    return h.RunToCompletion(100000);
  };
  const auto a = run();
  ASSERT_EQ(a.size(), traffic.size());  // nobody starved or got dropped
  for (const auto& o : a) {
    EXPECT_TRUE(o.completed);
    EXPECT_FALSE(o.output.empty());
  }
  // Same seed, same decisions: the soak replays bit-identically.
  const auto b = run();
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].output, b[i].output);
    EXPECT_EQ(a[i].evictions, b[i].evictions);
  }
}

}  // namespace
}  // namespace zero::serve
