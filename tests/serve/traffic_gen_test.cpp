#include "serve/traffic_gen.hpp"

#include <gtest/gtest.h>

namespace zero::serve {
namespace {

TrafficConfig BaseConfig() {
  TrafficConfig c;
  c.qps = 2000.0;
  c.duration_s = 0.5;
  c.tenants = 3;
  c.prompt_min = 2;
  c.prompt_max = 6;
  c.out_min = 1;
  c.out_max = 4;
  c.vocab = 48;
  c.seed = 7;
  return c;
}

TEST(TrafficGen, SeededRunsReplayBitIdentically) {
  const TrafficConfig c = BaseConfig();
  const auto a = GenerateOpenLoopTraffic(c);
  const auto b = GenerateOpenLoopTraffic(c);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 500u);  // thousands-of-QPS scale
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);  // bitwise: same doubles
    EXPECT_EQ(a[i].prompt, b[i].prompt);
    EXPECT_EQ(a[i].max_new_tokens, b[i].max_new_tokens);
  }
}

TEST(TrafficGen, DifferentSeedsDiffer) {
  TrafficConfig c = BaseConfig();
  const auto a = GenerateOpenLoopTraffic(c);
  c.seed = 8;
  const auto b = GenerateOpenLoopTraffic(c);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a[0].arrival_s, b[0].arrival_s);
}

TEST(TrafficGen, ArrivalsSortedAndBounded) {
  const TrafficConfig c = BaseConfig();
  const auto reqs = GenerateOpenLoopTraffic(c);
  double last = 0.0;
  for (const auto& r : reqs) {
    EXPECT_GE(r.arrival_s, last);
    EXPECT_LT(r.arrival_s, c.duration_s);
    last = r.arrival_s;
    EXPECT_GE(static_cast<std::int32_t>(r.prompt.size()), c.prompt_min);
    EXPECT_LE(static_cast<std::int32_t>(r.prompt.size()), c.prompt_max);
    EXPECT_GE(r.max_new_tokens, c.out_min);
    EXPECT_LE(r.max_new_tokens, c.out_max);
    EXPECT_GE(r.tenant, 0);
    EXPECT_LT(r.tenant, c.tenants);
    for (auto t : r.prompt) {
      EXPECT_GE(t, 0);
      EXPECT_LT(t, static_cast<std::int32_t>(c.vocab));
    }
  }
}

TEST(TrafficGen, TenantWeightsSkewTheMix) {
  TrafficConfig c = BaseConfig();
  c.tenants = 2;
  c.tenant_weights = {9.0, 1.0};
  const auto reqs = GenerateOpenLoopTraffic(c);
  std::size_t tenant0 = 0;
  for (const auto& r : reqs) tenant0 += r.tenant == 0 ? 1 : 0;
  // ~90% of a 1000-request draw; loose bound avoids seed sensitivity.
  EXPECT_GT(tenant0 * 10, reqs.size() * 8);
}

TEST(TrafficGen, PrefixModePrependsWithoutDisturbingTheTrace) {
  TrafficConfig c = BaseConfig();
  const auto plain = GenerateOpenLoopTraffic(c);
  c.prefix_len = 8;
  const auto shared = GenerateOpenLoopTraffic(c);

  // Same arrivals, tenants, output budgets and random tails: the prefix
  // draws come from their own streams, so everything else replays
  // bit-identically.
  ASSERT_EQ(shared.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(shared[i].arrival_s, plain[i].arrival_s);
    EXPECT_EQ(shared[i].tenant, plain[i].tenant);
    EXPECT_EQ(shared[i].max_new_tokens, plain[i].max_new_tokens);
    ASSERT_EQ(shared[i].prompt.size(), plain[i].prompt.size() + 8u);
    for (std::size_t k = 0; k < plain[i].prompt.size(); ++k) {
      EXPECT_EQ(shared[i].prompt[k + 8], plain[i].prompt[k]);
    }
  }
}

TEST(TrafficGen, PrefixIsSharedPerTenantAndDiffersAcrossTenants) {
  TrafficConfig c = BaseConfig();
  c.prefix_len = 6;
  const auto reqs = GenerateOpenLoopTraffic(c);

  std::vector<std::vector<std::int32_t>> seen(
      static_cast<std::size_t>(c.tenants));
  for (const auto& r : reqs) {
    ASSERT_GE(r.prompt.size(), 6u);
    const std::vector<std::int32_t> pre(r.prompt.begin(),
                                        r.prompt.begin() + 6);
    auto& want = seen[static_cast<std::size_t>(r.tenant)];
    if (want.empty()) {
      want = pre;
    } else {
      EXPECT_EQ(pre, want) << "tenant " << r.tenant
                           << " prefix drifted at request " << r.id;
    }
  }
  // Distinct tenants draw from distinct streams; identical 6-token
  // prefixes would be a one-in-48^6 accident.
  for (std::int32_t t = 1; t < c.tenants; ++t) {
    if (!seen[0].empty() && !seen[static_cast<std::size_t>(t)].empty()) {
      EXPECT_NE(seen[0], seen[static_cast<std::size_t>(t)]);
    }
  }
}

}  // namespace
}  // namespace zero::serve
