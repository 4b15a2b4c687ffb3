// Seeded open-loop synthetic traffic: exponential interarrival times at
// a configured QPS, multi-tenant mix, uniform prompt/output lengths.
// Open loop means arrivals never wait on the server — exactly the
// pressure model that exposes admission-control behaviour at
// thousands-of-QPS offered load.
//
// Determinism follows the `src/fault` splitmix64 discipline: one root
// seed, one Split stream for the arrival process, one Split stream per
// request for its content, so the same seed replays the same trace
// bit-identically on every rank and every run. The root seed is
// TrafficConfig::seed; the serving binaries take it from ZERO_SERVE_SEED
// when set (through common/env.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "serve/request.hpp"

namespace zero::serve {

struct TrafficConfig {
  double qps = 1000.0;       // offered arrival rate
  double duration_s = 1.0;   // generation horizon (virtual seconds)
  std::int32_t tenants = 2;
  std::vector<double> tenant_weights;  // empty = uniform
  std::int32_t prompt_min = 4;
  std::int32_t prompt_max = 12;
  std::int32_t out_min = 2;
  std::int32_t out_max = 8;
  std::int64_t vocab = 64;
  std::uint64_t seed = 42;
  // Shared-prefix mode: each tenant gets `prefix_len` common
  // system-prompt tokens (seeded per tenant) prepended ahead of every
  // request's random tail — realistic hit traffic for the KV prefix
  // cache. 0 (default) reproduces the previous traces bit-identically;
  // the tail draws consume the same stream positions either way.
  std::int32_t prefix_len = 0;
};

// All arrivals within [0, duration_s), sorted by arrival time, ids 0..n.
[[nodiscard]] std::vector<ServeRequest> GenerateOpenLoopTraffic(
    const TrafficConfig& config);

}  // namespace zero::serve
