#include "serve/traffic_gen.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace zero::serve {

namespace {
// Stream ids under the root seed. Request content streams start at
// kRequestStreamBase + request index, so a request's tokens do not
// depend on how many arrival samples preceded it.
constexpr std::uint64_t kArrivalStream = 1;
constexpr std::uint64_t kRequestStreamBase = 1000;
// Tenant system-prompt streams sit between the arrival stream and the
// per-request streams, keyed by tenant id.
constexpr std::uint64_t kTenantPrefixStreamBase = 500;
}  // namespace

std::vector<ServeRequest> GenerateOpenLoopTraffic(
    const TrafficConfig& config) {
  ZERO_CHECK(config.qps > 0.0 && config.duration_s > 0.0,
             "traffic needs positive qps and duration");
  ZERO_CHECK(config.tenants > 0, "traffic needs at least one tenant");
  ZERO_CHECK(config.prompt_min > 0 && config.prompt_max >= config.prompt_min,
             "bad prompt length range");
  ZERO_CHECK(config.out_min > 0 && config.out_max >= config.out_min,
             "bad output length range");
  ZERO_CHECK(config.tenant_weights.empty() ||
                 config.tenant_weights.size() ==
                     static_cast<std::size_t>(config.tenants),
             "tenant_weights must match tenant count");

  double weight_total = 0.0;
  for (double w : config.tenant_weights) weight_total += w;

  const Rng root(config.seed);
  Rng arrivals = root.Split(kArrivalStream);

  // Per-tenant shared system-prompt prefixes (empty when disabled).
  std::vector<std::vector<std::int32_t>> prefixes(
      static_cast<std::size_t>(config.tenants));
  if (config.prefix_len > 0) {
    for (std::int32_t ten = 0; ten < config.tenants; ++ten) {
      Rng p = root.Split(kTenantPrefixStreamBase +
                         static_cast<std::uint64_t>(ten));
      auto& pre = prefixes[static_cast<std::size_t>(ten)];
      pre.resize(static_cast<std::size_t>(config.prefix_len));
      for (auto& tok : pre) {
        tok = static_cast<std::int32_t>(
            p.NextBelow(static_cast<std::uint64_t>(config.vocab)));
      }
    }
  }

  std::vector<ServeRequest> out;
  double t = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    // Exponential interarrival via inverse CDF; NextDouble is in [0, 1)
    // so 1-u is in (0, 1] and the log is finite.
    t += -std::log(1.0 - arrivals.NextDouble()) / config.qps;
    if (t >= config.duration_s) break;

    Rng req = root.Split(kRequestStreamBase + i);
    ServeRequest r;
    r.id = i;
    r.arrival_s = t;
    if (weight_total > 0.0) {
      double pick = req.NextDouble() * weight_total;
      r.tenant = config.tenants - 1;
      for (std::int32_t ten = 0; ten < config.tenants; ++ten) {
        pick -= config.tenant_weights[static_cast<std::size_t>(ten)];
        if (pick < 0.0) {
          r.tenant = ten;
          break;
        }
      }
    } else {
      r.tenant = static_cast<std::int32_t>(
          req.NextBelow(static_cast<std::uint64_t>(config.tenants)));
    }
    const std::int64_t plen =
        config.prompt_min +
        static_cast<std::int64_t>(req.NextBelow(static_cast<std::uint64_t>(
            config.prompt_max - config.prompt_min + 1)));
    // Tenant system prompt first, then the request's random tail. The
    // tail draws are identical with sharing on or off.
    const auto& pre = prefixes[static_cast<std::size_t>(r.tenant)];
    r.prompt = pre;
    r.prompt.resize(pre.size() + static_cast<std::size_t>(plen));
    for (std::size_t k = pre.size(); k < r.prompt.size(); ++k) {
      r.prompt[k] = static_cast<std::int32_t>(
          req.NextBelow(static_cast<std::uint64_t>(config.vocab)));
    }
    r.max_new_tokens =
        config.out_min +
        static_cast<std::int32_t>(req.NextBelow(static_cast<std::uint64_t>(
            config.out_max - config.out_min + 1)));
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace zero::serve
