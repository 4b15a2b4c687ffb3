#include "serve_workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string_view>
#include <thread>

#include "alloc/caching_allocator.hpp"
#include "alloc/device_memory.hpp"
#include "core/state_checkpoint.hpp"
#include "cpu_rotation.hpp"
#include "obs/trace.hpp"
#include "serve/admission.hpp"
#include "serve/engine.hpp"
#include "serve/scheduler.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace alloc = zero::alloc;
namespace model = zero::model;
namespace obs = zero::obs;
namespace serve = zero::serve;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kSetupReps = 5;
// The serve loop moves to the next CPU after this much wall time.
constexpr double kCpuSliceS = 0.1;
// Three runtime spans per engine step; overflow would under-count.
constexpr std::size_t kTraceEventsPerThread = 1u << 18;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// splitmix64: a fixed, portable stream, so a seed names the same traffic
// under every standard library.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  std::int32_t Uniform(std::int32_t lo, std::int32_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<std::int32_t>(Next() % span);
  }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Wall time of one engine step, split by the call it went to.
struct StepRecord {
  double plan_ms = 0.0;
  double decode_ms = 0.0;
  double commit_ms = 0.0;
  std::int64_t tokens = 0;
  bool mixed = false;  // carries prefill for a request with no token yet
  double flops = 0.0;
  [[nodiscard]] double total_ms() const {
    return plan_ms + decode_ms + commit_ms;
  }
};

struct ServePass {
  std::vector<double> setup_s;
  std::vector<serve::RequestOutcome> outcomes;
  std::vector<StepRecord> steps;
  std::vector<double> queue_wait_ms;
  std::int64_t rejected = 0;
  std::int64_t stalls = 0;
  double gen_late_max_ms = 0.0;
  double window_s = 0.0;  // first due instant to last completion
  std::int64_t backlog_at_last_arrival = 0;
  double drain_s = 0.0;
  std::int64_t kv_blocks_peak = 0;
  std::int64_t prefill_tokens = 0;
  std::int64_t prefix_hit_tokens = 0;
  std::size_t weight_bytes = 0;
  alloc::CacheStats cache;
  double decode_span_ms = 0.0;  // runtime serve/decode spans (traced)
};

void WriteCheckpoint(const model::GptConfig& cfg, std::uint64_t seed,
                     const std::string& path) {
  model::GptModel m(cfg, {});
  zero::core::TrainingState st;
  st.total_numel = m.layout().total_numel();
  st.step_count = 1;
  st.loss_scale = 1.0f;
  st.master.resize(static_cast<std::size_t>(st.total_numel));
  m.InitParameters(st.master, seed);
  st.momentum.assign(st.master.size(), 0.0f);
  st.variance.assign(st.master.size(), 0.0f);
  st.SaveToFile(path);
}

ServePass RunServePass(const ServeSpec& spec, const std::string& ckpt,
                       const std::vector<serve::ServeRequest>& traffic,
                       int setup_reps, bool traced) {
  ServePass out;
  const CpuRotation rotation;
  std::unique_ptr<alloc::DeviceMemory> device;
  std::unique_ptr<alloc::CachingAllocator> cache;
  std::unique_ptr<serve::InferenceEngine> engine;
  for (int rep = 0; rep < setup_reps; ++rep) {
    engine.reset();
    cache.reset();
    device.reset();
    rotation.Pin(static_cast<std::size_t>(rep));
    const auto t0 = Clock::now();
    device = std::make_unique<alloc::DeviceMemory>(spec.device_capacity_bytes,
                                                   "serve");
    cache = std::make_unique<alloc::CachingAllocator>(*device);
    serve::InferenceOptions io;
    io.model = spec.model;
    io.kv_block_tokens = spec.kv_block_tokens;
    io.kv_max_blocks = spec.kv_max_blocks;
    io.record_metrics = false;
    io.weights = spec.weights;
    io.prefix_cache = true;
    model::GptSession session;
    session.device = cache.get();
    engine = std::make_unique<serve::InferenceEngine>(io, session);
    engine->LoadCheckpointFile(ckpt);
    out.setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  serve::AdmissionConfig ac;
  ac.max_queue_requests = 1 << 20;  // measure service, never bounce
  ac.record_metrics = false;
  serve::AdmissionController admission(ac);
  serve::SchedulerConfig sc;
  sc.max_running = spec.max_running;
  sc.max_step_tokens = spec.max_step_tokens;
  sc.max_seq = spec.model.seq;
  sc.record_metrics = false;
  serve::ContinuousBatchScheduler scheduler(sc, &engine->kv(), &admission);

  const std::int64_t vocab = spec.model.vocab;
  const std::size_t n = traffic.size();
  std::vector<char> served(n, 0);
  std::vector<char> has_token(n, 0);
  std::vector<float> logits;
  double last_arrival_seen_s = 0.0;

  if (traced) {
    obs::SetTraceBufferCapacity(kTraceEventsPerThread);
    obs::ResetTrace();
    obs::EnableTracing();
  }
  const auto t0 = Clock::now();
  std::size_t next = 0;
  std::size_t cpu_slice = 0;
  rotation.Pin(cpu_slice);
  while (true) {
    const double now_s = SecondsBetween(t0, Clock::now());
    const auto slice = static_cast<std::size_t>(now_s / kCpuSliceS);
    if (slice != cpu_slice) {
      cpu_slice = slice;
      rotation.Pin(cpu_slice);
    }
    while (next < n && traffic[next].arrival_s <= now_s) {
      const serve::ServeRequest& r = traffic[next];
      out.gen_late_max_ms =
          std::max(out.gen_late_max_ms, (now_s - r.arrival_s) * 1e3);
      if (admission.Offer(r, now_s) != serve::RejectReason::kNone) {
        ++out.rejected;
      }
      if (++next == n) {
        last_arrival_seen_s = now_s;
        out.backlog_at_last_arrival =
            admission.queue_depth() + scheduler.running();
      }
    }
    if (scheduler.Idle()) {
      if (next >= n) break;
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(traffic[next].arrival_s)));
      continue;
    }

    const auto ts = Clock::now();
    const serve::StepPlan plan = scheduler.PlanStep();
    const auto tp = Clock::now();
    if (plan.empty()) {
      // No schedulable work while sequences remain: KV pressure the
      // workload is sized to avoid. Counted and checked.
      if (++out.stalls > 100000) break;
      continue;
    }
    StepRecord rec;
    rec.tokens = static_cast<std::int64_t>(plan.tokens.size());
    const double ts_s = SecondsBetween(t0, ts);
    for (const std::uint64_t id : plan.group_request) {
      if (served[id] == 0) {
        served[id] = 1;
        out.queue_wait_ms.push_back((ts_s - traffic[id].arrival_s) * 1e3);
      }
      rec.mixed = rec.mixed || has_token[id] == 0;
    }
    rec.flops = ServeStepFlops(spec.model, plan.tokens, plan.groups());
    logits.resize(plan.groups() * static_cast<std::size_t>(vocab));
    engine->Decode(plan.tokens, logits);
    const auto td = Clock::now();
    scheduler.CommitStep(plan, logits.data(), vocab, SecondsBetween(t0, td),
                         out.outcomes);
    const auto tc = Clock::now();
    for (std::size_t g = 0; g < plan.groups(); ++g) {
      if (plan.group_samples[g]) has_token[plan.group_request[g]] = 1;
    }
    rec.plan_ms = SecondsBetween(ts, tp) * 1e3;
    rec.decode_ms = SecondsBetween(tp, td) * 1e3;
    rec.commit_ms = SecondsBetween(td, tc) * 1e3;
    out.steps.push_back(rec);
  }
  const double end_s = SecondsBetween(t0, Clock::now());
  rotation.Unpin();
  if (traced) {
    obs::DisableTracing();
    for (const obs::ThreadEvents& t : obs::CollectEvents()) {
      for (const obs::TraceEvent& e : t.events) {
        if (std::string_view(e.name) == "serve/decode") {
          out.decode_span_ms += static_cast<double>(e.dur_ns) / 1e6;
        }
      }
    }
    obs::ResetTrace();
  }

  out.window_s = end_s - (n > 0 ? traffic.front().arrival_s : 0.0);
  out.drain_s = end_s - last_arrival_seen_s;
  out.kv_blocks_peak = engine->pool().peak_used();
  out.prefill_tokens = scheduler.prefill_tokens();
  out.prefix_hit_tokens = scheduler.prefix_hit_tokens();
  out.weight_bytes = engine->weights().weight_bytes();
  out.cache = cache->Stats();
  return out;
}

// Latency figures of one pass, all timed from each request's due instant.
struct Latencies {
  std::vector<double> ttft_ms;
  std::vector<double> tpot_ms;
  std::vector<double> e2e_ms;
  std::int64_t generated = 0;
  std::int64_t evictions = 0;
};

Latencies Collect(const ServePass& pass) {
  Latencies l;
  for (const serve::RequestOutcome& o : pass.outcomes) {
    if (!o.completed) continue;
    l.ttft_ms.push_back((o.first_token_s - o.arrival_s) * 1e3);
    l.e2e_ms.push_back((o.done_s - o.arrival_s) * 1e3);
    const auto k = static_cast<double>(o.output.size());
    if (k > 1) l.tpot_ms.push_back((o.done_s - o.first_token_s) * 1e3 / (k - 1));
    l.generated += static_cast<std::int64_t>(o.output.size());
    l.evictions += o.evictions;
  }
  return l;
}

// Output checks: every request completed with exactly max_new_tokens
// in-vocabulary tokens, nothing was rejected or evicted, and the backlog
// drained after the last arrival.
void CheckPass(const ServeSpec& spec,
               const std::vector<serve::ServeRequest>& traffic,
               const ServePass& pass, const Latencies& lat, RunOutcome& out) {
  const std::int64_t vocab = spec.model.vocab;
  std::vector<char> done(traffic.size(), 0);
  std::int64_t bad_output = 0;
  for (const serve::RequestOutcome& o : pass.outcomes) {
    if (!o.completed || o.id >= traffic.size()) continue;
    done[o.id] = 1;
    const serve::ServeRequest& r = traffic[o.id];
    bool ok = static_cast<std::int64_t>(o.output.size()) == r.max_new_tokens;
    for (const std::int32_t t : o.output) ok = ok && t >= 0 && t < vocab;
    bad_output += ok ? 0 : 1;
  }
  const auto completed =
      static_cast<std::int64_t>(std::count(done.begin(), done.end(), 1));
  const auto offered = static_cast<std::int64_t>(traffic.size());
  out.failed += offered - completed;
  out.Check(completed == offered,
            std::to_string(offered - completed) + " of " +
                std::to_string(offered) + " requests did not complete");
  out.Check(bad_output == 0,
            std::to_string(bad_output) +
                " requests returned the wrong token count or out-of-vocab "
                "tokens");
  out.Check(pass.rejected == 0,
            std::to_string(pass.rejected) + " requests were rejected");
  out.Check(lat.evictions == 0 && pass.stalls == 0,
            "KV pressure: " + std::to_string(lat.evictions) +
                " evictions, " + std::to_string(pass.stalls) + " stalls");
  out.Check(pass.backlog_at_last_arrival <= spec.max_backlog_at_last_arrival &&
                pass.drain_s <= spec.max_drain_s,
            "backlog still growing: " +
                std::to_string(pass.backlog_at_last_arrival) +
                " requests queued or running at the last arrival, drained "
                "in " +
                std::to_string(pass.drain_s) + " s");
}

}  // namespace

ServeSpec ServeFp16Spec() {
  ServeSpec s;
  s.model.vocab = 512;
  s.model.seq = 128;
  s.model.hidden = 512;
  s.model.layers = 4;
  s.model.heads = 8;
  return s;
}

std::vector<serve::ServeRequest> MakeTraffic(const ServeSpec& spec,
                                             std::uint64_t seed,
                                             double seconds) {
  SplitMix rng(seed ^ 0x5E7FE0D5A11CE5ull);
  const auto vocab = static_cast<std::int32_t>(spec.model.vocab);
  std::vector<std::vector<std::int32_t>> prefixes(
      static_cast<std::size_t>(spec.tenants));
  for (std::vector<std::int32_t>& p : prefixes) {
    for (std::int32_t i = 0; i < spec.prefix_len; ++i) {
      p.push_back(rng.Uniform(0, vocab - 1));
    }
  }
  const auto count = std::max<std::int64_t>(
      spec.min_requests, std::llround(spec.rate_rps * seconds));
  std::vector<serve::ServeRequest> out;
  out.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (std::int64_t i = 0; i < count; ++i) {
    t += -std::log1p(-rng.Unit()) / spec.rate_rps;
    serve::ServeRequest r;
    r.id = static_cast<std::uint64_t>(i);
    r.tenant = rng.Uniform(0, spec.tenants - 1);
    r.arrival_s = t;
    r.prompt = prefixes[static_cast<std::size_t>(r.tenant)];
    const std::int32_t tail = rng.Uniform(spec.tail_min, spec.tail_max);
    for (std::int32_t j = 0; j < tail; ++j) {
      r.prompt.push_back(rng.Uniform(0, vocab - 1));
    }
    r.max_new_tokens = rng.Uniform(spec.out_min, spec.out_max);
    out.push_back(std::move(r));
  }
  return out;
}

double ServeStepFlops(const model::GptConfig& cfg,
                      const std::vector<model::DecodeToken>& tokens,
                      std::size_t groups) {
  const auto h = static_cast<double>(cfg.hidden);
  const auto layers = static_cast<double>(cfg.layers);
  double flops = 0.0;
  for (const model::DecodeToken& t : tokens) {
    // qkv 3h^2 + out h^2 + fc 4h^2 + proj 4h^2 multiply-adds, plus
    // scores and context against pos + 1 cached positions.
    flops += layers * (24.0 * h * h + 4.0 * h * static_cast<double>(t.pos + 1));
  }
  return flops + static_cast<double>(groups) * 2.0 * h *
                     static_cast<double>(cfg.vocab);
}

RunOutcome RunServeWorkload(const ServeSpec& spec, std::uint64_t seed,
                            double seconds, bool trace,
                            const std::string& scratch_dir) {
  RunOutcome out;
  // A traced run serves the traffic twice (untraced, then traced), each
  // over half the time; its per-layer figures need no p95.
  ServeSpec sized = spec;
  if (trace) sized.min_requests = 1;
  const std::vector<serve::ServeRequest> traffic =
      MakeTraffic(sized, seed, trace ? seconds / 2 : seconds);
  out.attempted = static_cast<std::int64_t>(traffic.size());
  const std::string ckpt =
      scratch_dir + "/serve_ckpt_" + std::to_string(seed) + ".bin";
  WriteCheckpoint(spec.model, seed, ckpt);

  const ServePass base =
      RunServePass(spec, ckpt, traffic, trace ? 1 : kSetupReps, false);
  const Latencies lat = Collect(base);
  CheckPass(spec, traffic, base, lat, out);

  double busy_ms = 0.0;
  double decode_ms = 0.0;
  double flops = 0.0;
  for (const StepRecord& s : base.steps) {
    busy_ms += s.total_ms();
    decode_ms += s.decode_ms;
    flops += s.flops;
  }
  const Tail ttft_tail = TailPercentile(lat.ttft_ms);
  const Tail tpot_tail = TailPercentile(lat.tpot_ms);
  const Tail e2e_tail = TailPercentile(lat.e2e_ms);
  out.Check(trace || ttft_tail.beyond >= 10,
            "too few completed requests for a p95 with 10 samples beyond");
  const double tpot_p50 = Median(lat.tpot_ms);

  out.extra = {
      {"requests", static_cast<double>(traffic.size()), "count"},
      {"offered_rps", spec.rate_rps, "1/s"},
      {"ttft_p50_ms", Median(lat.ttft_ms), "ms"},
      {"ttft_p" + std::to_string(ttft_tail.percent) + "_ms", ttft_tail.value,
       "ms"},
      {"tpot_p50_ms", tpot_p50, "ms"},
      {"tpot_p" + std::to_string(tpot_tail.percent) + "_ms", tpot_tail.value,
       "ms"},
      {"e2e_p50_ms", Median(lat.e2e_ms), "ms"},
      {"e2e_p" + std::to_string(e2e_tail.percent) + "_ms", e2e_tail.value,
       "ms"},
      {"busy_frac", busy_ms / 1e3 / base.window_s, "ratio"},
      {"window_s", base.window_s, "s"},
      {"drain_s", base.drain_s, "s"},
      {"steps", static_cast<double>(base.steps.size()), "count"},
      {"error_rate",
       static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       "ratio"},
  };

  if (!trace) {
    std::remove(ckpt.c_str());
    out.metrics = EndToEndMetrics();
    SetMetric(out.metrics, "setup_s", Median(base.setup_s));
    SetMetric(out.metrics, "tok_s",
              static_cast<double>(lat.generated) / (busy_ms / 1e3));
    SetMetric(out.metrics, "gflops_per_rank", flops / (busy_ms / 1e3) / 1e9);
    SetMetric(out.metrics, "peak_device_mb",
              static_cast<double>(base.weight_bytes + base.cache.peak_cached) /
                  kMiB);
    SetMetric(out.metrics, "p50_ms", Median(lat.ttft_ms));
    return out;
  }

  const ServePass traced = RunServePass(spec, ckpt, traffic, 1, true);
  std::remove(ckpt.c_str());
  const Latencies tlat = Collect(traced);
  CheckPass(spec, traffic, traced, tlat, out);

  std::vector<double> decode_only;
  std::vector<double> mixed;
  double t_busy = 0.0;
  double t_decode = 0.0;
  double t_flops = 0.0;
  double t_plan = 0.0;
  double t_commit = 0.0;
  double t_tokens = 0.0;
  for (const StepRecord& s : traced.steps) {
    (s.mixed ? mixed : decode_only).push_back(s.decode_ms);
    t_busy += s.total_ms();
    t_decode += s.decode_ms;
    t_flops += s.flops;
    t_plan += s.plan_ms;
    t_commit += s.commit_ms;
    t_tokens += static_cast<double>(s.tokens);
  }
  const double steps = static_cast<double>(std::max<std::size_t>(
      traced.steps.size(), 1));
  const double lookups =
      static_cast<double>(traced.cache.cache_hits + traced.cache.cache_misses);
  const double prefill_all = static_cast<double>(traced.prefill_tokens +
                                                 traced.prefix_hit_tokens);
  const double traced_tpot = Median(tlat.tpot_ms);

  out.metrics = PerLayerMetrics();
  SetMetric(out.metrics, "model.step_ms", t_decode / steps);
  SetMetric(out.metrics, "model.self_ms", t_decode / steps);
  SetMetric(out.metrics, "model.gflops",
            t_decode > 0 ? t_flops / (t_decode / 1e3) / 1e9 : 0.0);
  SetMetric(out.metrics, "alloc.peak_cached_mb",
            static_cast<double>(traced.cache.peak_cached) / kMiB);
  SetMetric(out.metrics, "alloc.peak_live_mb",
            static_cast<double>(traced.cache.peak_live) / kMiB);
  SetMetric(out.metrics, "alloc.cache_hit_ratio",
            lookups > 0 ? static_cast<double>(traced.cache.cache_hits) / lookups
                        : 0.0);
  SetMetric(out.metrics, "serve.plan_ms", t_plan / steps);
  SetMetric(out.metrics, "serve.commit_ms", t_commit / steps);
  SetMetric(out.metrics, "serve.decode_step_ms", Mean(decode_only));
  SetMetric(out.metrics, "serve.mixed_step_ms", Mean(mixed));
  SetMetric(out.metrics, "serve.tokens_per_step", t_tokens / steps);
  SetMetric(out.metrics, "serve.busy_frac", t_busy / 1e3 / traced.window_s);
  SetMetric(out.metrics, "serve.queue_wait_ms_p50",
            Median(traced.queue_wait_ms));
  SetMetric(out.metrics, "serve.gen_late_ms_max", traced.gen_late_max_ms);
  SetMetric(out.metrics, "serve.kv_blocks_peak",
            static_cast<double>(traced.kv_blocks_peak));
  SetMetric(out.metrics, "serve.prefix_hit_ratio",
            prefill_all > 0
                ? static_cast<double>(traced.prefix_hit_tokens) / prefill_all
                : 0.0);
  SetMetric(out.metrics, "serve.evictions",
            static_cast<double>(tlat.evictions));
  SetMetric(out.metrics, "trace.overhead_frac",
            tpot_p50 > 0 ? traced_tpot / tpot_p50 - 1.0 : 0.0);

  const double span_gap =
      t_decode > 0 ? std::fabs(traced.decode_span_ms - t_decode) / t_decode
                   : 0.0;
  std::printf(
      "# reconciliation: serve/decode spans %.3f ms vs Decode calls %.3f ms "
      "(gap %.2f%%, tol 5%%); plan %.3f + decode %.3f + commit %.3f = busy "
      "%.3f ms\n",
      traced.decode_span_ms, t_decode, 100.0 * span_gap, t_plan, t_decode,
      t_commit, t_busy);
  out.Check(span_gap <= 0.05,
            "serve/decode spans do not reconcile with the Decode calls");
  out.extra.push_back({"untraced_tpot_p50_ms", tpot_p50, "ms"});
  out.extra.push_back({"traced_tpot_p50_ms", traced_tpot, "ms"});
  out.extra.push_back({"recon.decode_span_gap", span_gap, "ratio"});
  out.extra.push_back({"decode_steps", static_cast<double>(decode_only.size()),
                       "count"});
  out.extra.push_back({"mixed_steps", static_cast<double>(mixed.size()),
                       "count"});
  return out;
}

}  // namespace perfbench
