#include "train_workload.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <exception>
#include <mutex>

#include "alloc/device_memory.hpp"
#include "comm/topology.hpp"
#include "comm/world.hpp"
#include "cpu_rotation.hpp"
#include "core/dp_engine.hpp"
#include "model/corpus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace alloc = zero::alloc;
namespace comm = zero::comm;
namespace core = zero::core;
namespace model = zero::model;
namespace obs = zero::obs;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Barrier key for the benchmark's own between-step synchronization;
// disjoint from the communicators' group ids.
constexpr std::uint64_t kStepBarrierKey = 0x9E4FB0000001ull;

// Ring capacity per thread for traced passes. A stage-3 step records a
// few thousand spans per rank; overflow is detected and fails the run.
constexpr std::size_t kTraceEventsPerThread = 1u << 19;

constexpr double kMiB = 1024.0 * 1024.0;

// Steps run before measuring (cold caches, stage-3 prefetch schedule
// recording), the fewest measured steps, and a cap on the step count.
constexpr int kWarmupSteps = 2;
constexpr int kMinSteps = 8;
constexpr int kMaxSteps = 100000;

// The corpus draws from the first kCorpusVocab symbols of the model's
// vocabulary. Compute is that of the full vocabulary; the narrower
// language makes learning visible within the measured steps, which the
// loss check relies on. Branching 3 is the trainer's default.
constexpr std::int64_t kCorpusVocab = 64;
constexpr int kCorpusBranching = 3;

std::string ExceptionMessage(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

model::TransformerSpec SpecOf(const model::GptConfig& c) {
  model::TransformerSpec s;
  s.layers = c.layers;
  s.hidden = c.hidden;
  s.heads = c.heads;
  s.vocab = c.vocab;
  s.seq = c.seq;
  return s;
}

}  // namespace

model::GptConfig BenchGpt() {
  model::GptConfig c;
  c.vocab = 512;
  c.seq = 128;
  c.hidden = 256;
  c.layers = 4;
  c.heads = 8;
  return c;
}

TrainSpec TrainDp1Spec() {
  TrainSpec s;
  s.name = "train_dp1";
  s.model = BenchGpt();
  s.dp = 1;
  s.stage = model::ZeroStage::kNone;
  return s;
}

TrainSpec TrainZero3Dp2Spec() {
  TrainSpec s;
  s.name = "train_zero3_dp2";
  s.model = BenchGpt();
  s.dp = 2;
  s.stage = model::ZeroStage::kOsGP;
  s.prefetch_lookahead = 2;
  return s;
}

TrainPass RunTrainPass(const TrainSpec& spec, const PassPlan& plan) {
  TrainPass out;
  const int dp = spec.dp;
  out.losses.assign(static_cast<std::size_t>(dp), {});
  out.cache.resize(static_cast<std::size_t>(dp));
  if (plan.traced) {
    obs::DisableTracing();
    obs::SetTraceBufferCapacity(kTraceEventsPerThread);
    obs::ResetTrace();
  }

  const CpuRotation rotation;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    const bool train = rep + 1 == plan.setup_reps;
    std::vector<double> setup_done(static_cast<std::size_t>(dp), 0.0);
    // Step-continuation decisions made by rank 0 and read by every rank
    // after the between-step barrier.
    std::vector<char> go(static_cast<std::size_t>(kMaxSteps), 0);
    std::mutex out_mutex;

    const auto t0 = Clock::now();
    comm::World world(dp);
    const comm::GridTopology grid(dp, 1);
    const comm::World::RunReport run = world.TryRun([&](comm::RankContext&
                                                            ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank);
      rotation.Pin(static_cast<std::size_t>(rep) + r);
      alloc::DeviceMemory device(spec.device_capacity_bytes,
                                 "rank" + std::to_string(ctx.rank));
      alloc::CachingAllocator cache(device);
      comm::Communicator dp_comm = grid.MakeDpComm(ctx);
      model::GptSession session;
      session.device = &cache;
      model::GptModel gpt(spec.model, session);
      TimedModel timed(gpt);
      model::FlatParamModel& trained =
          plan.traced ? static_cast<model::FlatParamModel&>(timed) : gpt;
      core::EngineConfig cfg;
      cfg.stage = spec.stage;
      cfg.fp16 = true;
      cfg.prefetch_lookahead = spec.prefetch_lookahead;
      core::ZeroDpEngine engine(cfg, trained, dp_comm, &cache, plan.seed);
      setup_done[r] = SecondsSince(t0);
      if (!train) return;

      // One language for the group (table seed), one shard per DP rank
      // (stream seed), as the trainer reads its corpus.
      model::MarkovCorpus corpus(kCorpusVocab, kCorpusBranching,
                                 plan.seed,
                                 static_cast<std::uint64_t>(dp_comm.rank()));
      comm::Barrier& sync = ctx.world->SharedBarrier(kStepBarrierKey, dp);
      comm::CommDelta traffic(dp_comm);
      std::vector<float> losses;
      std::vector<double> step_ms;
      Clock::time_point measure_t0 = Clock::now();

      for (int s = 0;; ++s) {
        if (s == kWarmupSteps) {
          // Every rank has finished warm-up before rank 0 resets the
          // registry and turns tracing on; nobody records meanwhile.
          sync.Arrive();
          if (ctx.rank == 0 && plan.traced) {
            obs::Metrics().ResetValues();
            timed.Clear();
            obs::EnableTracing();
          }
          traffic.Rebase();
          sync.Arrive();
          measure_t0 = Clock::now();
        }
        const model::Batch batch =
            corpus.NextBatch(spec.batch_per_rank, spec.model.seq);
        rotation.Pin(static_cast<std::size_t>(s) + r);
        const auto st = Clock::now();
        losses.push_back(engine.TrainStep(batch));
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - st)
                .count();
        const int measured = s + 1 - kWarmupSteps;
        if (measured > 0) step_ms.push_back(ms);
        if (ctx.rank == 0) {
          bool more = true;
          if (measured > 0) {
            more = plan.fixed_steps > 0
                       ? measured < plan.fixed_steps
                       : (measured < kMinSteps ||
                          SecondsSince(measure_t0) < plan.seconds);
          }
          go[static_cast<std::size_t>(s)] = more && s + 1 < kMaxSteps;
        }
        sync.Arrive();
        if (go[static_cast<std::size_t>(s)] == 0) break;
      }
      if (ctx.rank == 0 && plan.traced) obs::DisableTracing();

      std::lock_guard<std::mutex> lock(out_mutex);
      out.losses[r] = std::move(losses);
      out.cache[r] = cache.Stats();
      if (ctx.rank == 0) {
        out.step_ms = std::move(step_ms);
        out.comm = traffic.Delta();
        out.skipped_steps = engine.skipped_steps();
        if (plan.traced) {
          out.model_steps = timed.steps();
          out.prefetch_hits = static_cast<double>(
              obs::Metrics().counter("prefetch.hits").value());
          out.prefetch_misses = static_cast<double>(
              obs::Metrics().counter("prefetch.misses").value());
          out.overlap_frac =
              obs::Metrics().gauge("comm.overlap_frac.rank0").value();
        }
      }
    });
    if (!run.ok()) {
      out.failed = true;
      out.failure = ExceptionMessage(run.RootCause());
      return out;
    }
    out.setup_s.push_back(
        *std::max_element(setup_done.begin(), setup_done.end()));
  }

  if (plan.traced) {
    obs::DisableTracing();
    out.trace_dropped = obs::TraceDroppedCount();
    for (const obs::ThreadEvents& t : obs::CollectEvents()) {
      for (const obs::TraceEvent& e : t.events) {
        if (e.rank != 0) continue;
        out.span_ms[e.name] += static_cast<double>(e.dur_ns) / 1e6;
      }
    }
    obs::ResetTrace();
  }
  return out;
}

LayerAccounting AccountLayers(const TrainPass& pass) {
  LayerAccounting a;
  const double n = static_cast<double>(pass.model_steps.size());
  if (n == 0) return a;
  for (const StepTiming& t : pass.model_steps) {
    a.model_step_ms += t.step_ms;
    a.model_self_ms += t.self_ms();
    a.acquire_ms += t.acquire_ms;
    a.release_ms += t.release_ms;
    a.emit_ms += t.emit_ms;
    a.acquire_calls += static_cast<double>(t.acquire_calls);
    a.emit_calls += static_cast<double>(t.emit_calls);
  }
  for (double* sum : {&a.model_step_ms, &a.model_self_ms, &a.acquire_ms,
                      &a.release_ms, &a.emit_ms, &a.acquire_calls,
                      &a.emit_calls}) {
    *sum /= n;
  }
  a.train_step_ms = Mean(pass.step_ms);
  a.post_backward_ms = a.train_step_ms - a.model_step_ms;
  const auto span = [&](const char* name) {
    const auto it = pass.span_ms.find(name);
    return it == pass.span_ms.end() ? 0.0 : it->second / n;
  };
  a.fwd_bwd_span_ms = span("engine/fwd_bwd");
  a.reduce_grads_ms = span("engine/reduce_grads");
  a.apply_update_ms = span("engine/apply_update");
  a.adam_ms = span("optim/adam_step");
  return a;
}

Reconciliation Reconcile(const LayerAccounting& a) {
  Reconciliation r;
  const auto rel = [](double got, double want) {
    return want > 0.0 ? std::fabs(got - want) / want : std::fabs(got);
  };
  r.self_identity = rel(a.model_self_ms + a.acquire_ms + a.release_ms +
                            a.emit_ms,
                        a.model_step_ms);
  r.step_identity =
      rel(a.model_step_ms + a.post_backward_ms, a.train_step_ms);
  r.fwd_bwd_gap = rel(a.fwd_bwd_span_ms, a.model_step_ms);
  r.post_backward_cover =
      a.post_backward_ms > 0.0
          ? (a.reduce_grads_ms + a.apply_update_ms) / a.post_backward_ms
          : 0.0;
  r.ok = r.self_identity <= kIdentityTol && r.step_identity <= kIdentityTol &&
         r.fwd_bwd_gap <= kSpanGapTol && r.post_backward_cover <= kCoverTol &&
         a.model_self_ms >= 0.0 && a.post_backward_ms >= 0.0;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "model.self %.3f + nested %.3f = model.step %.3f ms (resid %.1e); "
      "model.step %.3f + post_backward %.3f = train_step %.3f ms (resid "
      "%.1e); engine/fwd_bwd span %.3f vs Step %.3f ms (gap %.2f%%, tol "
      "%.0f%%); reduce_grads+apply_update cover %.1f%% of post_backward "
      "(tol <= %.0f%%)",
      a.model_self_ms, a.acquire_ms + a.release_ms + a.emit_ms,
      a.model_step_ms, r.self_identity, a.model_step_ms, a.post_backward_ms,
      a.train_step_ms, r.step_identity, a.fwd_bwd_span_ms, a.model_step_ms,
      100.0 * r.fwd_bwd_gap, 100.0 * kSpanGapTol,
      100.0 * r.post_backward_cover, 100.0 * kCoverTol);
  r.detail = buf;
  return r;
}

namespace {

// Loss checks shared by both modes: finite at every step on every rank,
// and the final loss below the step-0 loss.
void CheckLosses(const TrainPass& pass, RunOutcome& out, double* first,
                 double* last) {
  double l0 = 0.0;
  double lf = 0.0;
  std::int64_t nonfinite = 0;
  for (const std::vector<float>& rank_losses : pass.losses) {
    for (const float l : rank_losses) nonfinite += std::isfinite(l) ? 0 : 1;
    if (rank_losses.empty()) continue;
    l0 += rank_losses.front();
    // Mean of the last four steps smooths batch-to-batch noise.
    const std::size_t k = std::min<std::size_t>(4, rank_losses.size());
    double tail = 0.0;
    for (std::size_t i = rank_losses.size() - k; i < rank_losses.size();
         ++i) {
      tail += rank_losses[i];
    }
    lf += tail / static_cast<double>(k);
  }
  const double ranks = static_cast<double>(pass.losses.size());
  *first = l0 / ranks;
  *last = lf / ranks;
  out.failed += nonfinite;
  out.Check(nonfinite == 0, std::to_string(nonfinite) +
                                " training steps produced a non-finite loss");
  out.Check(*last < *first, "final loss " + std::to_string(*last) +
                                " is not below the step-0 loss " +
                                std::to_string(*first));
}

}  // namespace

RunOutcome RunTrainWorkload(const TrainSpec& spec, std::uint64_t seed,
                            double seconds, bool trace) {
  RunOutcome out;
  PassPlan plan;
  plan.seed = seed;
  // A traced run splits its time between the untraced and traced passes.
  plan.seconds = trace ? seconds / 2 : seconds;
  plan.setup_reps = trace ? 1 : 5;
  const TrainPass base = RunTrainPass(spec, plan);
  const int steps = static_cast<int>(base.losses.front().size());
  out.attempted = std::max(steps, 1);
  if (base.failed) {
    out.failed = out.attempted;
    out.Fail("training pass failed: " + base.failure);
    return out;
  }
  double loss0 = 0.0;
  double loss_final = 0.0;
  CheckLosses(base, out, &loss0, &loss_final);

  const model::TransformerSpec ts = SpecOf(spec.model);
  const double step_flops = ts.StepFlops(spec.batch_per_rank, false);
  const double median_ms = Median(base.step_ms);
  const Tail tail = TailPercentile(base.step_ms);
  const double tokens_per_step = static_cast<double>(
      spec.batch_per_rank * spec.model.seq * spec.dp);
  std::size_t peak_cached = 0;
  for (const alloc::CacheStats& c : base.cache) {
    peak_cached = std::max(peak_cached, c.peak_cached);
  }

  out.extra = {
      {"steps_measured", static_cast<double>(base.measured_steps()), "count"},
      {"step_median_ms", median_ms, "ms"},
      {"step_p" + std::to_string(tail.percent) + "_ms", tail.value, "ms"},
      {"step_tail_beyond", static_cast<double>(tail.beyond), "count"},
      {"skipped_steps", static_cast<double>(base.skipped_steps), "count"},
      {"loss_step0", loss0, "nats"},
      {"loss_final", loss_final, "nats"},
      {"error_rate",
       static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       "ratio"},
  };

  if (!trace) {
    out.metrics = EndToEndMetrics();
    SetMetric(out.metrics, "setup_s", Median(base.setup_s));
    SetMetric(out.metrics, "tok_s", tokens_per_step / (median_ms / 1e3));
    SetMetric(out.metrics, "gflops_per_rank",
              step_flops / (median_ms / 1e3) / 1e9);
    SetMetric(out.metrics, "peak_device_mb",
              static_cast<double>(peak_cached) / kMiB);
    SetMetric(out.metrics, "p50_ms", median_ms);
    return out;
  }

  // Traced pass: same seed, same number of measured steps, through the
  // decorator with the runtime's spans recording.
  plan.traced = true;
  plan.fixed_steps = base.measured_steps();
  const TrainPass traced = RunTrainPass(spec, plan);
  if (traced.failed) {
    out.failed = out.attempted;
    out.Fail("traced training pass failed: " + traced.failure);
    return out;
  }
  bool same = traced.losses.size() == base.losses.size();
  for (std::size_t r = 0; same && r < base.losses.size(); ++r) {
    same = traced.losses[r].size() == base.losses[r].size() &&
           std::memcmp(traced.losses[r].data(), base.losses[r].data(),
                       base.losses[r].size() * sizeof(float)) == 0;
  }
  out.Check(same,
            "traced pass did not reproduce the untraced loss trajectory "
            "bit for bit");
  out.Check(traced.trace_dropped == 0,
            "trace ring overflowed (" + std::to_string(traced.trace_dropped) +
                " events dropped)");

  const LayerAccounting a = AccountLayers(traced);
  const Reconciliation rec = Reconcile(a);
  out.Check(rec.ok, "layer accounting does not reconcile: " + rec.detail);
  std::printf("# reconciliation: %s\n", rec.detail.c_str());

  const double n = static_cast<double>(traced.measured_steps());
  const double traced_median = Median(traced.step_ms);
  std::size_t peak_live = 0;
  for (const alloc::CacheStats& c : traced.cache) {
    peak_live = std::max(peak_live, c.peak_live);
  }
  std::size_t traced_peak_cached = 0;
  for (const alloc::CacheStats& c : traced.cache) {
    traced_peak_cached = std::max(traced_peak_cached, c.peak_cached);
  }
  const alloc::CacheStats& c0 = traced.cache.front();
  const double lookups = static_cast<double>(c0.cache_hits + c0.cache_misses);
  const double prefetches = traced.prefetch_hits + traced.prefetch_misses;

  out.metrics = PerLayerMetrics();
  SetMetric(out.metrics, "model.step_ms", a.model_step_ms);
  SetMetric(out.metrics, "model.self_ms", a.model_self_ms);
  SetMetric(out.metrics, "model.gflops",
            a.model_self_ms > 0 ? step_flops / (a.model_self_ms / 1e3) / 1e9
                                : 0.0);
  SetMetric(out.metrics, "stages.acquire_ms", a.acquire_ms);
  SetMetric(out.metrics, "stages.acquire_calls", a.acquire_calls);
  SetMetric(out.metrics, "stages.release_ms", a.release_ms);
  SetMetric(out.metrics, "stages.emit_ms", a.emit_ms);
  SetMetric(out.metrics, "stages.emit_calls", a.emit_calls);
  SetMetric(out.metrics, "stages.prefetch_hit_ratio",
            prefetches > 0 ? traced.prefetch_hits / prefetches : 0.0);
  SetMetric(out.metrics, "core.train_step_ms", a.train_step_ms);
  SetMetric(out.metrics, "core.post_backward_ms", a.post_backward_ms);
  SetMetric(out.metrics, "core.reduce_grads_ms", a.reduce_grads_ms);
  SetMetric(out.metrics, "core.apply_update_ms", a.apply_update_ms);
  SetMetric(out.metrics, "optim.adam_ms", a.adam_ms);
  SetMetric(out.metrics, "comm.bytes_per_step",
            static_cast<double>(traced.comm.bytes_sent) / n);
  SetMetric(out.metrics, "comm.collectives_per_step",
            static_cast<double>(traced.comm.collectives) / n);
  SetMetric(out.metrics, "comm.messages_per_step",
            static_cast<double>(traced.comm.messages_sent) / n);
  SetMetric(out.metrics, "comm.overlap_frac", traced.overlap_frac);
  SetMetric(out.metrics, "alloc.peak_cached_mb",
            static_cast<double>(traced_peak_cached) / kMiB);
  SetMetric(out.metrics, "alloc.peak_live_mb",
            static_cast<double>(peak_live) / kMiB);
  SetMetric(out.metrics, "alloc.cache_hit_ratio",
            lookups > 0 ? static_cast<double>(c0.cache_hits) / lookups : 0.0);
  SetMetric(out.metrics, "trace.overhead_frac",
            median_ms > 0 ? traced_median / median_ms - 1.0 : 0.0);

  out.extra.push_back({"untraced_step_median_ms", median_ms, "ms"});
  out.extra.push_back({"traced_step_median_ms", traced_median, "ms"});
  out.extra.push_back({"recon.self_identity", rec.self_identity, "ratio"});
  out.extra.push_back({"recon.step_identity", rec.step_identity, "ratio"});
  out.extra.push_back({"recon.fwd_bwd_gap", rec.fwd_bwd_gap, "ratio"});
  out.extra.push_back(
      {"recon.post_backward_cover", rec.post_backward_cover, "ratio"});
  return out;
}

}  // namespace perfbench
