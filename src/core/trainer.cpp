#include "core/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "common/logging.hpp"
#include "core/zero_r.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace zero::core {

std::size_t TrainResult::MaxPeakCached() const {
  std::size_t mx = 0;
  for (const RankMetrics& r : ranks) mx = std::max(mx, r.cache.peak_cached);
  return mx;
}

std::uint64_t TrainResult::TotalDpBytesSent() const {
  std::uint64_t total = 0;
  for (const RankMetrics& r : ranks) total += r.dp_comm.bytes_sent;
  return total;
}

std::uint64_t TrainResult::TotalMpBytesSent() const {
  std::uint64_t total = 0;
  for (const RankMetrics& r : ranks) total += r.mp_comm.bytes_sent;
  return total;
}

TrainResult TrainGpt(const TrainOptions& options) {
  const int world_size =
      options.cluster.dp_degree * options.cluster.mp_degree;
  ZERO_CHECK(world_size >= 1, "cluster must have at least one rank");
  ZERO_CHECK(!options.zero_r.partition_activations ||
                 options.zero_r.activation_checkpointing,
             "Pa requires activation checkpointing");
  ZERO_CHECK(!options.zero_r.cpu_offload ||
                 options.zero_r.partition_activations,
             "Pa+cpu requires Pa");

  comm::World world(world_size);
  comm::GridTopology grid(world_size, options.cluster.mp_degree);

  fault::FaultPlan fault_plan =
      fault::FaultPlan::Parse(options.engine.fault_spec);
  std::optional<fault::FaultInjector> injector;
  if (!fault_plan.empty()) {
    injector.emplace(std::move(fault_plan), world_size);
    world.SetFaultHooks(&*injector);
  }
  if (options.engine.comm_deadline_ms != 0) {
    world.SetCommDeadline(
        std::chrono::milliseconds(options.engine.comm_deadline_ms));
  }

  obs::TelemetryOptions telemetry = options.engine.telemetry;
  telemetry.ResolvePaths();
  if (telemetry.enabled) {
    // Fresh buffers + zeroed metrics so the artifacts describe this run
    // only. Safe here: no rank thread is recording yet.
    obs::SetTraceBufferCapacity(telemetry.trace_buffer_events);
    obs::ResetTrace();
    obs::Metrics().ResetValues();
    obs::EnableTracing();
  }
  // Flight recorder: a post-mortem directory arms it even when full
  // telemetry is off (small bounded ring, flushed only on a fault).
  const bool flight_armed = !telemetry.postmortem_dir.empty();
  const bool flight_owns_tracing = flight_armed && !obs::TracingEnabled();
  if (flight_armed) {
    obs::FlightRecorderOptions fr;
    fr.dir = telemetry.postmortem_dir;
    obs::EnableFlightRecorder(fr);
  }
  // Step-report inputs measured on rank 0 inside Run; the comm ledger
  // covers `report_in.steps` steady-state steps (0 = nothing measured).
  obs::StepReportInputs report_in;
  report_in.stage = static_cast<int>(options.engine.stage);
  report_in.nd = options.cluster.dp_degree;
  report_in.fp16 = options.engine.fp16;
  report_in.ranks_per_node = options.engine.ranks_per_node;
  report_in.world_size = world_size;
  report_in.steps = 0;
  std::vector<std::string> step_metric_snapshots;

  TrainResult result;
  result.losses.assign(static_cast<std::size_t>(options.steps), 0.0f);
  result.ranks.resize(static_cast<std::size_t>(world_size));
  // Each rank's step losses, kept apart until the join so the DP mean
  // below sums them in rank order, not in thread completion order.
  std::vector<std::vector<float>> rank_losses(
      static_cast<std::size_t>(world_size));
  std::mutex result_mutex;

  const comm::World::RunReport run = world.TryRun([&](comm::RankContext&
                                                          ctx) {
    // --- per-rank substrate ---
    alloc::DeviceMemory device_mem(options.cluster.device_capacity_bytes,
                                   "rank" + std::to_string(ctx.rank));
    alloc::CachingAllocator cache(device_mem);
    alloc::HostMemory host_mem;

    comm::Communicator mp = grid.MakeMpComm(ctx);
    comm::Communicator dp = grid.MakeDpComm(ctx);

    RankMetrics metrics;
    metrics.rank = ctx.rank;
    bool rank_oom = false;
    std::string oom_message;
    std::vector<float> local_losses(static_cast<std::size_t>(options.steps),
                                    0.0f);

    try {
      // --- ZeRO-R checkpoint policy ---
      std::optional<alloc::Arena> arena;
      if (options.zero_r.defrag_arena) {
        arena.emplace(device_mem, options.zero_r.arena_bytes, "ckpt-md");
      }
      std::unique_ptr<model::CheckpointStore> store;
      if (options.zero_r.partition_activations) {
        store = std::make_unique<PartitionedCheckpointStore>(
            mp, &cache, options.zero_r.cpu_offload ? &host_mem : nullptr,
            arena ? &*arena : nullptr);
      } else if (arena) {
        store = std::make_unique<ArenaCheckpointStore>(*arena);
      } else {
        store = std::make_unique<model::DeviceCheckpointStore>(&cache);
      }

      // --- model + engine ---
      model::GptSession session;
      session.device = &cache;
      session.checkpoints = store.get();
      session.mp = options.cluster.mp_degree > 1 ? &mp : nullptr;
      model::GptConfig model_cfg = options.model;
      model_cfg.activation_checkpointing =
          options.zero_r.activation_checkpointing;
      model::GptModel gpt(model_cfg, session);

      ZeroDpEngine engine(options.engine, gpt, dp, &cache, options.seed,
                          &host_mem);

      // One shared language (table seed); each DP column reads its own
      // shard (stream seed). MP ranks in a column must see identical
      // batches, so only the DP rank enters the stream seed.
      model::MarkovCorpus corpus(options.model.vocab,
                                 options.corpus_branching, options.seed,
                                 static_cast<std::uint64_t>(dp.rank()));

      if (ctx.rank == 0) {
        std::lock_guard<std::mutex> lock(result_mutex);
        result.psi = engine.partitioner().total();
        result.padded_psi = engine.partitioner().padded_total();
      }

      std::vector<float> local_validation;
      // Steady-state comm accounting: step 0 is warm-up (stage 3's first
      // step materializes cold caches), so the delta is rebased after it
      // and the report divides by the remaining steps.
      comm::CommDelta dp_delta(dp);
      std::optional<comm::CommDelta> local_delta;
      if (engine.local_comm() != nullptr) {
        local_delta.emplace(*engine.local_comm());
      }
      double wire_int8_base =
          obs::Metrics().counter("comm.wire.int8_bytes").value();
      double wire_scale_base =
          obs::Metrics().counter("comm.wire.scale_bytes").value();
      int steps_measured = 0;
      std::vector<std::string> local_snapshots;
      for (int s = 0; s < options.steps; ++s) {
        model::Batch batch =
            corpus.NextBatch(options.batch_per_rank, options.model.seq);
        local_losses[static_cast<std::size_t>(s)] = engine.TrainStep(batch);
        if (s == 0 && options.steps > 1) {
          dp_delta.Rebase();
          if (local_delta.has_value()) local_delta->Rebase();
          wire_int8_base =
              obs::Metrics().counter("comm.wire.int8_bytes").value();
          wire_scale_base =
              obs::Metrics().counter("comm.wire.scale_bytes").value();
        } else {
          ++steps_measured;
        }
        if (ctx.rank == 0 && (telemetry.enabled || flight_armed)) {
          std::string snapshot = obs::Metrics().SnapshotJson();
          if (flight_armed) obs::FlightRecorderStepSnapshot(s, snapshot);
          if (telemetry.enabled) {
            local_snapshots.push_back(std::move(snapshot));
          }
        }
        if (options.engine.checkpoint_every_n_steps > 0 &&
            (s + 1) % options.engine.checkpoint_every_n_steps == 0) {
          // Collective: every rank re-assembles the Nd-independent state;
          // rank 0 persists it (latest wins). Covers the DP dimension
          // only — elastic resume under MP > 1 is an open item.
          TRACE_SPAN("fault/checkpoint");
          TrainingState ckpt = engine.ExportState();
          if (ctx.rank == 0 && !options.engine.checkpoint_path.empty()) {
            ckpt.SaveToFile(options.engine.checkpoint_path);
          }
        }
        if (options.eval_every > 0 && (s + 1) % options.eval_every == 0) {
          // Identical validation stream on every rank (collective under
          // stage 3, so all ranks must participate regardless).
          model::MarkovCorpus validation(options.model.vocab,
                                         options.corpus_branching,
                                         options.seed, /*stream=*/999983);
          double val = 0;
          for (int k = 0; k < options.eval_batches; ++k) {
            val += engine.EvalLoss(validation.NextBatch(
                options.batch_per_rank, options.model.seq));
          }
          local_validation.push_back(
              static_cast<float>(val / options.eval_batches));
        }
      }
      metrics.model_states = engine.MeasureModelStates();
      if (ctx.rank == 0) {
        std::lock_guard<std::mutex> lock(result_mutex);
        result.validation_losses = std::move(local_validation);
        report_in.measured_state_bytes =
            static_cast<double>(metrics.model_states.total());
        report_in.measured_comm_bytes =
            static_cast<double>(dp_delta.Delta().bytes_sent);
        if (local_delta.has_value()) {
          report_in.measured_local_comm_bytes =
              static_cast<double>(local_delta->Delta().bytes_sent);
        }
        report_in.wire_int8_bytes =
            obs::Metrics().counter("comm.wire.int8_bytes").value() -
            wire_int8_base;
        report_in.wire_scale_bytes =
            obs::Metrics().counter("comm.wire.scale_bytes").value() -
            wire_scale_base;
        report_in.qwz = engine.qwz_active();
        report_in.hpz = engine.hpz_active();
        report_in.qgz = engine.qgz_active();
        if (options.engine.prefetch_lookahead > 0) {
          report_in.overlap_frac =
              obs::Metrics().gauge("comm.overlap_frac").value();
        }
        if (options.engine.offload_tier != alloc::TierKind::kDevice) {
          report_in.offload_tier =
              alloc::TierKindName(options.engine.offload_tier);
          const alloc::HostStats hs = host_mem.Stats();
          report_in.host_in_use_bytes = static_cast<double>(hs.in_use);
          report_in.host_peak_bytes = static_cast<double>(hs.peak_in_use);
          if (const alloc::ChannelStats* cs =
                  engine.offload_channel_stats()) {
            report_in.offload_bytes_to_tier =
                static_cast<double>(cs->bytes_to_tier);
            report_in.offload_bytes_to_device =
                static_cast<double>(cs->bytes_to_device);
            report_in.offload_hidden_frac = cs->hidden_fraction();
          }
        }
        report_in.steps = steps_measured;
        step_metric_snapshots = std::move(local_snapshots);
      }
    } catch (const DeviceOomError& e) {
      // Experiment configs are symmetric across ranks, so every rank hits
      // the same OOM at the same point; record it instead of crashing.
      rank_oom = true;
      oom_message = e.what();
    }

    metrics.cache = cache.Stats();
    metrics.device = device_mem.Stats();
    metrics.host = host_mem.Stats();
    metrics.dp_comm = dp.stats();
    metrics.mp_comm = mp.stats();

    std::lock_guard<std::mutex> lock(result_mutex);
    result.ranks[static_cast<std::size_t>(ctx.rank)] = metrics;
    if (rank_oom && !result.oom) {
      result.oom = true;
      result.oom_message = oom_message;
    }
    if (!rank_oom && grid.MpRank(ctx.rank) == 0) {
      rank_losses[static_cast<std::size_t>(ctx.rank)] =
          std::move(local_losses);
    }
  });

  // Average losses over the DP group (MP ranks share the same loss).
  for (const std::vector<float>& losses : rank_losses) {
    for (std::size_t s = 0; s < losses.size(); ++s) {
      result.losses[s] +=
          losses[s] / static_cast<float>(options.cluster.dp_degree);
    }
  }

  if (!run.ok()) {
    // Injected faults and comm failures are expected outcomes of a
    // fault-injection run: report them. Anything else is a real bug and
    // keeps the old throwing behavior.
    const std::exception_ptr root = run.RootCause();
    bool fault_like = false;
    std::string message = "unknown failure";
    try {
      std::rethrow_exception(root);
    } catch (const InjectedFaultError& e) {
      fault_like = true;
      message = e.what();
    } catch (const CommError& e) {
      fault_like = true;
      message = e.what();
    } catch (...) {
    }
    if (!fault_like) {
      if (flight_armed) obs::DisableFlightRecorder();
      if (flight_owns_tracing) obs::DisableTracing();
      std::rethrow_exception(root);
    }
    result.failed = true;
    result.failure_message = message;
    result.losses.clear();
    // Abort cascade epilogue: all rank threads have joined, so the rings
    // are stable — flush the black box before anything resets it.
    if (flight_armed) {
      result.postmortem_dir = obs::FlushFlightRecorder(message);
    }
  }
  if (flight_armed) obs::DisableFlightRecorder();
  if (flight_owns_tracing) obs::DisableTracing();

  if (result.oom) result.losses.clear();

  if (telemetry.enabled) {
    obs::DisableTracing();
    // Merged cross-rank view: built once, feeds both the trace artifact
    // and the critical-path anatomy in the report.
    const obs::Timeline timeline = obs::BuildTimeline(obs::CollectEvents());
    if (!telemetry.trace_path.empty()) {
      obs::WriteTextFile(telemetry.trace_path, obs::ChromeTraceJson(timeline));
    }
    if (!telemetry.metrics_path.empty() && !step_metric_snapshots.empty()) {
      std::string text = "[\n";
      for (std::size_t i = 0; i < step_metric_snapshots.size(); ++i) {
        text += step_metric_snapshots[i];
        if (i + 1 < step_metric_snapshots.size()) text += ",";
        text += "\n";
      }
      text += "]\n";
      obs::WriteTextFile(telemetry.metrics_path, text);
    }
    if (!result.oom && report_in.steps > 0) {
      report_in.psi = static_cast<double>(result.psi);
      report_in.padded_psi = static_cast<double>(result.padded_psi);
      report_in.trace_dropped_events =
          static_cast<double>(timeline.dropped_events);
      // Step anatomy: same warm-up convention as the comm ledger — drop
      // step 0 from the averages when more than one step was traced.
      const std::vector<obs::StepAnatomy> anatomy =
          obs::AnalyzeSteps(timeline);
      const obs::AnatomySummary summary =
          obs::SummarizeAnatomy(anatomy, anatomy.size() > 1 ? 1 : 0);
      report_in.anatomy_steps = summary.steps;
      report_in.straggler_rank = summary.straggler_rank;
      report_in.straggler_steps = summary.straggler_steps;
      for (const obs::RankAggregate& ra : summary.ranks) {
        obs::StepReportInputs::RankAnatomy a;
        a.rank = ra.rank;
        a.step_ms = ra.step_ms;
        a.compute_ms = ra.compute_ms;
        a.comm_ms = ra.comm_ms;
        a.stall_ms = ra.stall_ms;
        a.offload_ms = ra.offload_ms;
        a.critical_ms = ra.critical_ms;
        if (options.engine.prefetch_lookahead > 0) {
          a.overlap_frac =
              obs::Metrics()
                  .gauge("comm.overlap_frac.rank" + std::to_string(ra.rank))
                  .value();
        }
        report_in.anatomy_ranks.push_back(a);
      }
      obs::StepReport report = obs::BuildStepReport(report_in);
      if (telemetry.validate) {
        ZLOG_INFO << "step report: " << report.Summary();
        for (const std::string& d : report.divergences) {
          ZLOG_WARN << "paper-equation divergence: " << d;
        }
      }
      if (!telemetry.report_path.empty()) {
        obs::WriteTextFile(telemetry.report_path, report.ToJson() + "\n");
      }
      result.report = std::move(report);
    }
  }
  return result;
}

}  // namespace zero::core
