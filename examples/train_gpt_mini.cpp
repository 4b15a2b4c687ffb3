// Full training run: a GPT-mini language model on a synthetic corpus
// with every ZeRO knob exposed on the command line.
//
//   train_gpt_mini [stage 0-3] [dp] [mp] [steps]
//
// Prints a loss curve, final perplexity, and the per-rank memory and
// communication report that a real ZeRO user would read after a run.
// The ZERO_* training knobs apply through core::ApplyEnv (README,
// "Environment knobs"); a malformed value exits 2 naming the variable.
// With ZERO_TRACE=/path/trace.json set, the run also emits a Chrome
// trace, a per-step metrics dump, and a step report validating the
// paper's memory/communication equations against the measured run.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/env.hpp"
#include "common/error.hpp"
#include "core/trainer.hpp"
#include "obs/telemetry.hpp"

namespace {

int Run(int argc, char** argv) {
  using namespace zero;

  const int stage_arg = argc > 1 ? std::atoi(argv[1]) : 2;
  const int dp = argc > 2 ? std::atoi(argv[2]) : 4;
  const int mp = argc > 3 ? std::atoi(argv[3]) : 1;
  const int steps = argc > 4 ? std::atoi(argv[4]) : 60;

  core::TrainOptions options;
  options.model.vocab = 48;
  options.model.seq = 16;
  options.model.hidden = 32;
  options.model.layers = 3;
  options.model.heads = 4;
  options.engine.stage = static_cast<model::ZeroStage>(stage_arg);
  options.engine.adam.lr = 3e-3f;
  options.cluster.dp_degree = dp;
  options.cluster.mp_degree = mp;
  options.batch_per_rank = 4;
  options.steps = steps;
  options.corpus_branching = 2;
  options.zero_r.activation_checkpointing = true;
  options.zero_r.partition_activations = mp > 1;
  // ZERO_CKPT=/path/ckpt.bin writes a full-state checkpoint at the end
  // of the run (and every 10 steps) that serve_gpt_mini loads directly.
  if (auto ckpt = EnvString("ZERO_CKPT")) {
    options.engine.checkpoint_path = *ckpt;
    options.engine.checkpoint_every_n_steps = steps < 10 ? steps : 10;
  }
  core::ApplyEnv(options.engine);

  std::printf("training GPT-mini: stage %d, dp=%d, mp=%d, %d steps\n",
              stage_arg, dp, mp, steps);
  const core::TrainResult result = core::TrainGpt(options);
  if (result.oom) {
    std::printf("OOM: %s\n", result.oom_message.c_str());
    return 1;
  }
  if (result.failed) {
    std::printf("run killed by fault: %s\n", result.failure_message.c_str());
    if (!result.postmortem_dir.empty()) {
      std::printf("post-mortem bundle: %s (see manifest.json)\n",
                  result.postmortem_dir.c_str());
    }
    return 1;
  }

  for (std::size_t s = 0; s < result.losses.size(); s += 10) {
    std::printf("  step %3zu  loss %.4f  ppl %.2f\n", s, result.losses[s],
                std::exp(result.losses[s]));
  }
  std::printf("  final    loss %.4f  ppl %.2f\n", result.losses.back(),
              std::exp(result.losses.back()));

  const core::RankMetrics& r0 = result.ranks[0];
  std::printf("\nper-rank report (rank 0 of %zu):\n", result.ranks.size());
  std::printf("  model states: params %.1f KB, grads %.1f KB, optimizer %.1f KB\n",
              r0.model_states.param_bytes / 1e3,
              r0.model_states.grad_bytes / 1e3,
              r0.model_states.optimizer_bytes / 1e3);
  std::printf("  peak cached device memory: %.1f KB\n",
              static_cast<double>(r0.cache.peak_cached) / 1e3);
  std::printf("  DP traffic: %.1f KB sent, MP traffic: %.1f KB sent\n",
              static_cast<double>(r0.dp_comm.bytes_sent) / 1e3,
              static_cast<double>(r0.mp_comm.bytes_sent) / 1e3);

  obs::TelemetryOptions telemetry = options.engine.telemetry;
  if (telemetry.enabled) {
    telemetry.ResolvePaths();
    std::printf("\ntelemetry artifacts:\n");
    std::printf("  trace   %s  (merged cross-rank timeline; load in "
                "ui.perfetto.dev)\n",
                telemetry.trace_path.c_str());
    std::printf("  metrics %s\n", telemetry.metrics_path.c_str());
    std::printf("  report  %s\n", telemetry.report_path.c_str());
    if (result.report.has_value()) {
      std::printf("  %s\n", result.report->Summary().c_str());
      const obs::StepReportInputs& in = result.report->inputs;
      if (in.anatomy_steps > 0 && in.straggler_rank >= 0) {
        std::printf("  anatomy: straggler rank %d on %d/%d measured steps\n",
                    in.straggler_rank, in.straggler_steps, in.anatomy_steps);
      }
    }
  } else {
    std::printf("\n(set ZERO_TRACE=/tmp/trace.json to record a Chrome trace "
                "and paper-equation report)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const zero::ConfigError& e) {
    std::fprintf(stderr, "train_gpt_mini: %s\n", e.what());
    return 2;
  }
}
