#!/usr/bin/env bash
# CI entry point: release build + tests, the comm suite under
# AddressSanitizer + UBSan, then the whole suite again under
# ThreadSanitizer. The runtime is thread-per-rank SPMD over mailboxes, so
# TSan is the check that actually matters for the comm layer — in
# particular the nonblocking request path that overlaps stage-2 gradient
# reduction with backward.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

echo "==> release: configure + build + ctest"
cmake --preset release >/dev/null
cmake --build --preset release -j "${JOBS}"
ctest --preset release -j "${JOBS}"

echo "==> bench: kernel perf gate (release build)"
# Writes BENCH_kernels.json and fails on >25% regression against the
# checked-in baseline, or if the packed-GEMM (3x) / fp16-decode (5x)
# speedup floors over the seed kernels are missed. ZERO_BENCH_RELAX=1
# downgrades failures to warnings on throttled machines.
./build/bench/kernel_perf BENCH_kernels.json bench/kernels_baseline.json

echo "==> bench: telemetry overhead gate (release build)"
# Proves the always-compiled-in trace spans cost <2% of a training step
# while disabled; writes BENCH_telemetry.json. Same ZERO_BENCH_RELAX=1
# escape hatch as the kernel gate.
./build/bench/telemetry_overhead BENCH_telemetry.json

echo "==> bench: fault detection + recovery characterization (release build)"
# Measures hang-detection latency against the heartbeat deadline and
# recovery wall time vs checkpoint interval; writes BENCH_fault.json and
# fails if any recovery trial does not complete.
./build/bench/fault_recovery BENCH_fault.json

echo "==> bench: stage-3 prefetch overlap gate (release build)"
# Blocking vs prefetched parameter gathers at lookahead {0,1,2,4}:
# losses must stay bit-identical and the pipeline must hide a measured
# fraction of gather latency (comm.overlap_frac); writes
# BENCH_overlap.json. Same ZERO_BENCH_RELAX=1 escape hatch.
./build/bench/overlap_step BENCH_overlap.json

echo "==> bench: optimizer-offload streaming gate (release build)"
# In-device vs host/NVMe-tiered fp32 optimizer state: losses must stay
# bit-identical across every tier, the eager host pipeline must hide
# >= 50% of its link time behind compute, and the sim model must show
# offload shrinking the 1T-parameter GPU floor; writes
# BENCH_offload.json. Same ZERO_BENCH_RELAX=1 escape hatch.
./build/bench/offload_step BENCH_offload.json

echo "==> bench: ZeRO++ communication-compression gate (release build)"
# Measures per-rank stage-3 DP-fabric bytes under qwZ/hpZ/qgZ against
# exact stage 3 (Nd = 4, 2 ranks/node): the full stack must cut the
# fabric volume >= 3x; writes BENCH_zeropp.json. Same ZERO_BENCH_RELAX=1
# escape hatch.
./build/bench/comm_volume_analysis BENCH_zeropp.json

echo "==> bench: step anatomy + flight recorder gate (release build)"
# A seeded slow@rank:collective fault must be blamed on exactly that
# rank by the cross-rank critical-path analyzer on every measured step,
# and a crashed run must leave a post-mortem bundle that passes the
# strict validator; writes BENCH_anatomy.json. Same ZERO_BENCH_RELAX=1
# escape hatch.
rm -rf build/anatomy_postmortem
./build/bench/step_anatomy BENCH_anatomy.json build/anatomy_postmortem

echo "==> bench: serving load gate (release build)"
# Three gates in one binary, all on seeded deterministic traffic:
#   1. Continuous batching vs batch-of-1 on the same trainer
#      checkpoint: every request completes and the continuous config's
#      saturation throughput (tokens per virtual second) is strictly
#      higher.
#   2. Weight-precision sweep (fp32/fp16/int8 GEMM backends, serving-
#      scale model): fp16 decode throughput strictly above fp32 — the
#      pre-packed fp16 panel path must actually pay on real wall clock
#      (int8 is informational); greedy tokens per precision are
#      reported.
#   3. Prefix-cache sweep (shared tenant prompt prefixes, cache off vs
#      on): prefix-hit prefill compute strictly below cold prefill,
#      with exact token conservation (cold prefill == shared prefill +
#      adopted prefix positions, identical decode counts).
# Writes BENCH_serve.json with latency percentiles, per-precision
# decode throughput, and prefix savings. Same ZERO_BENCH_RELAX=1
# escape hatch.
./build/bench/serve_load BENCH_serve.json

echo "==> smoke: 2-rank stage-3 run with telemetry artifacts"
# End-to-end telemetry check: the run must produce a valid Chrome trace,
# a valid merged cross-rank timeline, per-step metrics, and a step
# report whose measured memory/comm match the paper equations (the
# trainer logs divergences; the report JSON's "ok" field is asserted
# below).
rm -f build/smoke_trace.json build/smoke_trace.json.metrics.json \
  build/smoke_trace.json.report.json build/smoke_trace.json.timeline.json
# ZERO_PREFETCH=2 exercises the stage-3 prefetch pipeline end to end;
# the report's paper-equation checks must still pass with it on.
ZERO_TRACE=build/smoke_trace.json ZERO_PREFETCH=2 \
  ./build/examples/train_gpt_mini 3 2 1 3
./build/bench/trace_validate build/smoke_trace.json \
  build/smoke_trace.json.timeline.json
test -s build/smoke_trace.json.metrics.json
# Top-level "ok" (indent 2) — the per-check ok fields are indented deeper.
grep -q '^  "ok": true' build/smoke_trace.json.report.json

echo "==> smoke: 2-rank stage-3 run with every ZeRO++ path on"
# Same smoke with qwZ + hpZ + qgZ engaged (2 ranks = 1 node group of 2,
# so hpZ/qgZ run their intra-node schedules end to end). The report's
# paper-equation checks are compression-aware: "ok" asserts the measured
# bytes match the *rewritten* volume, and the rewritten volume must be
# measurably below the exact run's.
rm -f build/smoke_zpp.json build/smoke_zpp.json.metrics.json \
  build/smoke_zpp.json.report.json
ZERO_TRACE=build/smoke_zpp.json ZERO_PREFETCH=2 \
  ZERO_QWZ=1 ZERO_HPZ=1 ZERO_QGZ=1 ZERO_RANKS_PER_NODE=2 \
  ./build/examples/train_gpt_mini 3 2 1 3
./build/bench/trace_validate build/smoke_zpp.json
grep -q '^  "ok": true' build/smoke_zpp.json.report.json
# Compressed DP volume strictly below the exact smoke's (python-free
# integer compare on the two reports' measured_bytes_per_step fields).
exact_bytes=$(sed -n 's/.*"measured_bytes_per_step": \([0-9]*\).*/\1/p' \
  build/smoke_trace.json.report.json)
zpp_bytes=$(sed -n 's/.*"measured_bytes_per_step": \([0-9]*\).*/\1/p' \
  build/smoke_zpp.json.report.json)
test "${zpp_bytes}" -lt "${exact_bytes}"

echo "==> smoke: fault-killed run must leave a post-mortem bundle"
# A crash on rank 1 with the heartbeat detector armed must kill the run
# (train_gpt_mini exits 1) and the flight recorder must leave a bundle
# that passes the strict post-mortem validator.
rm -rf build/smoke_postmortem
if ZERO_POSTMORTEM=build/smoke_postmortem ZERO_FAULT='crash@1:step#2' \
  ZERO_COMM_DEADLINE_MS=200 ./build/examples/train_gpt_mini 3 2 1 4; then
  echo "FAIL: faulted smoke run exited 0 (expected failure)"
  exit 1
fi
./build/bench/trace_validate --postmortem build/smoke_postmortem

echo "==> smoke: train -> checkpoint -> serve -> trace"
# The full deployment chain: train_gpt_mini writes a checkpoint via
# ZERO_CKPT, serve_gpt_mini loads it into the continuous-batching
# engine under seeded traffic, and the recorded serve trace must pass
# the strict Chrome-trace validator.
rm -f build/smoke_ckpt.bin build/smoke_serve.json
ZERO_CKPT=build/smoke_ckpt.bin ./build/examples/train_gpt_mini 2 2 1 12
test -s build/smoke_ckpt.bin
ZERO_TRACE=build/smoke_serve.json ZERO_SERVE_SEED=7 \
  ./build/examples/serve_gpt_mini build/smoke_ckpt.bin 2000 0.1 1
./build/bench/trace_validate build/smoke_serve.json
# Every offered request must complete (python-free integer compare).
serve_offered=$(sed -n 's/.*"offered": \([0-9]*\).*/\1/p' \
  build/smoke_serve.json.report.json)
serve_completed=$(sed -n 's/.*"completed": \([0-9]*\).*/\1/p' \
  build/smoke_serve.json.report.json)
test "${serve_offered}" -gt 100
test "${serve_completed}" -eq "${serve_offered}"

echo "==> asan: comm suite under AddressSanitizer + UBSan"
# The ring machines, the p2p request layer and the qwZ wire format under
# the asan preset. halt_on_error makes the first UBSan report fail the
# run (ASan already aborts on its first report).
cmake --preset asan >/dev/null
cmake --build --preset asan --target test_comm -j "${JOBS}"
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 ./build-asan/tests/test_comm

echo "==> tsan: configure + build + ctest"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "${JOBS}"
ctest --preset tsan -j "${JOBS}"

echo "==> tsan: extra chaos soak (fresh seeds)"
# The default chaos seeds already ran inside ctest above; this pass
# throws a second, disjoint seed set at the trainer under TSan. Any
# failure reproduces with ZERO_CHAOS_SEEDS=<seed> on test_fault.
ZERO_CHAOS_SEEDS=101,202,303 ./build-tsan/tests/test_fault \
  --gtest_filter='ChaosTest.*'

echo "CI OK"
