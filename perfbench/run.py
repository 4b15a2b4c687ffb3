#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
runtime from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only re-check the build. The
benchmark's own lines go to stdout and its last line is the JSON result,
checked here against the metric names and units in BENCHMARK.json.
Build output goes to stderr. The exit code is nonzero when the build,
an output check or the result's shape fails.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"runtime sources not found under {ROOT / 'src'}", 2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    for target in targets:
        run_step(["cmake", "--build", str(out), "--target", target,
                  "-j", jobs])
    return out


def run_step(cmd):
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                         timeout=BUILD_TIMEOUT_S, check=False)
    if res.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}", 2)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def check_result(line, trace):
    """Returns a list of problems with the result line's shape."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"unexpected keys {sorted(res)}")
        return problems
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not a finite number")
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name} unit {m.get('unit')} != {want[name]}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark helpers")
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("ZERO_"))
    if knobs:
        fail(f"refusing to run with ZERO_* variables set: {' '.join(knobs)}",
             2)

    if args.selftest:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.run([str(out / "perfbench_tests")],
                                check=False).returncode)

    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    out = build(["perfbench"])
    scratch = out / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
           "--trace", str(args.trace), "--scratch", str(scratch)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0 and not lines[-1].startswith("{"):
        sys.stdout.write(res.stdout)
        fail(f"benchmark exited with code {res.returncode}")
    problems = check_result(lines[-1], args.trace == 1)
    for line in lines[:-1]:
        print(line)
    for p in problems:
        print(f"# RESULT SHAPE: {p}")
    print(lines[-1])
    if res.returncode != 0 or problems:
        sys.exit(1)


if __name__ == "__main__":
    main()
