#!/usr/bin/env python3
"""Entry point of the ddtr benchmark.

    python3 perfbench/run.py --workload cold_serial --seed 0 --seconds 50 --trace 0

Run from the repository root. Builds the product and the driver from
source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs the self-test of the
benchmark's arithmetic, then runs one measurement with the driver
(perfbench/main.cc). With --trace 1 the trace the driver writes is
validated with `ddtr tracecheck`, and a failed validation makes the run
incorrect. The last line of standard output is the driver's JSON result.
Build output and diagnostics go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold_serial", "warm_replay")
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 110


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 1


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                     BUILD_TIMEOUT_S) != 0:
            return False
    if run_quiet(["cmake", "--build", build_dir, "-j", jobs],
                 BUILD_TIMEOUT_S) != 0:
        return False
    return run_quiet([os.path.join(build_dir, "bench_math_test")], 60) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1

    tag = f"{args.workload}-{args.seed}"
    trace_out = os.path.join(build_dir, f"trace-{tag}.json")
    cmd = [os.path.join(build_dir, "ddtr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, f"work-{tag}-{os.getpid()}"),
           "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"driver failed with exit code {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("driver printed no result")
        return 1
    for line in lines[:-1]:
        print(line)

    if args.trace:
        ddtr = os.path.join(build_dir, "ddtr", "ddtr")
        if run_quiet([ddtr, "tracecheck", trace_out], 60) == 0:
            print(f"ddtr tracecheck: ok ({os.path.relpath(trace_out, ROOT)})")
        else:
            print("ddtr tracecheck: FAILED")
            result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
