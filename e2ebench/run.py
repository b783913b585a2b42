#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark (see README.md).

    python3 e2ebench/run.py --workload xmark-serve --seed 1 --seconds 30 \
        --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. The benchmark builds the library from ../src
together with e2e_bench.cc into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench), Release only. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. `--workload all` runs
the three workloads one after another and prints a table of the end-to-end
metrics with their units, fail_ratio included.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["xmark-serve", "xmark-adhoc", "member-twig"]
# A run measures for --seconds; generating inputs, references, set-up and
# the traced probe come on top (under 10 s at the sizes used).
RUN_OVERHEAD_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds e2e_bench; returns the binary's path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "e2ebench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "e2e_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log("e2ebench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "e2e_bench")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + RUN_OVERHEAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: {workload} timed out")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1

    if args.workload != "all":
        code, lines = run_one(binary, args.workload, args.seed, args.seconds,
                              args.trace)
        if code != 0 or not lines:
            log(f"e2ebench: {args.workload} exited with {code}")
            return code or 1
        print("\n".join(lines), flush=True)
        return 0

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        code, lines = run_one(binary, workload, args.seed, args.seconds,
                              args.trace)
        if code != 0 or not lines:
            log(f"e2ebench: {workload} exited with {code}")
            return code or 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        ratio = result["failed"] / result["attempted"]
        rows = list(result["metrics"].items())
        rows.append(("fail_ratio", {"value": ratio, "unit": "ratio"}))
        for name, m in rows:
            print(f"{workload:12s} {name:28s} {m['value']:14.6g} {m['unit']}")
            metrics[f"{workload}.{name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
