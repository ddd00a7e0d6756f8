#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload serve|moda4|train1 --seed N \\
        --seconds S --trace 0|1

Builds the libraries and the benchmark program from source into
.bench_build/perfbench under the checkout root, runs one workload and prints
its JSON result as the last line of standard output. Exits non-zero without
a result when the build, the run or its output fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "bgl_perfbench")
WORKLOADS = ("serve", "moda4", "train1")
BUILD_TIMEOUT_S = 800
RUN_OVERHEAD_S = 100  # set-up, output checks and teardown beyond --seconds
MODA_RANKS = 4  # rank threads of the moda4 workload (train.cpp)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout, env=None):
    """Runs cmd to completion (killed and reaped on timeout); returns it."""
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bgl_perfbench",
                  "-j", str(jobs)])
    for cmd in steps:
        done = call(cmd, BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    build()
    # The program runs with its defaults whatever the caller's environment
    # holds, with two exceptions. moda4's four rank threads split the cores
    # between them rather than each starting a pool as wide as the host.
    # serve's one-row decode kernels are too small to split: four lanes
    # served about 5% faster than one, and waiting on helper lanes on a
    # shared host more than doubled the run-to-run spread of throughput.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BGL_")}
    cores = len(os.sched_getaffinity(0))
    lanes = {"moda4": max(1, cores // MODA_RANKS), "serve": 1}
    if args.workload in lanes:
        env["BGL_THREADS"] = str(lanes[args.workload])
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = call(cmd, args.seconds + RUN_OVERHEAD_S, env)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {done.returncode}")
    for line in lines[:-1]:
        print(line)

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        fail(f"metrics {got} do not match BENCHMARK.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
