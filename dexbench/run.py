#!/usr/bin/env python3
"""Builds and runs the dex benchmark for one workload.

Run from the root of a checkout:

    python3 dexbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

It builds the dexbench program (and the dex sources it links) with CMake into
$CARGO_TARGET_DIR/dexbench (default .bench_build/dexbench), runs its
self-test, generates the seeded repository, replays it on the
reference database, then measures. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore", "sweep", "ingest")
# Generation and reference replay are outside the measured time but inside
# the per-run limit; the measuring loop itself stops by 120 s.
STEP_TIMEOUT_S = 170


def fail(message):
    print(f"dexbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "dexbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "dexbench")


def step(cmd, capture=False):
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=sys.stderr, text=True,
                              timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: " + " ".join(cmd))
    return done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = build_root()
    bench = build(os.path.join(root, "dexbench"))
    step([bench, "selftest"])

    work = os.path.join(root, "dexbench-work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(root, "dexbench-out")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", work]
    try:
        os.makedirs(work, exist_ok=True)
        step([bench, "gen"] + common)
        # Write the generated repository back now, not while measuring.
        os.sync()
        step([bench, "ref"] + common)
        run = [bench, "run"] + common + ["--seconds", str(args.seconds),
                                          "--trace", str(args.trace)]
        if args.trace:
            run += ["--spans", os.path.join(
                out_dir, f"spans-{args.workload}-{args.seed}.json")]
        out = step(run, capture=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
