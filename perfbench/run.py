#!/usr/bin/env python3
"""Builds the GRANITE benchmark program from this checkout and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and the benchmark program (perfbench/CMakeLists.txt) into the directory
named by $CARGO_TARGET_DIR, default `.bench_build`; later runs rebuild
only what changed. Build output goes to standard error, so the JSON
result stays the last line of standard output.

An untraced run measures the workload in WORKERS worker processes, one
after another, each on its own share of the inputs (worker k of seed N
uses seed WORKERS * N + k) and S / WORKERS seconds of work, and combines
their figures: setup_s is the median over the workers (one set-up each),
every other metric the mean. The speed and the peak memory of one process
on the reference host vary by about +-10% from process to process (see
README.md), so one process per run would make runs disagree by that much.
A traced run is a single process (see src/main.cc).

Each worker's scratch files live in a fresh directory under the build
directory and are removed afterwards.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKERS = 3
# The whole run must end well inside 180 s; anything near this is hung.
RUN_TIMEOUT_S = 170
MEDIAN_METRICS = ("setup_s",)


def build(build_dir):
    """Configures (once) and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_worker(binary, build_root, workload, seed, seconds, trace, deadline):
    """Runs one benchmark process; returns its parsed JSON result."""
    workdir = tempfile.mkdtemp(prefix="run-", dir=build_root)
    try:
        result = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds), "--trace", str(trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result.returncode != 0:
        sys.exit("perfbench: worker exited with %d" % result.returncode)
    lines = result.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: worker printed no result")
    return json.loads(lines[-1])


def combine(parts):
    """One result from the workers' results (see the module docstring)."""
    metrics = {}
    for name, first in parts[0]["metrics"].items():
        values = [part["metrics"][name]["value"] for part in parts]
        combine_values = (statistics.median if name in MEDIAN_METRICS
                          else statistics.fmean)
        metrics[name] = {"value": combine_values(values),
                         "unit": first["unit"]}
    return {
        "correct": all(part["correct"] for part in parts),
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no GRANITE source tree (CMakeLists.txt, src/) "
                 "next to perfbench/; nothing to build")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except subprocess.CalledProcessError as error:
        sys.exit("perfbench: build failed: %s" % error)
    # The first run's build may take long; the run limit starts after it.
    deadline = time.monotonic() + RUN_TIMEOUT_S

    try:
        if args.trace:
            result = run_worker(binary, build_root, args.workload, args.seed,
                                args.seconds, 1, deadline)
        else:
            result = combine([
                run_worker(binary, build_root, args.workload,
                           WORKERS * args.seed + k, args.seconds / WORKERS,
                           0, deadline)
                for k in range(WORKERS)])
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
