#!/usr/bin/env python3
"""Build and run the spdag benchmark: one workload per process.

    python3 perfbench/run.py --workload fanin --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library (Release, default options) and the benchmark into .bench_build/;
later calls only let the build tool confirm it is up to date. Traced runs
(--trace 1) write their spans to .bench_out/. The last stdout line is the
benchmark's result object; the exit code is the benchmark's.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("fanin", "fib", "futures", "service")
RUN_TIMEOUT_S = 170


def build(target):
    """Configures once and builds `target`; build output goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run(cmd):
    """Runs the benchmark binary, passing its stdout through; its exit code."""
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own self-tests")
    a = p.parse_args()
    if a.selftest:
        if not build("perfbench_selftest"):
            return 2
        return run([os.path.join(BUILD, "perfbench_selftest")])
    if a.workload is None:
        p.error("--workload is required")
    if not build("perfbench"):
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", repr(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT, "spans-%s-seed%d.json" % (a.workload, a.seed))]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
