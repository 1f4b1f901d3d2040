#!/usr/bin/env python3
"""Build and run the wbsim benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid_sweep --seed 1 \
        --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles ../src) into
.bench_build/ at the repository root, then runs one workload. Build
output goes to stderr; the benchmark's own output, ending in one JSON
line, goes to stdout. The exit code is the benchmark's: non-zero on a
failed build or on any correctness mismatch.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("grid_sweep", "mc_bus", "served_mix")


def build():
    """Configure once, then (re)build wbsim_bench; False on failure."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "wbsim_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    spans = os.path.join(
        BUILD, "spans-%s-seed%d.json" % (args.workload, args.seed))
    command = [
        os.path.join(BUILD, "wbsim_bench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%d" % args.seconds,
        "--trace=%d" % args.trace,
        "--digests=" + os.path.join(HERE, "digests.txt"),
        "--spans-out=" + spans,
    ]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
