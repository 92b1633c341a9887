#!/usr/bin/env python3
"""Builds and runs the NecoFuzz campaign benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload intel-bf --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the library it links)
into .bench_build/perfbench; later runs only re-check the build. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. The benchmark's temporary state lives under .bench_build/work-<pid>
and is removed before this script exits.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
# Leaves room under a 180 s limit for the build check and cleanup.
RUN_TIMEOUT_S = 170


def build(bench_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(BINARY):
        steps.append(["cmake", "-S", bench_dir, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "campaign_bench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                check=False)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return 1
    if not build(bench_dir):
        return 1

    work_dir = os.path.join(".bench_build", "work-%d" % os.getpid())
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    if result.returncode != 0 or not lines:
        print("perfbench: benchmark failed with code %d" % result.returncode,
              file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
