#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md in this directory).

Run from the root of a checkout:

    python3 e2ebench/run.py --workload <train|serve_stream> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is compiled from this checkout's sources into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); the first run
builds, later runs only check that the build is current. Every run first
executes the benchmark's self-tests. The last line of standard output is
the result JSON of the benchmark binary.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "serve_stream")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    return proc.returncode == 0


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], timeout=300):
            return False
    return run_quiet(["cmake", "--build", build_dir, "-j",
                      str(min(4, os.cpu_count() or 1))], timeout=840)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ehna.h")):
        log(f"library sources not found under {ROOT}/src; "
            "run from a full checkout")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "e2ebench")
    if not build(build_dir):
        log("build failed")
        return 3
    if not run_quiet([os.path.join(build_dir, "e2e_selftest")], timeout=60):
        log("self-tests failed; refusing to measure")
        return 4

    cmd = [os.path.join(build_dir, "ehna_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=170, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 5
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
