#!/usr/bin/env python3
"""Builds the SSB benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot-cs --seed 7 --seconds 10 --trace 0

The benchmark is configured into .bench_build/ (CMake + Ninja, Release) and
rebuilt incrementally on every call; the first call compiles the whole
engine. Build output goes to stderr. The last line of stdout is the run's
JSON result (see perfbench/README.md). With --trace 1 the recorded spans
are written to .bench_build/traces/<workload>-seed<seed>.jsonl.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["hot-cs", "cold-io", "mixed-rw", "concurrent-shared"]
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one workload of the SSB benchmark (builds it first).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated data and mutation stream")
    parser.add_argument("--seconds", type=int, default=10,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: print per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in [1, 3600]")
    return args


def build():
    """Configures (once) and builds ssb_bench; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "ssb_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "ssb_bench")


def main(argv):
    args = parse_args(argv)
    binary = build()
    if binary is None:
        print("perfbench/run.py: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
