#!/usr/bin/env python3
"""Build perfbench from source and run one workload of the served benchmark.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. The harness is built with CMake into
.bench_build/perfbench (the first run compiles the repository's libraries).
The last line of standard output is the result object; with --trace 1 a
Chrome trace-event file of the traced replay is written under
.bench_build/traces/. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper_sweep", "spec_unique", "spec_repeat")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", help="frozen list to run instead of the workload's own")
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    list_path = args.list or os.path.join(HERE, "lists", args.workload + ".json")
    cmd = [os.path.join(BUILD, "perfbench"), "run", "--list", os.path.abspath(list_path),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           # Relative to ROOT: unix socket paths are limited to 107 bytes.
           "--socket", os.path.join(".bench_build", "perfbench.sock")]
    if args.trace:
        traces = os.path.join(BUILD, "..", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
