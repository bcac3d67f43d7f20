#!/usr/bin/env python3
"""Builds the world->report benchmark from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload cold-88k|churn-9k \
      [--seed N] [--seconds S] [--trace 0|1]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and its output to stderr, so the last line of stdout is the benchmark's JSON
result. With --trace 1 the spans are written next to the build, one JSON
object per line. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("cold-88k", "churn-9k")
# A run must end within 180 s; stop a stuck one before that.
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base.resolve() / "perfbench"


def build(directory):
    if not (directory / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(directory),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(directory), "--target",
                    "perfbench", "-j", "4"], check=True, stdout=sys.stderr)
    return directory / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    # BENCHMARK.json's run_seconds, the length its bounds were set on.
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    directory = build_dir()
    try:
        binary = build(directory)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        spans = directory / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans",
                    str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
