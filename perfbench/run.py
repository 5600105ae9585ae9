#!/usr/bin/env python3
"""Builds and runs the DRAM-Locker simulator benchmark.

    python3 perfbench/run.py --workload bfa|serve|chaos|hammer \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the perfbench/ CMake package (the
library from src/ plus the benchmark driver) into .bench_build/perfbench,
runs the driver with DL_THREADS=2, and echoes its output.  The last line of
standard output is the JSON result.  When the build or the run fails, the
script exits non-zero without printing a result line.  With --trace 1 the
Chrome trace is written to .bench_build/perfbench/trace-<workload>-<seed>.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("bfa", "serve", "chaos", "hammer")
THREADS = "2"
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                break
        else:
            return True
    if not (BUILD / "perfbench").exists():
        # A failed first configure leaves a cache that would skip it next time.
        (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
    sys.stderr.write(log_path.read_text()[-4000:])
    sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
    return False


def run(args):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD / ("trace-%s-%d.json" % (args.workload, args.seed)))]
    env = dict(os.environ, DL_THREADS=THREADS)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: exited with %d\n" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: last output line is not a result\n")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
