#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark: builds it, runs one workload.

    python3 perfbench/run.py --workload revisit --seed 1 --seconds 10 --trace 0

Run from the repository root (any checkout of it). The first run configures
and builds the repository's libraries plus sarbp_perfbench into .bench_build/
(CMake, Release, the repository's own flags); later runs rebuild only what
changed. Its output is passed through, and its result object is
re-printed, validated, as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md). The exit code is non-zero, with no
result printed, when the build fails or sarbp_perfbench crashes; it is non-zero
with correct=false when an image check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "sarbp")
BINARY = os.path.join(BUILD_DIR, "sarbp_perfbench")
WORKLOADS = ("revisit", "survey", "stream", "survey_sharded")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# sarbp_perfbench exits well inside this; a run must end within 180 s.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds the sarbp_perfbench target. True on success."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append([
            "cmake", "-S", ROOT, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
            "-DCMAKE_PROJECT_sarbp_INCLUDE=" + os.path.join(HERE, "hook.cmake"),
        ])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sarbp_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as failed:
                    tail = failed.read().splitlines()[-20:]
                print("run.py: build failed (%s):" % log_path, file=sys.stderr)
                print("\n".join(tail), file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out",
           os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout or b""
        sys.stdout.write(partial.decode() if isinstance(partial, bytes) else partial)
        print("run.py: sarbp_perfbench did not finish in %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        print("run.py: sarbp_perfbench printed no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 4
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
