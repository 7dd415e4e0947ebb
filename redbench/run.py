#!/usr/bin/env python3
"""Builds redbench from this checkout's sources and runs one workload.

    python3 redbench/run.py --workload calm|loss|qr|async --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds a
Release binary under .bench_build/redbench (later runs only re-check it).
--trace 1 also writes the span trace to .bench_build/traces/, as Chrome
trace-event JSON that Perfetto opens. The last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}; the build log goes to
stderr. Exits non-zero, printing no result, when the library sources are
missing, the build fails, or the binary does not produce a valid result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "redbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"redbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "engine_sync.hpp")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "redbench")


def valid_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and all(set(m) == {"value", "unit"} for m in result["metrics"].values()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        fail(f"benchmark binary exited with {proc.returncode} and no valid result")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
