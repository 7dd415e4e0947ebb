#!/usr/bin/env python3
"""Self-test: two runs of one seed must report identical counts.

    python3 redbench/selftest.py [--seed N] [workload ...]

Runs each workload (all four by default) twice with the same seed through
redbench/run.py, once untraced and once traced, and compares their counts
line (rounds_per_op, wire_bytes_per_node, failed_share and the per-op
delivery, drop, event and reduction counts) byte for byte. Counts cover the
workload's fixed leading operations, so they must not depend on run speed or
on tracing. Exits 0 when every workload matches.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["calm", "loss", "qr", "async"]


def counts(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", trace],
        stdout=subprocess.PIPE, text=True, check=True)
    for line in proc.stdout.splitlines():
        if line.startswith('{"counts"'):
            return json.loads(line)["counts"]
    raise RuntimeError(f"{workload}: no counts line in the output")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first = counts(workload, args.seed, "0")
        second = counts(workload, args.seed, "1")
        same = first == second
        ok &= same
        print(f"{workload}: {'identical' if same else 'DIFFERENT'} counts")
        if not same:
            for name in sorted(set(first) | set(second)):
                if first.get(name) != second.get(name):
                    print(f"  {name}: {first.get(name)} vs {second.get(name)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
