#!/usr/bin/env python3
"""Perf-regression gate for the pcflow-bench JSON artifact.

Compares a candidate BENCH_pcflow.json against a committed baseline:

  * schema      — both documents must be pcflow-bench schema_version 4 and
                  cover the same scenario set (same names, same cell
                  parameters: algorithm/topology/engine/delivery/
                  fixed_rounds/fault_profile);
  * counters    — every deterministic field (converged_trials, rounds,
                  final_max_error, messages_sent, doubles_on_wire,
                  deliveries) must match the baseline EXACTLY. These are
                  seed-reproducible on any machine; any drift means an
                  engine change altered behaviour, not just speed;
  * wall clock  — summed over the scenarios both documents timed, candidate
                  wall_seconds may exceed the baseline by at most --tolerance
                  (default 0.15 = +15%) plus --slack absolute seconds
                  (default 0.25). The gate is on the aggregate, not per
                  scenario: individual sub-second cells jitter by tens of
                  percent run-to-run, the suite total does not. Slower
                  machines lie about this, so the gate only applies when
                  both documents carry timing and can be disabled with
                  --no-wall for cross-machine comparisons (CI measures its
                  own fresh baseline from the base ref instead of trusting
                  the committed one; see --wall-only).

Exit code: 0 clean, 1 regression found, 2 usage/schema error.
"""

import argparse
import json
import sys

SCHEMA = "pcflow-bench"
SCHEMA_VERSION = 4
IDENTITY_KEYS = (
    "algorithm",
    "topology",
    "fault_profile",
    "engine",
    "delivery",
    "fixed_rounds",
    "trials",
)
EXACT_KEYS = (
    "nodes",
    "converged_trials",
    "messages_sent",
    "doubles_on_wire",
    "deliveries",
)
# Statistics blocks are {mean, min, max, ...}; exact-compare them wholesale.
EXACT_BLOCKS = ("rounds", "final_max_error")


def die(msg):
    print(f"bench_gate: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {path}: {e}")
    if doc.get("schema") != SCHEMA:
        die(f"{path}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        die(f"{path}: schema_version {doc.get('schema_version')!r}, want {SCHEMA_VERSION}")
    if doc.get("scenario_count") != len(doc.get("scenarios", [])):
        die(f"{path}: scenario_count does not match scenarios[]")
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_pcflow.json")
    parser.add_argument("candidate", help="freshly produced BENCH_pcflow.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional wall-clock regression per scenario (default 0.15)",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=0.25,
        help="absolute wall-clock slack in seconds added on top of the "
        "fractional tolerance (default 0.25; absorbs scheduler jitter)",
    )
    parser.add_argument(
        "--no-wall",
        action="store_true",
        help="skip the wall-clock gate (cross-machine counter-only comparison)",
    )
    parser.add_argument(
        "--wall-only",
        action="store_true",
        help="gate only wall clock, over the intersecting scenario set "
        "(same-machine A/B comparison across refs, where counters may differ)",
    )
    args = parser.parse_args()
    if args.no_wall and args.wall_only:
        parser.error("--no-wall and --wall-only are mutually exclusive")

    base = load(args.baseline)
    cand = load(args.candidate)
    base_by_name = {s["name"]: s for s in base["scenarios"]}
    cand_by_name = {s["name"]: s for s in cand["scenarios"]}

    failures = []
    base_wall = cand_wall = 0.0
    timed = 0
    if not args.wall_only and set(base_by_name) != set(cand_by_name):
        missing = sorted(set(base_by_name) - set(cand_by_name))
        extra = sorted(set(cand_by_name) - set(base_by_name))
        failures.append(f"scenario set changed: missing={missing} extra={extra}")

    for name in sorted(set(base_by_name) & set(cand_by_name)):
        b, c = base_by_name[name], cand_by_name[name]
        if not args.wall_only:
            for key in IDENTITY_KEYS:
                if b.get(key) != c.get(key):
                    failures.append(
                        f"{name}: cell parameter {key}: {b.get(key)!r} != {c.get(key)!r}"
                    )
            for key in EXACT_KEYS:
                if b.get(key) != c.get(key):
                    failures.append(f"{name}: counter {key}: baseline {b.get(key)} != {c.get(key)}")
            for key in EXACT_BLOCKS:
                if b.get(key) != c.get(key):
                    failures.append(f"{name}: statistic {key}: baseline {b.get(key)} != {c.get(key)}")
        if args.no_wall:
            continue
        bt, ct = b.get("timing"), c.get("timing")
        if bt is None or ct is None:
            continue  # --timing=false artifacts carry no wall clock
        base_wall += bt["wall_seconds"]
        cand_wall += ct["wall_seconds"]
        timed += 1

    allowed = base_wall * (1.0 + args.tolerance) + args.slack
    if not args.no_wall and base_wall > 0.0 and cand_wall > allowed:
        failures.append(
            f"aggregate wall-clock regression over {timed} timed scenario(s): "
            f"{cand_wall:.3f}s vs baseline {base_wall:.3f}s (limit {allowed:.3f}s = "
            f"+{args.tolerance * 100.0:.0f}% + {args.slack:.2f}s slack)"
        )

    if failures:
        print("bench_gate: FAIL")
        for f in failures:
            print(f"  {f}")
        return 1
    if args.no_wall:
        gates = "counters"
    elif args.wall_only:
        gates = f"wall-clock +{args.tolerance * 100.0:.0f}% only"
    else:
        gates = f"counters + wall-clock +{args.tolerance * 100.0:.0f}%"
    print(f"bench_gate: ok — {len(base_by_name)} scenario(s), gates: {gates}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
