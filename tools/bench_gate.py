#!/usr/bin/env python3
"""Perf-regression gate over BENCH_sim.json.

Compares a freshly produced bench_sim_throughput snapshot against the
committed baseline. Every baseline (scenario, backend) cell must reproduce
its deterministic fields — events, sim_ticks, delivered and lat_p99 — bit
for bit: a fixed seed and scale fix them (unlike wall-clock, which CI
runners make useless), so any difference is a real behavioural change,
including a kernel change that reorders same-tick events without moving
ev/msg. Commit the fresh snapshot as the new baseline when a change is
intentional.

    bench_gate.py BASELINE CURRENT
                  [--expect-gain "CELL[@FIELD]=FRACTION" ...]

--expect-gain pins a variant's advantage: the named cell — e.g.
"incast-burst(b8)/VL64" (batched injection), "shard-diurnal(s8)/VL64"
(8-shard mesh), or "qos-adversarial-bulk(sup)/VL64@lat_p99" (closed-loop
QoS supervisor) — must show the chosen metric at least FRACTION below its
baseline sibling (the same cell with the "(bN)"/"(sN)"/"(sup)" suffix
stripped) in the CURRENT run. "@FIELD" picks the compared metric (default
events_per_msg; "@lat_p99" compares latency-class p99). This is how CI
enforces "batching/sharding/supervision must keep paying", not just "must
not regress".

Exit status: 0 pass, 1 mismatch / unmet gain (or a baseline cell missing
from the current run), 2 bad invocation/input.
"""

import argparse
import json
import re
import sys


# Fields a fixed seed and scale reproduce bit for bit (wall-clock ones vary).
EXACT_FIELDS = ("events", "sim_ticks", "delivered", "lat_p99")


def bail(msg):
    print(f"bench_gate: {msg}", file=sys.stderr)
    sys.exit(2)


def load_results(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        bail(f"cannot read {path}: {e}")
    rows = doc.get("results")
    if not isinstance(rows, list) or not rows:
        bail(f"{path} has no results[]")
    out = {}
    for r in rows:
        key = (r["scenario"], r["backend"])
        if key in out:
            bail(f"duplicate cell {key} in {path}")
        out[key] = {k: float(v) for k, v in r.items()
                    if isinstance(v, (int, float))}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--expect-gain", action="append", default=[],
                    metavar="CELL=FRACTION",
                    help='batched cell (e.g. "incast-burst(b8)/VL64") that '
                         'must beat its single-message sibling by at least '
                         'FRACTION on ev/msg in the current run')
    args = ap.parse_args()

    base = load_results(args.baseline)
    cur = load_results(args.current)

    failures = []
    width = max(len(f"{s} / {b}") for s, b in base) + 2
    print(f"{'cell':<{width}} {'events':>10} {'ev/msg':>8}")
    for key in sorted(base):
        cell = f"{key[0]} / {key[1]}"
        if key not in cur:
            failures.append(f"{cell}: missing from current run")
            print(f"{cell:<{width}} {'GONE':>10}")
            continue
        moved = []
        for field in EXACT_FIELDS:
            bval, cval = base[key].get(field), cur[key].get(field)
            if bval is None or cval is None:
                moved.append(f"{field} missing")
            elif bval != cval:
                moved.append(f"{field} {bval:.15g} -> {cval:.15g}")
        failures.extend(f"{cell}: {m}" for m in moved)
        print(f"{cell:<{width}} {cur[key].get('events', 0):>10.0f} "
              f"{cur[key].get('events_per_msg', 0):>8.2f}"
              f"{'  << MOVED' if moved else ''}")
    for key in sorted(set(cur) - set(base)):
        print(f"{key[0]} / {key[1]}: new cell (no baseline), skipped")

    for spec in args.expect_gain:
        cell, _, frac_s = spec.partition("=")
        scenario, _, backend = cell.partition("/")
        if not frac_s or not backend:
            bail(f"bad --expect-gain '{spec}' (want CELL[@FIELD]=FRACTION)")
        backend, _, field = backend.partition("@")
        field = field or "events_per_msg"
        frac = float(frac_s)
        sibling = re.sub(r"\((?:b\d+|s\d+|sup)\)$", "", scenario)
        if sibling == scenario:
            bail(f"--expect-gain cell '{scenario}' has no "
                 f"(bN)/(sN)/(sup) suffix")
        variant, single = (scenario, backend), (sibling, backend)
        if variant not in cur or single not in cur:
            failures.append(f"--expect-gain {spec}: cell missing from current")
            continue
        if field not in cur[variant] or field not in cur[single]:
            failures.append(f"--expect-gain {spec}: field '{field}' missing")
            continue
        vval, sval = cur[variant][field], cur[single][field]
        gain = 1.0 - vval / sval if sval else 0.0
        ok = gain >= frac
        print(f"gain {scenario} vs {sibling} / {backend} on {field}: "
              f"{sval:.2f} -> {vval:.2f} ({gain:+.1%}, "
              f"need >= {frac:.0%}){'' if ok else '  << UNMET'}")
        if not ok:
            failures.append(
                f"{cell}: {field} gain {gain:.1%} < required "
                f"{frac:.0%} vs {sibling}/{backend}")

    if failures:
        print("\nbench_gate: FAIL")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nbench_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
