#!/usr/bin/env python3
"""Alternating A/B pairs of vlbench runs: a parent checkout against a change.

    tools/ab_pairs.py PARENT CHANGE --workload fig11|all [--pairs 10]
                      [--seconds S] [--seed 42] [--out runs.json]

PARENT and CHANGE are two source checkouts. Each side runs its own
`bench/vlbench/run.py --trace 0`, built into its own CARGO_TARGET_DIR
(<checkout>/.bench_build), so both sides use their own benchmark code with
identical settings. Pair i runs the parent first when i is even and the
change first when i is odd. `--workload all` runs the pairs for each
workload in the parent's BENCHMARK.json in turn and prints one verdict
block per workload.

For every end-to-end metric in the parent's BENCHMARK.json it prints each
run, each side's median and quartiles, the pairs the change won (ties count
for neither side) and the ratio of the medians, then two verdicts:

  gain   the change won at least 9/10 of the pairs and its median is
         better than the parent's by more than the parent's quartile
         spread (IQR);
  worse  the change's median is worse than the parent's by more than the
         metric's BENCHMARK.json bound.

Each side's max/median and min/median ratios follow the medians, and any
run more than OUTLIER_RATIO (1.5x) above or below its side's median is
flagged as an outlier. Flags are informational: the verdicts above do not
change.

Exit status: 0 when every run passed its checks and both sides reported
the same digest on every workload, 1 otherwise, 2 on bad invocation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_side(root, workload, seed, seconds, out):
    """One timed vlbench run of checkout `root`; returns its timed result."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(root / ".bench_build"))
    cmd = [sys.executable, "bench/vlbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--out", str(out)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if not out.exists():
        sys.exit(f"ab_pairs: {root}: run.py wrote no result "
                 f"(exit {proc.returncode}):\n{proc.stderr}")
    res = json.loads(out.read_text())["workloads"][workload]["timed"]
    res["exit"] = proc.returncode
    return res


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def fmt(x):
    return f"{x:.6g}"


OUTLIER_RATIO = 1.5


def spread(xs, med):
    """max/median, min/median and the (index, ratio) of each run more than
    OUTLIER_RATIO from the median in either direction."""
    if not med:
        return float("nan"), float("nan"), []
    ratios = [x / med for x in xs]
    out = [(i, r) for i, r in enumerate(ratios)
           if r > OUTLIER_RATIO or r < 1 / OUTLIER_RATIO]
    return max(ratios), min(ratios), out


def ab_workload(sides, spec, workload, args):
    """Runs the alternating pairs of one workload and prints its verdict
    block; returns (ok, record) where ok is False on a failed run or a
    digest mismatch."""
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = Path(tmp) / f"{side}-{i}.json"
                runs[side].append(run_side(sides[side], workload,
                                           args.seed, args.seconds, out))
                m = runs[side][-1]["metrics"]["host_msgs_per_s"]["value"]
                print(f"{workload} pair {i} {side}: host_msgs_per_s {fmt(m)}",
                      file=sys.stderr)

    print(f"\n{workload}: {args.pairs} pairs, seed {args.seed}")
    ok = True
    for side, rs in runs.items():
        for r in rs:
            if not r["correct"] or r["exit"] != 0:
                ok = False
                print(f"{side}: run failed its checks: {r['errors']}")
    digests = {side: sorted({r["digest"] for r in rs})
               for side, rs in runs.items()}
    print(f"digest parent {digests['parent']} change {digests['change']}")
    if len(digests["parent"]) != 1 or digests["parent"] != digests["change"]:
        ok = False
        print("DIGEST MISMATCH")

    need = -(-9 * args.pairs // 10)  # ceil(0.9 * pairs)
    summary = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        pq, cq = quartiles(p), quartiles(c)
        won = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(p, c))
        lost = sum((cv < pv) if higher else (cv > pv) for pv, cv in zip(p, c))
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        delta = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
        gain = won >= need and delta > pq[2] - pq[0]
        bound = m["bound"] * abs(pq[1])
        worse = -delta > bound
        outliers = {}
        print(f"{name} [{m['unit']}, {m['better']} is better, "
              f"bound {m['bound']:.0%}]")
        print(f"  parent runs {' '.join(fmt(x) for x in p)}")
        print(f"  change runs {' '.join(fmt(x) for x in c)}")
        print(f"  parent median {fmt(pq[1])} (q1 {fmt(pq[0])}, q3 {fmt(pq[2])}, "
              f"IQR {fmt(pq[2] - pq[0])})")
        print(f"  change median {fmt(cq[1])} (q1 {fmt(cq[0])}, q3 {fmt(cq[2])})")
        for side, xs, med in (("parent", p, pq[1]), ("change", c, cq[1])):
            hi, lo, out = spread(xs, med)
            outliers[side] = [i for i, _ in out]
            print(f"  {side} max/median {hi:.3f}x, min/median {lo:.3f}x")
            for i, r in out:
                print(f"  OUTLIER {side} run {i}: {fmt(xs[i])} is {r:.2f}x "
                      f"its side's median")
        summary[name] = {"parent": p, "change": c, "won": won, "lost": lost,
                         "ratio": ratio, "gain": gain, "worse": worse,
                         "outliers": outliers}
        print(f"  pairs won {won}/{args.pairs} (lost {lost}), "
              f"ratio {ratio:.3f}x of the parent")
        print(f"  gain: {'YES' if gain else 'no'} "
              f"(needs >= {need}/{args.pairs} and a median gap over the IQR); "
              f"worse beyond bound: {'YES' if worse else 'no'}")
    sys.stdout.flush()
    return ok, {"workload": workload, "seed": args.seed, "pairs": args.pairs,
                "ok": ok, "digests": digests, "metrics": summary}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True,
                    help="a BENCHMARK.json workload, or 'all'")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", help="write every run's metrics here as JSON "
                    "(with --workload all: one record per workload)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        if not (root / "bench/vlbench/run.py").exists():
            ap.error(f"{root} is not a checkout with bench/vlbench/run.py")
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"unknown workload {args.workload}")
    workloads = names if args.workload == "all" else [args.workload]

    ok, records = True, []
    for w in workloads:
        w_ok, record = ab_workload(sides, spec, w, args)
        ok = ok and w_ok
        records.append(record)
    if len(workloads) > 1:
        print("\nsummary: " + ", ".join(
            f"{r['workload']} {'ok' if r['ok'] else 'FAILED'}"
            for r in records))
    if args.out:
        out = records[0] if args.workload != "all" else {
            r["workload"]: r for r in records}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
