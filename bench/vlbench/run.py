#!/usr/bin/env python3
"""Build and run the vlbench benchmark (see README.md next to this file).

  python3 bench/vlbench/run.py --workload adv-bulk-vl --seed 42 --seconds 15 --trace 0
  python3 bench/vlbench/run.py --workload all --seed 42 --out results.json
  python3 bench/vlbench/run.py --list

Builds bench_vlbench from source (CMake, into $CARGO_TARGET_DIR or
.bench_build at the repository root), runs each workload in its own process
(--trace 0: timed, end-to-end metrics; --trace 1: traced, per-layer metrics;
without --trace: both, and their digests must agree), prints every metric
with its unit, and ends stdout with one JSON line:
{"correct", "attempted", "failed", "metrics"}. Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
PROC_TIMEOUT_S = 170  # one workload process; the caller's limit is 180 s


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    bdir = build_dir()
    for cmd in (["cmake", "-S", str(HERE), "-B", str(bdir)],
                ["cmake", "--build", str(bdir), "--target", "bench_vlbench",
                 "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(f"vlbench: build step failed: {' '.join(cmd)}")
    return bdir / "bench_vlbench"


def run_mode(binary, workload, seed, seconds, trace, spec):
    """One bench_vlbench process; returns its result JSON with quartiles."""
    out = build_dir() / "results" / f"{workload}-{seed}-{'traced' if trace else 'timed'}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(out)]
    sys.stdout.flush()
    proc = subprocess.run(cmd, timeout=PROC_TIMEOUT_S)
    if not out.exists():
        sys.exit(f"vlbench: {workload} wrote no result (exit {proc.returncode})")
    res = json.loads(out.read_text())

    # The binary and BENCHMARK.json must agree on the metric set and units.
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    if got != want:
        sys.exit(f"vlbench: {workload} metrics differ from BENCHMARK.json: "
                 f"{sorted(set(got.items()) ^ set(want.items()))}")
    for m in res["metrics"].values():
        if len(m.get("samples", [])) >= 2:
            m["q1"], _, m["q3"] = statistics.quantiles(m["samples"], n=4)
    return res


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="|".join(names + ["all"]))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out", help="write the merged result JSON here")
    ap.add_argument("--list", action="store_true",
                    help="print the workload and metric tables")
    args = ap.parse_args()
    if args.list:
        print((HERE / "README.md").read_text())
        return 0
    if args.workload not in names + ["all"]:
        ap.error(f"--workload must be one of {names + ['all']}")

    workloads = names if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    binary = build()

    merged = {"benchmark": "vlbench", "seed": args.seed,
              "seconds": args.seconds, "env": {}, "workloads": {}}
    for w in workloads:
        entry = {}
        for trace in modes:
            res = run_mode(binary, w, args.seed, args.seconds, trace, spec)
            entry["traced" if trace else "timed"] = res
            merged["env"] = res["env"]
        if len(entry) == 2 and entry["timed"]["digest"] != entry["traced"]["digest"]:
            t = entry["traced"]
            t["errors"].append(f"traced digest {t['digest']} differs from timed "
                               f"digest {entry['timed']['digest']}")
            t["correct"], t["failed"] = False, t["attempted"]
        merged["workloads"][w] = entry

    env = merged["env"]
    if not env.get("optimized") or env.get("build_type") not in ("Release", "RelWithDebInfo"):
        env["warning"] = "unoptimised build: host timings are not representative"
        print(f"WARNING: {env['warning']}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(merged, indent=1) + "\n")

    runs = [r for e in merged["workloads"].values() for r in e.values()]
    for r in runs:
        for e in r["errors"]:
            print(f"CHECK FAILED [{r['workload']} {r['mode']}]: {e}")
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    metrics = {}
    for r in runs:
        prefix = "" if len(workloads) == 1 else r["workload"] + "/"
        for name in order:
            if name in r["metrics"]:
                m = r["metrics"][name]
                metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
