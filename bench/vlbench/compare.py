#!/usr/bin/env python3
"""Compare two vlbench result files (run.py --out) metric by metric.

  python3 bench/vlbench/compare.py BASE.json NOW.json

Units, directions and bounds come from BENCHMARK.json. For every
(workload, metric) pair present in both files it prints base, now, the
relative delta and a verdict:

  same        deterministic: identical; host-measured: within the bound
  better      deterministic: any gain; host-measured: a gain past the bound
  worse       deterministic: any loss; host-measured: a loss past the bound
  unresolved  host-measured, and the rep spread (IQR/median) of either file
              is wider than the bound, so the medians cannot be told apart
  info        host-measured with no bound (per-layer timings): delta only

Exits 1 when any pair is worse. Deterministic metrics only compare
meaningfully between runs with the same --seed.
"""

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def spread(m):
    s = m.get("samples", [])
    if len(s) < 2 or not statistics.median(s):
        return 0.0
    q1, _, q3 = statistics.quantiles(s, n=4)
    return (q3 - q1) / statistics.median(s)


def verdict(meta, a, b):
    """(relative delta, verdict) of metric value a -> b."""
    va, vb = a["value"], b["value"]
    delta = (vb - va) / abs(va) if va else (0.0 if vb == va else math.inf)
    gain = delta if meta["better"] == "higher" else -delta
    if a["kind"] == "sim":
        return delta, "same" if vb == va else ("better" if gain > 0 else "worse")
    bound = meta.get("bound")
    if bound is None:
        return delta, "info"
    if max(spread(a), spread(b)) > bound:
        return delta, "unresolved"
    return delta, "worse" if gain < -bound else "better" if gain > bound else "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, now = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    if base["seed"] != now["seed"]:
        print(f"note: seeds differ ({base['seed']} vs {now['seed']}); "
              "deterministic metrics will differ too")

    rows, worse = [], 0
    for w in base["workloads"]:
        if w not in now["workloads"]:
            continue
        for mode in ("timed", "traced"):
            ma = base["workloads"][w].get(mode, {}).get("metrics", {})
            mb = now["workloads"][w].get(mode, {}).get("metrics", {})
            for name in meta:
                if name not in ma or name not in mb:
                    continue
                delta, v = verdict(meta[name], ma[name], mb[name])
                worse += v == "worse"
                rows.append((w, name, meta[name]["unit"],
                             f"{ma[name]['value']:.6g}", f"{mb[name]['value']:.6g}",
                             f"{100 * delta:+.2f}%", v))

    header = ("workload", "metric", "unit", "base", "now", "delta", "verdict")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(wd) for c, wd in zip(r, widths)).rstrip())
    print(f"{worse} worse of {len(rows)} compared")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
