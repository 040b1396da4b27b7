#!/usr/bin/env python3
"""Compare two groups of recipebench result files for one workload.

Usage (from the repository root):

    python3 recipebench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a ``recipebench/out/<workload>-seed<n>-trace<t>.json`` record.
The comparison is refused (exit 2) unless every file is for the same
workload, trace mode and run length and was taken at the same sizes (grid
points, nk, scan points, cells, samples; step counts may differ).  A
difference in the machine or library versions is printed as a warning.

For every metric it prints each side's median and quartiles, the change of
the medians as a share of the base median, the metric's bound from
BENCHMARK.json, and, when both sides hold the same number of files taken
as pairs, in how many pairs the new side was better.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: record fields that must match for two runs to be comparable
SAME = ("workload", "trace", "seconds", "sizes")
#: environment fields whose difference is reported
ENV = ("cpu_model", "nproc", "blas_threads", "python", "numpy", "scipy", "blas")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, type=Path)
    parser.add_argument("--new", nargs="+", required=True, type=Path)
    args = parser.parse_args()
    base = [json.loads(p.read_text()) for p in args.base]
    new = [json.loads(p.read_text()) for p in args.new]
    first = base[0]
    for path, rec in zip(args.base + args.new, base + new):
        for key in SAME:
            if rec[key] != first[key]:
                print(f"refused: {path} differs from {args.base[0]} in {key!r}", file=sys.stderr)
                return 2
        for key in ENV:
            if rec["environment"][key] != first["environment"][key]:
                print(f"warning: {path} has {key} {rec['environment'][key]!r}, "
                      f"{args.base[0]} has {first['environment'][key]!r}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    failed = [sum(r["failed"] for r in side) for side in (base, new)]
    print(f"{first['workload']}: base {len(base)} runs ({failed[0]} failed ops), "
          f"new {len(new)} runs ({failed[1]} failed ops)")
    for name in first["metrics"]:
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        bq, nq = quartiles(b), quartiles(n)
        change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("nan")
        meta = declared.get(name, {})
        line = (f"{name:42s} base {bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  "
                f"new {nq[1]:.5g} [{nq[0]:.5g}, {nq[2]:.5g}]  {100 * change:+.1f}%")
        if "bound" in meta:
            line += f"  bound {100 * meta['bound']:.0f}%"
        if len(b) == len(n) > 1 and "better" in meta:
            sign = 1 if meta["better"] == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(b, n))
            line += f"  new better in {wins}/{len(b)} pairs"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
