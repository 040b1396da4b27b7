#!/usr/bin/env python3
"""Compare the outputs, peak memory and wall time of CLI invocations under two source trees.

Each invocation runs in fresh child processes, ``python -m floqbog <argv>
--output out``, once per side with that side's ``src`` directory first on
PYTHONPATH and in that side's own working directory, so the two sidecars
record the same output path.  ``--runs`` repeats this with the sides
alternating, the first side leading on even runs; the outputs compared are
those of each side's last run.  By default the invocations are the five
shipped recipes; ``--seeds`` adds every ``recipebench/workloads.py`` op at
those seeds, and argv after ``--`` replaces the defaults by one invocation.

For each CSV column the report gives "identical", the worst absolute and
relative |difference| of a numeric column, or "differs" (another column,
a NaN in one tree only, or a different row count).  Sidecar entries are
compared by dotted key the same way, and only those that differ are listed.
Each side also reports every run's peak memory (``peak_mb``: the child's
``ru_maxrss`` from ``os.wait4``, in MB) and wall time (``wall_s``), with
their medians.  Prints one JSON object per invocation and exits 1 if any
entry differs in a non-numeric way or numerically by more than
atol + rtol * |first tree|.

    python3 scripts/compare_outputs.py --src old/src src --seeds 0 3 7 --atol 1e-13
    python3 scripts/compare_outputs.py --src old/src src --runs 3 -- stability-grid --recipe fig2b
"""

import argparse
import csv
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECIPES = {"fig1b": "spectrum", "fig1c": "spectrum", "fig2b": "stability-grid",
           "fig3a": "chain", "fig3b": "evolve"}


def invocations(seeds) -> list[tuple[str, list[str]]]:
    """(name, argv) of the five recipes and of every workload op at ``seeds``."""
    runs = [(name, [command, "--recipe", name]) for name, command in RECIPES.items()]
    if seeds:
        sys.path.insert(0, str(ROOT / "recipebench"))
        from workloads import WORKLOADS, build_ops

        runs += [(f"{workload}-{seed}-{op.name}", list(op.argv))
                 for seed in seeds for workload in WORKLOADS
                 for op in build_ops(workload, seed)]
    return runs


def run(src: str, argv: list[str], cwd: Path) -> tuple[float, float]:
    """(peak MB, wall s) of one child process running the CLI from ``src`` in ``cwd``."""
    path = os.pathsep.join(filter(None, [str(Path(src).resolve()), os.environ.get("PYTHONPATH")]))
    cwd.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "floqbog", *argv, "--output", "out"], cwd=cwd,
                             env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if code:
        raise SystemExit(f"{src}: floqbog {' '.join(argv)} exited {code}")
    return usage.ru_maxrss / 1024.0, wall


def outputs(cwd: Path) -> tuple[list[list[str]], dict]:
    """CSV rows (header first) and flattened sidecar of the last run in ``cwd``."""
    with open(cwd / "out.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows, flatten(json.loads((cwd / "out.meta.json").read_text()))


def flatten(node, prefix: str = "") -> dict:
    if isinstance(node, dict):
        return {k: v for key, val in node.items() for k, v in flatten(val, f"{prefix}{key}.").items()}
    return {prefix[:-1]: node}


def as_float(text):
    """The float a CSV cell or sidecar value reads as, or None if it is not a number."""
    if isinstance(text, bool) or text is None or text == "":
        return None
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def compare(a: list, b: list, atol: float, rtol: float):
    """("identical" | "differs" | {"max_abs", "max_rel"}, within tolerance) of two value lists."""
    if a == b:
        return "identical", True
    x, y = [list(map(as_float, v)) for v in (a, b)]
    if len(a) != len(b) or None in x or None in y or any(
            math.isnan(p) != math.isnan(q) for p, q in zip(x, y)):
        return "differs", False
    diffs = [(abs(p - q), abs(p)) for p, q in zip(x, y) if p != q and not math.isnan(p)]
    if not diffs:  # equal numbers written differently, or NaN at the same places
        return "identical", True
    worst = {"max_abs": max(d for d, _ in diffs),
             "max_rel": max(d / r if r else math.inf for d, r in diffs)}
    return worst, all(d <= atol + rtol * r for d, r in diffs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", nargs=2, required=True, metavar=("A", "B"),
                        help="the two source directories (each holds the floqbog package)")
    parser.add_argument("--seeds", nargs="*", type=int, default=[],
                        help="also run every recipebench workload op at these seeds")
    parser.add_argument("--atol", type=float, default=0.0, help="absolute tolerance (default 0)")
    parser.add_argument("--rtol", type=float, default=0.0, help="relative tolerance (default 0)")
    parser.add_argument("--runs", type=int, default=1, help="runs per side (default 1)")
    parser.add_argument("argv", nargs="*", help="one CLI invocation, without --output")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    runs = [("argv", args.argv)] if args.argv else invocations(args.seeds)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, argv) in enumerate(runs):
            dirs = [Path(tmp) / str(i) / str(side) for side in (0, 1)]
            usage = [[], []]  # (peak MB, wall s) of each run, per side
            for r in range(args.runs):
                for side in (0, 1) if r % 2 == 0 else (1, 0):
                    usage[side].append(run(args.src[side], argv, dirs[side]))
            sides = [dict(src=src, peak_mb=mb, wall_s=wall, median_peak_mb=statistics.median(mb),
                          median_wall_s=statistics.median(wall))
                     for src, (mb, wall) in zip(args.src, (zip(*u) for u in usage))]
            (rows_a, meta_a), (rows_b, meta_b) = map(outputs, dirs)
            report = {"name": name, "argv": argv, "sides": sides, "csv": {}, "sidecar": {}}
            same = rows_a[0] == rows_b[0] and len(rows_a) == len(rows_b)
            if not same:
                report["csv"] = "differs: header or row count"
            else:
                for col, column in enumerate(rows_a[0]):
                    verdict, fine = compare([r[col] for r in rows_a[1:]],
                                            [r[col] for r in rows_b[1:]], args.atol, args.rtol)
                    report["csv"][column] = verdict
                    same &= fine
            for key in sorted(set(meta_a) | set(meta_b)):
                a, b = meta_a.get(key), meta_b.get(key)
                if a != b:
                    verdict, fine = compare([a], [b], args.atol, args.rtol)
                    report["sidecar"][key] = {"values": [a, b], "diff": verdict}
                    same &= fine
            report["within_tolerance"] = same
            ok &= same
            print(json.dumps(report), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
