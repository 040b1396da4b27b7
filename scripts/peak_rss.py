#!/usr/bin/env python3
"""Peak resident memory of one CLI invocation under two source trees.

Each run is one fresh child process, ``python -m floqbog <argv> --output
<tmp>``, with the given ``src`` directory first on PYTHONPATH; its peak is
the child's ``ru_maxrss`` from ``os.wait4``, so nothing the parent holds is
counted.  The two sides alternate, the first side leading on even runs.
Prints one JSON object: per side, each run's peak (MB, ru_maxrss / 1024)
and wall time (s), their medians, and whether both sides wrote the same
CSV bytes.

    python3 scripts/peak_rss.py --src old/src src --runs 3 -- \\
        stability-grid --recipe fig2b --set task.hx1.points=401 --set task.hy1.points=401
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def run_once(src: str, argv: list[str], out: Path) -> tuple[float, float]:
    """(peak MB, wall s) of one child process running the CLI from ``src``."""
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "floqbog", *argv, "--output", str(out)],
                             env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if code != 0:
        raise SystemExit(f"{src}: floqbog {' '.join(argv)} exited {code}")
    return usage.ru_maxrss / 1024.0, wall


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", nargs=2, required=True, metavar=("A", "B"),
                        help="the two source directories (each holds the floqbog package)")
    parser.add_argument("--runs", type=int, default=3, help="runs per side (default 3)")
    parser.add_argument("argv", nargs="+", help="CLI arguments, without --output")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.src[0] == args.src[1]:
        parser.error("--src needs two different directories")
    sides = {src: {"mb": [], "wall_s": []} for src in args.src}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.runs):
            for src in args.src if i % 2 == 0 else args.src[::-1]:
                mb, wall = run_once(src, args.argv, Path(tmp) / f"{args.src.index(src)}")
                sides[src]["mb"].append(mb)
                sides[src]["wall_s"].append(wall)
        same = (Path(tmp) / "0.csv").read_bytes() == (Path(tmp) / "1.csv").read_bytes()
    for side in sides.values():
        side.update(median_mb=statistics.median(side["mb"]),
                    median_wall_s=statistics.median(side["wall_s"]))
    print(json.dumps({"argv": args.argv, "runs": args.runs, "csv_identical": same,
                      "sides": sides}, indent=1))


if __name__ == "__main__":
    main()
