#!/usr/bin/env python3
"""Stability diagram over drive amplitudes and a topological phase scan.

Part 1 maps the (hx1, hy1) drive-amplitude plane at fixed static field and
writes the verdict per cell together with the closed drive curve traced by
the benchmark drive, for overlay.

Part 2 scans nu1p at mu = -5 with the W^S label where strongly stable, plus
the rotating-frame effective prediction for comparison.  The effective
two-band picture displaces the instability window by about one cell but
reproduces the phase assignment on both sides.
"""

import argparse
import csv
import pathlib

from floqbog.floquet import DEFAULT_STEPS
from floqbog.model import ModelParams
from floqbog.sweep import (
    GridSpec,
    curve_gamma,
    effective_phase_overlay,
    phase_diagram,
    stability_grid,
)


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    print(f"  -> {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=25, help="cells per axis of the amplitude grid")
    ap.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    ap.add_argument("--nk", type=int, default=128)
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("results"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    # amplitude plane, static field fixed at the benchmark value (-1.5, 0)
    grid = GridSpec("hx1", (-15.0, 9.0), args.n, "hy1", (-12.0, 12.0), args.n, {})
    cells = stability_grid((-1.5, 0.0), 5.2, -5.0, 1.0, grid, steps=args.steps)
    unstable = sum(c.verdict == "Unstable" for c in cells)
    print(f"amplitude grid {args.n}x{args.n}: {unstable}/{len(cells)} unstable")
    write_rows(
        args.outdir / "stability_grid.csv",
        ["hx1", "hy1", "verdict", "max_im"],
        [[repr(c.x), repr(c.y), c.verdict, repr(c.max_im)] for c in cells],
    )

    benchmark = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)
    curve = curve_gamma(benchmark)
    write_rows(
        args.outdir / "drive_curve.csv",
        ["hx1", "hy1"],
        [[repr(float(x)), repr(float(y))] for x, y in curve],
    )

    # phase scan along nu1p
    fixed = {"nu0": 1.5, "nu0p": 0.0, "nu1": 3.0, "omega": 5.2, "g": 1.0}
    row = GridSpec("nu1p", (0.0, 11.0), 23, "mu", (-5.0, -4.95), 2, fixed)
    cells = phase_diagram(row, nk=args.nk, steps=args.steps, threads=args.threads)
    overlay = effective_phase_overlay(row, nk=args.nk, alpha=0, beta=-2)
    eff = {(c.x, c.y): c.verdict for c in overlay}
    write_rows(
        args.outdir / "phase_scan.csv",
        ["nu1p", "mu", "verdict", "ws", "max_im", "eff_verdict"],
        [
            [repr(c.x), repr(c.y), c.verdict, "" if c.ws is None else repr(c.ws),
             repr(c.max_im), eff[(c.x, c.y)]]
            for c in cells
        ],
    )
    lower = [c for c in cells if c.y == -5.0]
    labels = ["U" if c.verdict == "Unstable" else str(c.ws) for c in lower]
    print("phase scan at mu=-5:", " ".join(labels))


if __name__ == "__main__":
    main()
