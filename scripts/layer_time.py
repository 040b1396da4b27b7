#!/usr/bin/env python3
"""Time of the integrator, vacuum evolution, W^S and overlay layers under two source trees.

Each run is one fresh child process with the given ``src`` directory first on
PYTHONPATH; it builds the inputs of every row with that tree's ``model`` (and
recipe), makes the row's call once to warm up and then ``--repeats`` times, and
reports the fastest call per row and a SHA-256 digest of its result.  The two
sides alternate, the first side leading on even runs.  Prints one JSON object:
per row and side, each run's fastest call (ms), their median, minimum and
quartile distance ``iqr_ms`` (null below 4 runs), the ratios of the medians and
of the minima (second side over first; on a shared host the minima spread less)
and whether both sides gave bitwise the same result.  Where they did not,
``max_rel_diff`` gives, per compared part, the largest |a - b| / max |a| between
the sides' first runs (a from the first side): U(T) and the snapshots of a
``propagate`` row, the occupations and residuals of the evolve row.  Both sides
may name the same tree, which checks that every row's result is reproducible.
A ratio counts only where the two medians differ by more than the first side's
``iqr_ms``: a difference within the spread of unchanged code is noise.

The ``propagate`` rows are the batch shapes the benchmark integrates at 64
steps, digested over U(T) and every snapshot:

- ``plane-41x41``: the integrated quadrant of the 41x41 fig2b drive plane
  (546 cells, one broadcast H0);
- ``kgrid-33``, ``kgrid-65``, ``kgrid-129``: the k >= 0 momenta of the fig1b
  k-grid at nk 64, 128 and 256;
- ``kgrid-297``, ``kgrid-528``: 9 and 16 fig1b points of 33 momenta each
  (a 3x3 phase diagram and a 16-point scan path at nk 64);
- ``chain-2x40x40``: ``dynamics._chain_propagation`` of the 20-cell fig3a
  chain, with a snapshot every 8 steps: its two parity sectors, built by the
  split ``chain`` and ``evolve`` use (the call includes that split and the
  cell check).

The vacuum-evolution row ``evolve-fig3b`` calls ``evolve_vacuum`` at the fig3b
recipe (its chain propagation included), digested over the trace's times,
occupations, residuals, marks and truncation flag.

Three rows time what follows integration on the bulk-topology points of
seed 0, at nk 64 and the CLI's default 64 steps:

- ``evaluate-scan-16`` and ``evaluate-phase-3x3``: ``topology.evaluate_points``
  on the 16-point scan from the fig1b point to nu1p = 0 and on the 3x3 grid
  nu1p in [9, 11] x mu in [-5.05, -4.95] (its integration included), digested
  over stable, max_im, ws and error;
- ``overlay-3x3``: ``sweep.effective_phase_overlay`` of that grid, digested
  over verdict and max_im.

    python3 scripts/layer_time.py --src old/src src --runs 5 --repeats 20
    python3 scripts/layer_time.py --src src src --runs 1 --repeats 1
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from functools import partial

import numpy as np

STEPS = 64
#: fig1b's point (POINT_A of the benchmark) and the 41x41 fig2b axes
MODEL = {"nu0": 1.5, "nu0p": 0.0, "nu1": 3.0, "nu1p": 11.0, "mu": -5.0, "omega": 5.2, "g": 1.0}
PLANE = ((-15.0, 9.0), (-12.0, 12.0), 41)
SHAPES = ("plane-41x41", "kgrid-33", "kgrid-65", "kgrid-129", "kgrid-297", "kgrid-528",
          "chain-2x40x40")
ROWS = (*SHAPES, "evolve-fig3b", "evaluate-scan-16", "evaluate-phase-3x3", "overlay-3x3")
#: the bulk-topology phase-diagram axes and the k-grid size of its scan and grid
PHASE_AXES, NK = (("nu1p", (9.0, 11.0)), ("mu", (-5.05, -4.95))), 64
#: parts whose largest relative difference is reported for rows that are not bitwise equal
COMPARED = ("u", "snapshots", "occupations", "sympl_residual", "max_im")


def blocks(shape: str):
    """(h0, h1) of one named 4x4 shape, built by the tree on the path."""
    from floqbog.floquet import kgrid, mirror_half
    from floqbog.model import ModelParams, bloch_blocks, field_matrix, static_block

    p = ModelParams(**MODEL)
    if shape == "plane-41x41":
        (xlo, xhi), (ylo, yhi), points = PLANE
        hx1, hy1 = np.linspace(xlo, xhi, points), np.linspace(ylo, yhi, points)
        x, y = np.meshgrid(hx1[mirror_half(hx1)[0]], hy1[mirror_half(hy1)[0]])
        return static_block(-p.nu0, 0.0, p.mu, p.g), field_matrix(x.ravel(), y.ravel())
    count = int(shape.split("-")[1])
    nk, points = {33: (64, 1), 65: (128, 1), 129: (256, 1), 297: (64, 9), 528: (64, 16)}[count]
    ks = kgrid(nk)[mirror_half(kgrid(nk))[0]]
    pairs = [bloch_blocks(ModelParams(**{**MODEL, "nu1p": MODEL["nu1p"] - 0.1 * i}), ks)
             for i in range(points)]
    return np.concatenate([a for a, _ in pairs]), np.concatenate([b for _, b in pairs])


def topology_call(row: str):
    """(size, f) of a W^S or overlay row; object columns are digested as their text."""
    from dataclasses import replace

    from floqbog.model import ModelParams
    from floqbog.sweep import effective_phase_overlay
    from floqbog.topology import evaluate_points, interpolate

    p = ModelParams(**MODEL)
    axes = [(name, np.linspace(lo, hi, 3)) for name, (lo, hi) in PHASE_AXES]
    if row == "overlay-3x3":
        def overlay():
            table = effective_phase_overlay(p, *axes, nk=NK)
            return [("verdict", table.verdict.astype(str)), ("max_im", table.max_im)]

        return {"points": 9}, overlay
    if row == "evaluate-scan-16":
        points = [interpolate(p, replace(p, nu1p=0.0), float(f)) for f in np.linspace(0, 1, 16)]
    else:
        points = [replace(p, nu1p=float(a), mu=float(b)) for b in axes[1][1] for a in axes[0][1]]

    def evaluate():
        columns = evaluate_points(points, NK, STEPS)
        return [(name, np.array(list(map(str, c))) if c.dtype == object else c)
                for name, c in zip(("stable", "max_im", "ws", "error"), columns)]

    return {"points": len(points)}, evaluate


def call(row: str):
    """(size, f): the row's size entry and its call, which returns the named arrays to
    digest, as (name, array) pairs."""
    from floqbog.model import ModelParams

    if row.startswith(("evaluate", "overlay")):
        return topology_call(row)
    if row == "evolve-fig3b":
        from floqbog.cli import load_recipe
        from floqbog.dynamics import evolve_vacuum

        recipe = load_recipe("fig3b")
        task = recipe["task"]
        args = (ModelParams(**recipe["model"]), task["cells"], task["t_max"], task["samples"],
                recipe["numerics"]["steps"])

        def evolve():
            trace = evolve_vacuum(*args)
            return [("times", trace.times), ("occupations", trace.occupations),
                    ("sympl_residual", trace.sympl_residual), ("marks", trace.marks),
                    ("truncated", np.array(trace.truncated))]

        return {"samples": task["samples"]}, evolve
    if row == "chain-2x40x40":
        from floqbog.dynamics import _chain_propagation

        run = partial(_chain_propagation, ModelParams(**MODEL), 20, STEPS, range(0, STEPS + 1, 8))
        matrices = 2
    else:
        from floqbog.floquet import propagate

        h0, h1 = blocks(row)
        run = partial(propagate, h0, h1, MODEL["omega"], STEPS)
        matrices = int(np.prod(np.broadcast_shapes(h0.shape, h1.shape)[:-2]))

    def integrate():
        prop = run()
        return [("u", prop.u), *(("snapshots", prop.snapshots[s]) for s in sorted(prop.snapshots))]

    return {"matrices": matrices}, integrate


def child(repeats: int, dump: str | None) -> None:
    """Time every row with the tree on the path; print one JSON line, and save
    every row's result to the .npz file ``dump`` if given."""
    warnings.simplefilter("ignore")  # the overlay's validity warning
    out, saved = {}, {}
    for row in ROWS:
        size, f = call(row)
        result = f()
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            f()
            best = min(best, time.perf_counter() - start)
        digest = hashlib.sha256()
        for i, (name, part) in enumerate(result):
            digest.update(np.ascontiguousarray(part).tobytes())
            saved[f"{row}.{i}.{name}"] = part
        out[row] = {"ms": 1e3 * best, **size, "digest": digest.hexdigest()}
    if dump:
        np.savez(dump, **saved)
    print(json.dumps(out))


def run_once(src: str, repeats: int, dump: str | None = None) -> dict:
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, __file__, "--child", str(repeats),
                             *(["--dump", dump] if dump else [])],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, check=False)
    if result.returncode != 0:
        raise SystemExit(f"{src}: child exited {result.returncode}\n{result.stderr}")
    return json.loads(result.stdout)


def iqr(ms: list) -> float | None:
    """Distance between the upper and lower quartiles of ``ms``, or None below 4 values."""
    if len(ms) < 4:
        return None
    lower, _, upper = statistics.quantiles(ms, n=4)
    return upper - lower


def max_rel_diff(a: dict, b: dict, row: str) -> dict:
    """Largest |a - b| / max |a| of each COMPARED part of ``row`` in two saved results."""
    out = {}
    for key in a:
        part, _, name = key.rsplit(".", 2)
        if part == row and name in COMPARED:
            diff = np.abs(a[key] - b[key]).max(initial=0.0)
            out[name] = max(out.get(name, 0.0), float(diff / np.abs(a[key]).max(initial=0.0)))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", nargs=2, metavar=("A", "B"),
                        help="the two source directories (each holds the floqbog package)")
    parser.add_argument("--runs", type=int, default=5, help="child processes per side (default 5)")
    parser.add_argument("--repeats", type=int, default=20,
                        help="timed calls per row in each child (default 20)")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        child(args.child, args.dump)
        return
    if args.src is None:
        parser.error("--src needs two directories")
    if args.runs < 1 or args.repeats < 1:
        parser.error("--runs and --repeats must be at least 1")
    # sides are keyed by position, so both may name one tree; a repeated name gets "#2"
    names = args.src if args.src[0] != args.src[1] else [args.src[0], args.src[1] + "#2"]
    runs = [[], []]
    with tempfile.TemporaryDirectory() as tmp:
        dumps = [os.path.join(tmp, f"side{j}.npz") for j in range(2)]
        for i in range(args.runs):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                dump = dumps[side] if i == 0 else None
                runs[side].append(run_once(args.src[side], args.repeats, dump))
        results = [dict(np.load(dump)) for dump in dumps]
    table = {}
    for row in ROWS:
        sides = [[r[row]["ms"] for r in side] for side in runs]
        medians = [statistics.median(ms) for ms in sides]
        minima = [min(ms) for ms in sides]
        digests = {r[row]["digest"] for side in runs for r in side}
        first = runs[0][0][row]
        table[row] = {
            **{k: first[k] for k in ("matrices", "samples", "points") if k in first},
            "ms": dict(zip(names, sides)),
            "median_ms": dict(zip(names, medians)),
            "min_ms": dict(zip(names, minima)),
            "iqr_ms": dict(zip(names, map(iqr, sides))),
            "ratio": medians[1] / medians[0],
            "ratio_min": minima[1] / minima[0],
            "bitwise_equal": len(digests) == 1,
        }
        if len(digests) > 1:
            table[row]["max_rel_diff"] = max_rel_diff(*results, row)
    print(json.dumps({"steps": STEPS, "runs": args.runs, "repeats": args.repeats,
                      "rows": table}, indent=1))


if __name__ == "__main__":
    main()
