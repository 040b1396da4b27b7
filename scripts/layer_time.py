#!/usr/bin/env python3
"""Time of ``floquet.propagate`` and ``dynamics.evolve_vacuum`` under two source trees.

Each run is one fresh child process with the given ``src`` directory first on
PYTHONPATH; it builds the inputs of every row with that tree's ``model`` (and
recipe), makes the row's call once to warm up and then ``--repeats`` times, and
reports the fastest call per row and a SHA-256 digest of its result.  The two
sides alternate, the first side leading on even runs.  Prints one JSON object:
per row and side, each run's fastest call (ms), their median and minimum, the
ratios of the medians and of the minima (second side over first; on a shared
host the minima spread less) and whether both sides gave bitwise the same
result.  Where they did not, ``max_rel_diff`` gives, per compared part, the
largest |a - b| / max |a| between the sides' first runs (a from the first
side): U(T) and the snapshots of a ``propagate`` row, the occupations and
residuals of the evolve row.

The ``propagate`` rows are the batch shapes the benchmark integrates at 64
steps, digested over U(T) and every snapshot:

- ``plane-41x41``: the integrated quadrant of the 41x41 fig2b drive plane
  (546 cells, one broadcast H0);
- ``kgrid-33``, ``kgrid-65``, ``kgrid-129``: the k >= 0 momenta of the fig1b
  k-grid at nk 64, 128 and 256;
- ``kgrid-297``, ``kgrid-528``: 9 and 16 fig1b points of 33 momenta each
  (a 3x3 phase diagram and a 16-point scan path at nk 64);
- ``chain-2x40x40``: the two parity sectors of the 20-cell fig3a chain, with
  a snapshot every 8 steps.

The vacuum-evolution row ``evolve-fig3b`` calls ``evolve_vacuum`` at the fig3b
recipe (its chain propagation included), digested over the trace's times,
occupations, residuals, marks and truncation flag.

    python3 scripts/layer_time.py --src old/src src --runs 5 --repeats 20
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

import numpy as np

STEPS = 64
#: fig1b's point (POINT_A of the benchmark) and the 41x41 fig2b axes
MODEL = {"nu0": 1.5, "nu0p": 0.0, "nu1": 3.0, "nu1p": 11.0, "mu": -5.0, "omega": 5.2, "g": 1.0}
PLANE = ((-15.0, 9.0), (-12.0, 12.0), 41)
SHAPES = ("plane-41x41", "kgrid-33", "kgrid-65", "kgrid-129", "kgrid-297", "kgrid-528",
          "chain-2x40x40")
ROWS = (*SHAPES, "evolve-fig3b")
#: parts whose largest relative difference is reported for rows that are not bitwise equal
COMPARED = ("u", "snapshots", "occupations", "sympl_residual")


def blocks(shape: str):
    """(h0, h1, snapshots) of one named shape, built by the tree on the path."""
    from floqbog.dynamics import _mirror_halves
    from floqbog.floquet import kgrid, mirror_half
    from floqbog.model import ModelParams, bloch_blocks, chain_blocks, field_matrix, static_block

    p = ModelParams(**MODEL)
    if shape == "plane-41x41":
        (xlo, xhi), (ylo, yhi), points = PLANE
        hx1, hy1 = np.linspace(xlo, xhi, points), np.linspace(ylo, yhi, points)
        x, y = np.meshgrid(hx1[mirror_half(hx1)[0]], hy1[mirror_half(hy1)[0]])
        return static_block(-p.nu0, 0.0, p.mu, p.g), field_matrix(x.ravel(), y.ravel()), ()
    if shape == "chain-2x40x40":
        h0, h1 = chain_blocks(p, 20)
        near, far = _mirror_halves(h0.shape[0] // 2)

        def sectors(h):
            a, b = h[np.ix_(near, near)], h[np.ix_(near, far)]
            return np.stack([a + b, a - b])

        return sectors(h0), sectors(h1), range(0, STEPS + 1, 8)
    count = int(shape.split("-")[1])
    nk, points = {33: (64, 1), 65: (128, 1), 129: (256, 1), 297: (64, 9), 528: (64, 16)}[count]
    ks = kgrid(nk)[mirror_half(kgrid(nk))[0]]
    pairs = [bloch_blocks(ModelParams(**{**MODEL, "nu1p": MODEL["nu1p"] - 0.1 * i}), ks)
             for i in range(points)]
    return np.concatenate([a for a, _ in pairs]), np.concatenate([b for _, b in pairs]), ()


def call(row: str):
    """(size, f): the row's size entry and its call, which returns the named arrays to
    digest, as (name, array) pairs."""
    if row == "evolve-fig3b":
        from floqbog.cli import load_recipe
        from floqbog.dynamics import evolve_vacuum
        from floqbog.model import ModelParams

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
    from floqbog.floquet import propagate

    h0, h1, marks = blocks(row)

    def integrate():
        prop = propagate(h0, h1, MODEL["omega"], STEPS, marks)
        return [("u", prop.u), *(("snapshots", prop.snapshots[s]) for s in sorted(prop.snapshots))]

    return {"matrices": int(np.prod(np.broadcast_shapes(h0.shape, h1.shape)[:-2]))}, integrate


def child(repeats: int, dump: str | None) -> None:
    """Time every row with the tree on the path; print one JSON line, and save
    every row's result to the .npz file ``dump`` if given."""
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
    if args.src is None or args.src[0] == args.src[1]:
        parser.error("--src needs two different directories")
    if args.runs < 1 or args.repeats < 1:
        parser.error("--runs and --repeats must be at least 1")
    runs = {src: [] for src in args.src}
    with tempfile.TemporaryDirectory() as tmp:
        dumps = [os.path.join(tmp, f"side{j}.npz") for j in range(2)]
        for i in range(args.runs):
            for src in args.src if i % 2 == 0 else args.src[::-1]:
                dump = dumps[args.src.index(src)] if i == 0 else None
                runs[src].append(run_once(src, args.repeats, dump))
        results = [dict(np.load(dump)) for dump in dumps]
    table = {}
    for row in ROWS:
        sides = {src: [r[row]["ms"] for r in runs[src]] for src in args.src}
        medians = [statistics.median(sides[src]) for src in args.src]
        minima = [min(sides[src]) for src in args.src]
        digests = {r[row]["digest"] for src in args.src for r in runs[src]}
        first = runs[args.src[0]][0][row]
        table[row] = {
            **{k: first[k] for k in ("matrices", "samples") if k in first},
            "ms": sides,
            "median_ms": dict(zip(args.src, medians)),
            "min_ms": dict(zip(args.src, minima)),
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
