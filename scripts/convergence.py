#!/usr/bin/env python3
"""Step-count convergence table of the monodromy kernel on the recipe shapes.

For every shipped recipe shape and every step count it records the largest
quasienergy deviation from the adaptive DOP853 oracle of tests/helpers.py
on sampled points, verdict mismatches, the topological outputs (W^S,
midgap modes, growth rate) and the pseudo-unitarity residual; on the drive
planes also the largest deviation of any cell from the table's finest step
count (``max_deps_vs_finest``), which for ``--steps 64 512`` measures the
64-step error of the whole plane.  The kernel
is sixth order, so the deviation falls about 64x per step doubling until
it reaches the oracle's own error near 1e-11.  The recipes'
``numerics.steps`` are read off this table: the smallest power of two
whose deviation stays at or below 1.2e-6, the worst-shape error of the
previous fourth-order kernel at 256 steps, on every shape.

    PYTHONPATH=src python3 scripts/convergence.py --out convergence.json
    PYTHONPATH=src python3 scripts/convergence.py --plane 41 --steps 64 128

The full 201x201 drive plane integrates 40401 propagators per step count
and takes about a minute at 2048 steps on two cores.
"""

import argparse
import importlib.util
import json
import math
import pathlib

import numpy as np

from floqbog.dynamics import (_chain_propagation, _sector_residual, chain_spectrum,
                              detect_midgap, evolve_vacuum, growth_rate_fit)
from floqbog.floquet import (TOL_IM, check_cells, classify_arrays, eig_branches, fold, kgrid,
                             solve_cells, step_norm, step_weights, sympl_residual)
from floqbog.model import ModelParams, bloch_blocks, chain_blocks, field_matrix, static_block
from floqbog.topology import symplectic_winding

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECIPES = ROOT / "src" / "floqbog" / "recipes"
STEPS = (64, 128, 256, 512, 1024, 2048)
#: sampled points per shape that are checked against the DOP853 oracle
SAMPLES = 16


def load_oracle():
    spec = importlib.util.spec_from_file_location("helpers", ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dop853_monodromy


def recipe(name: str) -> dict:
    return json.loads((RECIPES / f"{name}.json").read_text())


def eps_deviation(eps, ref, omega: float) -> float:
    """Largest distance from a quasienergy of ``eps`` to the nearest one of ``ref``."""
    dr = np.abs(fold(eps.real[..., :, None] - ref.real[..., None, :], omega))
    di = np.abs(eps.imag[..., :, None] - ref.imag[..., None, :])
    return float((dr + di).min(axis=-1).max())


def oracle_branches(oracle, h0, h1, omega: float, idx):
    """(eps, cnorm) of the DOP853 monodromy at the sampled batch indices."""
    us = np.array([oracle(h0[i], h1[i], omega) for i in idx])
    eps, cnorm, _, _ = eig_branches(us, omega)
    return eps, cnorm


def solve_batch(h0, h1, omega: float, steps: int):
    """eps, cnorm, pseudo-unitarity residual and ``step_norm`` of every
    propagator of a batch, integrated and solved chunk by chunk
    (``solve_cells``, one propagator per cell)."""
    h0, h1 = np.broadcast_arrays(h0, h1)
    shape = h0.shape
    eps = np.empty(shape[:-1], dtype=complex)
    cnorm = np.empty(shape[:-1], dtype=int)
    residual = np.empty(shape[0])

    def record(at, u):
        eps[at], cnorm[at], _, _ = eig_branches(u, omega)
        residual[at] = sympl_residual(u)

    check_cells(solve_cells(lambda cells: (h0[cells], h1[cells]), shape[:-2], omega, steps,
                            "convergence", record))
    return eps, cnorm, residual, step_norm(step_weights(omega, steps)[0], h0, h1)


def bulk(name: str, oracle, steps_list) -> list[dict]:
    """Spectrum recipe: the k-grid at the recipe's nk, plus W^S where defined."""
    cfg = recipe(name)
    p = ModelParams(**cfg["model"])
    nk = cfg["numerics"]["nk"]
    h0, h1 = bloch_blocks(p, kgrid(nk))
    idx = np.linspace(0, nk - 1, SAMPLES).astype(int)
    ref, ref_cnorm = oracle_branches(oracle, h0, h1, p.omega, idx)
    ref_codes = classify_arrays(ref, ref_cnorm, p.omega, TOL_IM)
    rows = []
    for steps in steps_list:
        eps, cnorm, residual, _ = solve_batch(h0, h1, p.omega, steps)
        codes = classify_arrays(eps, cnorm, p.omega, TOL_IM)
        row = {
            "steps": steps,
            "max_deps": eps_deviation(eps[idx], ref, p.omega),
            "verdict_mismatches": int((codes[idx] != ref_codes).sum()),
            "sampled": len(idx),
            "max_im": float(eps.imag.max()),
            "sympl_residual": float(residual.max()),
        }
        if (codes == 0).all():
            ws = symplectic_winding(p, nk, steps)
            row["ws"], row["ws_residual"] = ws.ws, ws.residual
        rows.append(row)
    return rows


def plane(points: int, oracle, steps_list) -> list[dict]:
    """fig2b drive plane at points x points cells."""
    cfg = recipe("fig2b")
    m, task = cfg["model"], cfg["task"]
    hx1, hy1 = np.meshgrid(np.linspace(task["hx1"]["min"], task["hx1"]["max"], points),
                           np.linspace(task["hy1"]["min"], task["hy1"]["max"], points))
    h1 = field_matrix(hx1, hy1).reshape(-1, 4, 4)
    h0 = static_block(-m["nu0"], 0.0, m["mu"], m["g"])
    h0s = np.broadcast_to(h0, h1.shape)
    omega = m["omega"]
    idx = np.random.default_rng(points).choice(len(h1), SAMPLES, replace=False)
    ref, _ = oracle_branches(oracle, h0s, h1, omega, idx)
    ref_unstable = np.abs(ref.imag).max(axis=-1) > TOL_IM
    finest = finest_eps = None
    rows = []
    for steps in sorted(steps_list, reverse=True):
        eps, cnorm, residual, step_norm = solve_batch(h0, h1, omega, steps)
        codes = classify_arrays(eps, cnorm, omega, TOL_IM)
        unstable = codes == 2
        if finest is None:
            finest, finest_eps = unstable, eps
        rows.append({
            "steps": steps,
            "max_deps": eps_deviation(eps[idx], ref, omega),
            "max_deps_vs_finest": eps_deviation(eps, finest_eps, omega),
            "verdict_mismatches": int((unstable[idx] != ref_unstable).sum()),
            "sampled": len(idx),
            "unstable_cells": int(unstable.sum()),
            "cells": len(h1),
            "flips_vs_finest": int((unstable != finest).sum()),
            "stable_im_floor": float(np.abs(eps.imag[~unstable]).max()),
            "max_step_norm": float(step_norm.max()),
            "sympl_residual": float(residual.max()),
        })
    return rows[::-1]


def chain(oracle, steps_list) -> tuple[list[dict], list[dict]]:
    """fig3a chain spectrum and fig3b vacuum evolution at the recipe sizes, the
    chain integrated as the two parity sectors that ``chain`` and ``evolve`` use."""
    ca, cb = recipe("fig3a"), recipe("fig3b")
    p = ModelParams(**ca["model"])
    cells = ca["task"]["cells"]
    ref = eig_branches(oracle(*chain_blocks(p, cells), p.omega), p.omega)[0]
    spectra, evolutions = [], []
    for steps in steps_list:
        spec = chain_spectrum(p, cells, steps)
        flagged, (left, right) = detect_midgap(spec)
        mid_im = spec.eps[list(flagged)].imag
        spectra.append({
            "steps": steps,
            "max_deps": eps_deviation(spec.eps, ref, p.omega),
            "midgap": len(flagged),
            "left_right": [left, right],
            "min_midgap_im": float(np.abs(mid_im).min()) if len(mid_im) else None,
            "max_midgap_im": float(mid_im.max()) if len(mid_im) else None,
            "sympl_residual": _sector_residual(_chain_propagation(p, cells, steps).u),
        })
        task = cb["task"]
        trace = evolve_vacuum(p, task["cells"], task["t_max"], task["samples"], steps)
        rate, target = growth_rate_fit(trace), 2.0 * float(mid_im.max())
        resid = float(trace.sympl_residual.max())
        evolutions.append({
            "steps": steps,
            "growth_rate": rate,
            "growth_rel_err": abs(rate - target) / target,
            "truncated": trace.truncated,
            "max_block_residual": resid,
            "accuracy_digits": -math.log10(resid),
        })
    return spectra, evolutions


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", type=int, nargs="+", default=list(STEPS))
    ap.add_argument("--plane", type=int, nargs="+", default=[41, 201],
                    help="drive-plane grid sizes (points per axis)")
    ap.add_argument("--out", type=pathlib.Path, help="write the table as JSON")
    args = ap.parse_args()
    oracle = load_oracle()
    table = {"steps": args.steps, "sampled_points": SAMPLES}
    for name in ("fig1b", "fig1c"):
        table[name] = bulk(name, oracle, args.steps)
    for points in args.plane:
        table[f"fig2b_{points}x{points}"] = plane(points, oracle, args.steps)
    table["fig3a"], table["fig3b"] = chain(oracle, args.steps)
    for shape, rows in table.items():
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            print(shape)
            for row in rows:
                print("  " + "  ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                                       for k, v in row.items()))
    if args.out:
        args.out.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
