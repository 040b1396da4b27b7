"""The three workloads: which CLI recipes they run, at which sizes, and how a
seed jitters the model parameters.

Seed 0 runs the shipped recipe points exactly.  Any other seed moves a few
model parameters uniformly inside a window where every physics check of
``checks.py`` is known to hold (the windows were validated on seeds 0-20).
The program only ever sees the resulting ``--recipe``/``--set`` arguments.

The benchmark fixes sizes (grid points, nk, scan points) but never sets
``numerics.steps``: step counts come from the recipe or the CLI default, so
a change that re-derives them is measured the way users run it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: the benchmark point of the paper, shared by the fig1b/fig2b/fig3 recipes
POINT_A = {"nu0": 1.5, "nu1": 3.0, "nu1p": 11.0, "mu": -5.0}

#: half-widths of the uniform jitter windows, per workload and parameter
WINDOWS = {
    "drive-plane": {"nu0": 0.05, "mu": 0.03},
    "bulk-topology": {"nu0": 0.03, "nu1": 0.05, "nu1p": 0.1, "mu": 0.02},
    "open-chain": {"nu0": 0.02, "nu1": 0.05, "nu1p": 0.1, "mu": 0.02},
}
WORKLOADS = tuple(WINDOWS)

#: 41x41 keeps a drive-plane pass near 3.5 s, so the median of a run is taken
#: over about eight passes: single passes of this shape spread 20-40 %
GRID_POINTS = 41
#: the scan-path minimum; with nk 64 a bulk-topology pass takes 11-15 s, so a
#: run times two or three passes instead of a single 17-20 s one
SCAN_POINTS = 16
SCAN_NK = 64
PHASE_AXES = (
    {"name": "nu1p", "min": 9.0, "max": 11.0, "points": 3},
    {"name": "mu", "min": -5.05, "max": -4.95, "points": 3},
)
PHASE_NK = 64
FIG1C_NU1P = 6.0


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``argv`` lacks only ``--output``."""

    name: str
    argv: tuple[str, ...]


def jitter(workload: str, seed: int) -> dict[str, float]:
    """Model offsets for ``seed``: all zero at seed 0, else uniform in the window."""
    window = WINDOWS[workload]
    if seed == 0:
        return {key: 0.0 for key in window}
    rng = np.random.default_rng([seed, sorted(WINDOWS).index(workload)])
    return {key: round(float(rng.uniform(-w, w)), 4) for key, w in window.items()}


def _sets(values: dict) -> list[str]:
    out = []
    for key, val in values.items():
        out += ["--set", f"{key}={json.dumps(val)}"]
    return out


def _model(offsets: dict, base: dict, skip=()) -> dict:
    return {
        f"model.{k}": round(base[k] + d, 4)
        for k, d in offsets.items()
        if d != 0.0 and k not in skip
    }


def build_ops(workload: str, seed: int) -> list[Op]:
    """The recipe invocations of one pass, in execution order."""
    off = jitter(workload, seed)
    if workload == "drive-plane":
        sizes = {"task.hx1.points": GRID_POINTS, "task.hy1.points": GRID_POINTS}
        argv = ["stability-grid", "--recipe", "fig2b", *_sets({**_model(off, POINT_A), **sizes})]
        return [Op("fig2b", tuple(argv))]
    if workload == "bulk-topology":
        a = _model(off, POINT_A)
        c = _model(off, {**POINT_A, "nu1p": FIG1C_NU1P})
        scan = {"numerics.nk": SCAN_NK, "task.points": SCAN_POINTS,
                "task.end_model": {"nu1p": 0.0}}
        phase = {
            **_model(off, POINT_A, skip=("nu1p", "mu")),
            "numerics.nk": PHASE_NK,
            "task.axis1": PHASE_AXES[0],
            "task.axis2": PHASE_AXES[1],
            "task.overlay": True,
            "task.overlay_nk": PHASE_NK,
        }
        return [
            Op("fig1b", ("spectrum", "--recipe", "fig1b", *_sets(a))),
            Op("fig1c", ("spectrum", "--recipe", "fig1c", *_sets(c))),
            Op("ws", ("ws", "--recipe", "fig1b", *_sets(a))),
            Op("scan", ("scan-path", "--recipe", "fig1b", *_sets({**a, **scan}))),
            Op("phase", ("phase-diagram", "--recipe", "fig1b", *_sets(phase))),
        ]
    if workload == "open-chain":
        a = _model(off, POINT_A)
        return [
            Op("fig3a", ("chain", "--recipe", "fig3a", *_sets(a))),
            Op("fig3b", ("evolve", "--recipe", "fig3b", *_sets(a))),
        ]
    raise ValueError(f"unknown workload {workload!r}")

