"""Parameter-grid engines: stability diagrams, phase diagrams, overlays.

Two grid constructions appear.  The drive-plane diagram fixes the static
field and treats the drive amplitudes (hx1, hy1) as free coordinates: each
cell is a standalone driven 4x4 problem, and a momentum cut of the chain
traces the closed curve gamma(k) = (-nu1 - nu1p cos k, -nu1p sin k)
through that plane.  The phase diagram varies two model parameters with
the rest fixed and labels each cell Unstable or (Stable, W^S = n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .effective import choose_indices, effective_spectrum
from .floquet import (
    DEFAULT_STEPS,
    MAX_STEP_NORM,
    TOL_IM,
    classify_arrays,
    eig_branches,
    kgrid,
    propagate,
)
from .model import SX, I2, ModelParams, drive_amplitudes, field_matrix
from .topology import evaluate_point


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid over two named parameters, the rest held fixed."""

    axis1: str
    range1: tuple[float, float]
    n1: int
    axis2: str
    range2: tuple[float, float]
    n2: int
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, (lo, hi), n in (
            (self.axis1, self.range1, self.n1),
            (self.axis2, self.range2, self.n2),
        ):
            if n < 2:
                raise ValueError(f"axis {name} needs at least 2 points, got {n}")
            if not lo < hi:
                raise ValueError(f"axis {name} range must satisfy min < max, got [{lo}, {hi}]")
        if self.axis1 == self.axis2:
            raise ValueError(f"grid axes must differ, both are {self.axis1!r}")

    @property
    def values1(self) -> np.ndarray:
        return np.linspace(self.range1[0], self.range1[1], self.n1)

    @property
    def values2(self) -> np.ndarray:
        return np.linspace(self.range2[0], self.range2[1], self.n2)

    def cells(self):
        """Row-major (x fastest) iteration over cell coordinates."""
        for y in self.values2:
            for x in self.values1:
                yield float(x), float(y)


@dataclass(frozen=True)
class StabilityCell:
    x: float
    y: float
    verdict: str
    max_im: float
    error: str | None = None


@dataclass(frozen=True)
class PhaseCell:
    x: float
    y: float
    verdict: str
    max_im: float
    ws: int | None = None
    error: str | None = None


def stability_grid(
    static_field: tuple[float, float],
    omega: float,
    mu: float,
    g: float,
    grid: GridSpec,
    steps: int = DEFAULT_STEPS,
    tol_im: float = TOL_IM,
) -> list[StabilityCell]:
    """Stability diagram of the standalone 4x4 problem over the drive plane.

    Valid as a chain diagnostic when the static field is k-independent
    (nu0p = 0), in which case every momentum of the full model lands on
    some point of this plane.  All cells integrate in one batched pass;
    a cell whose propagator fails the step-size guard or is non-finite is
    kept out of the eigensolver and reported through its ``error``.  When
    the batched eigensolve fails, the cells are retried one by one and
    only those that fail again are reported as errors.
    """
    if (grid.axis1, grid.axis2) != ("hx1", "hy1"):
        raise ValueError(
            f"stability_grid wants axes ('hx1', 'hy1'), got ({grid.axis1!r}, {grid.axis2!r})"
        )
    hx1, hy1 = np.meshgrid(grid.values1, grid.values2)  # (n2, n1)
    h1 = field_matrix(hx1, hy1)
    static = (
        field_matrix(static_field[0], static_field[1])
        - mu * np.eye(4)
        + g * np.kron(SX, I2)
    )
    prop = propagate(static, h1, omega, steps)
    ok = (prop.step_norm <= MAX_STEP_NORM) & np.isfinite(prop.u).all(axis=(-2, -1))
    codes = np.full(ok.shape, 2)
    max_im = np.full(ok.shape, math.nan)
    failed = {}

    def classify(cells):
        eps, cnorm, _, _ = eig_branches(prop.u[cells], omega)
        codes[cells] = classify_arrays(eps, cnorm, omega, tol_im)
        max_im[cells] = eps.imag.max(axis=-1)

    try:
        classify(ok)
    except np.linalg.LinAlgError:
        # one matrix the eigensolver rejects must not take down the grid
        for cell in zip(*np.nonzero(ok)):
            try:
                classify(cell)
            except np.linalg.LinAlgError as exc:
                ok[cell] = False
                failed[cell] = f"eigensolver failed: {exc}"
    out = []
    for j2 in range(grid.n2):
        for j1 in range(grid.n1):
            x, y = float(hx1[j2, j1]), float(hy1[j2, j1])
            if ok[j2, j1]:
                verdict = "Unstable" if codes[j2, j1] == 2 else "Stable"
                out.append(StabilityCell(x, y, verdict, float(max_im[j2, j1])))
            elif prop.step_norm[j2, j1] > MAX_STEP_NORM:
                out.append(StabilityCell(
                    x, y, "Unstable", math.nan,
                    f"integrator step too coarse for the drive (h (|H0| + |H1|) = "
                    f"{prop.step_norm[j2, j1]:.3g} > {MAX_STEP_NORM}); increase the step count",
                ))
            else:
                error = failed.get((j2, j1), "non-finite propagator")
                out.append(StabilityCell(x, y, "Unstable", math.nan, error))
    return out


def curve_gamma(params: ModelParams, nk: int = 256) -> np.ndarray:
    """Closed drive-plane curve traced by the chain's momenta, shape (nk, 2).

    A circle of radius |nu1p| centered at (-nu1, 0); contractible to a
    point when nu1p = 0.
    """
    hx1, hy1 = drive_amplitudes(params, kgrid(nk))
    return np.column_stack([hx1, hy1])


def _cell_params(grid: GridSpec) -> list[ModelParams]:
    names = {f.name for f in fields(ModelParams)}
    axes = {grid.axis1, grid.axis2}
    if not axes <= names:
        raise ValueError(f"grid axes must be model parameters, got {sorted(axes)}")
    missing = names - axes - set(grid.fixed)
    if missing:
        raise ValueError(f"fixed parameters missing {sorted(missing)}")
    overlap = axes & set(grid.fixed)
    if overlap:
        raise ValueError(f"parameters {sorted(overlap)} are both axes and fixed")
    extra = set(grid.fixed) - names
    if extra:
        raise ValueError(f"unknown fixed parameters {sorted(extra)}")
    return [
        ModelParams(**{**grid.fixed, grid.axis1: x, grid.axis2: y}) for x, y in grid.cells()
    ]


def phase_diagram(
    grid: GridSpec, nk: int = 128, steps: int = DEFAULT_STEPS
) -> list[PhaseCell]:
    """Topological phase diagram over two model parameters.

    Each cell reports Unstable or (Stable, W^S); cells where the invariant
    cannot be evaluated carry the failure message instead of a guess.
    """
    out = []
    for (x, y), p in zip(grid.cells(), _cell_params(grid)):
        stable, max_im, ws, err = evaluate_point(p, nk, steps)
        out.append(PhaseCell(x, y, "Stable" if stable else "Unstable", max_im, ws, err))
    return out


def effective_phase_overlay(
    grid: GridSpec,
    nk: int = 128,
    alpha: int | None = None,
    beta: int | None = None,
) -> list[StabilityCell]:
    """Fast effective-Hamiltonian stability verdicts over the same grid.

    When the indices are not given they are chosen once at the grid
    center, so the overlay uses a single rotating frame throughout.
    """
    points = _cell_params(grid)
    if alpha is None or beta is None:
        a, b = choose_indices(points[len(points) // 2])
        alpha = a if alpha is None else alpha
        beta = b if beta is None else beta
    out = []
    for (x, y), p in zip(grid.cells(), points):
        _, ep, em, verdict = effective_spectrum(p, nk, alpha, beta)
        max_im = max(float(np.abs(ep.imag).max()), float(np.abs(em.imag).max()))
        out.append(StabilityCell(x, y, verdict, max_im))
    return out
