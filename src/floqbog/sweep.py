"""Parameter-grid engines: stability diagrams, phase diagrams, overlays.

Two grid constructions appear.  The drive-plane diagram fixes the static
field and treats the drive amplitudes (hx1, hy1) as free coordinates: each
cell is a standalone driven 4x4 problem, and a momentum cut of the chain
traces the closed curve gamma(k) = (-nu1 - nu1p cos k, -nu1p sin k)
through that plane.  The phase diagram varies two model parameters with
the rest fixed and labels each cell Unstable, (Stable, W^S = n) or Failed.

Every grid comes back as a table: a numpy record array with one row per
cell in row-major order (x fastest), whose field names are the CSV header.
"""

from __future__ import annotations

from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import numpy as np

from .effective import choose_indices, effective_spectrum
from .floquet import (DEFAULT_STEPS, TOL_IM, fail_unresolved, mirror_half, quasienergies,
                      solve_cells)
from .model import ModelParams, field_matrix, static_block
from .topology import evaluate_points


def stability_grid(
    static_field: tuple[float, float],
    omega: float,
    mu: float,
    g: float,
    hx1: np.ndarray,
    hy1: np.ndarray,
    steps: int = DEFAULT_STEPS,
    tol_im: float = TOL_IM,
) -> np.recarray:
    """Stability diagram of the standalone 4x4 problem over the drive plane.

    ``hx1`` and ``hy1`` are the two axes; the table has the fields hx1, hy1,
    verdict, max_im and error.  Valid as a chain diagnostic when the static
    field is k-independent (nu0p = 0), in which case every momentum of the
    full model lands on some point of this plane.  Cells integrate in
    chunks (``solve_cells``) and only their eigenvalues are computed: a cell is
    Unstable when any |Im eps| exceeds ``tol_im``, and max_im is its largest
    Im eps (``quasienergies``, unpaired).  A cell that fails ``solve_cells``
    is Failed with NaN max_im and carries the message in its ``error``; so
    is every cell, with its computed max_im, when ``tol_im`` lies below the
    quasienergy resolution at ``omega`` (``fail_unresolved``).

    With hy0 = 0 in ``static_field``, the plane has two mirror symmetries,
    and only one quadrant of it is integrated:

    - hy1 -> -hy1: H(hx1, -hy1) = C H(hx1, hy1) C for C = CONJUGATION;
    - hx1 -> -hx1: shifting time by T/2 flips cos(omega t), so
      H_(hx1, hy1)(t + T/2) = H_(-hx1, -hy1)(t), whose monodromy is
      W U(T) W^-1 with W = U(T/2); composed with C this maps hy1 back.

    A cell and its mirrors therefore have similar propagators and the same
    verdict, max_im and error.  On each axis ``mirror_half`` picks the
    entries to integrate: those not negative, and each negative entry whose
    negative is not on the axis; the other entries copy their mirror.  With
    hy0 != 0 only the point reflection (hx1, hy1) -> (-hx1, -hy1) holds,
    which is not separable, and the whole plane is integrated.
    """
    mirrored = static_field[1] == 0.0
    (rows, fill_rows), (cols, fill_cols) = (
        mirror_half(a) if mirrored else (np.arange(len(a)),) * 2 for a in (hy1, hx1)
    )
    x, y = (a.ravel() for a in np.meshgrid(np.asarray(hx1)[cols], np.asarray(hy1)[rows]))
    eps = np.full((x.size, 4), complex(np.nan, np.nan))

    def solve(at, u):
        eps[at] = quasienergies(u, omega)

    error = solve_cells(lambda c: (static_block(*static_field, mu, g), field_matrix(x[c], y[c])),
                        x.shape, omega, steps, "drive plane", solve)
    fail_unresolved(error, omega, tol_im)
    unstable = np.where((np.abs(eps.imag) > tol_im).any(axis=-1), "Unstable", "Stable")
    fill = (fill_rows[:, None] * len(cols) + fill_cols).ravel()
    verdict = np.where(np.equal(error, None), unstable, "Failed")[fill]
    x, y = np.meshgrid(hx1, hy1)  # (n2, n1)
    return np.rec.fromarrays(
        [a.ravel() for a in (x, y, verdict, eps.imag.max(axis=-1)[fill], error[fill])],
        names=["hx1", "hy1", "verdict", "max_im", "error"],
    )


def _plane(base: ModelParams, axis1: tuple, axis2: tuple):
    """Row-major (x fastest) coordinates and model points of a two-parameter grid."""
    (name1, values1), (name2, values2) = axis1, axis2
    if not {name1, name2} <= {f.name for f in fields(ModelParams)}:
        raise ValueError(f"grid axes must be model parameters, got {sorted({name1, name2})}")
    if name1 == name2:
        raise ValueError(f"grid axes must differ, both are {name1!r}")
    x, y = (c.ravel() for c in np.meshgrid(values1, values2))
    points = [replace(base, **{name1: float(a), name2: float(b)}) for a, b in zip(x, y)]
    return x, y, points


def phase_diagram(
    base: ModelParams,
    axis1: tuple[str, np.ndarray],
    axis2: tuple[str, np.ndarray],
    nk: int = 128,
    steps: int = DEFAULT_STEPS,
    tol_im: float = TOL_IM,
) -> np.recarray:
    """Topological phase diagram over two (name, values) model-parameter axes.

    The other parameters come from ``base``.  Each cell reports Unstable or
    (Stable, W^S); cells where the invariant cannot be evaluated carry the
    failure message instead of a guess, and a cell whose solve failed
    (``evaluate_points``) is Failed with NaN max_im and its message.  The
    table's fields are the two axis names, verdict, max_im, ws and error.
    """
    x, y, points = _plane(base, axis1, axis2)
    stable, max_im, ws, error = evaluate_points(points, nk, steps, tol_im)
    verdict = np.where(stable, "Stable", np.where(np.equal(error, None), "Unstable", "Failed"))
    return np.rec.fromarrays(
        [x, y, verdict, max_im, ws, error],
        names=[axis1[0], axis2[0], "verdict", "max_im", "ws", "error"],
    )


def effective_phase_overlay(
    base: ModelParams,
    axis1: tuple[str, np.ndarray],
    axis2: tuple[str, np.ndarray],
    nk: int = 128,
    tol_im: float = TOL_IM,
) -> np.recarray:
    """Fast effective-Hamiltonian stability verdicts over the same grid.

    The indices are chosen once at the grid center (``choose_indices``), so
    the overlay uses a single rotating frame throughout, and one
    ``effective_spectrum`` call evaluates every point, each with the bits it
    has alone.  The table's fields are the two axis names, verdict and max_im.
    """
    x, y, _ = _plane(base, axis1, axis2)
    center = {name: float(values[len(values) // 2]) for name, values in (axis1, axis2)}
    alpha, beta = choose_indices(replace(base, **center))
    points = SimpleNamespace(**{**asdict(base), axis1[0]: x[:, None], axis2[0]: y[:, None]})
    _, _, max_im, verdict = effective_spectrum(points, nk, alpha, beta, tol_im)
    return np.rec.fromarrays(
        [x, y, verdict, max_im],
        names=[axis1[0], axis2[0], "verdict", "max_im"],
    )
