"""Winding numbers of the undriven and driven chain, and parameter-path scans.

The undriven two-band chain carries the usual winding number W of the
pseudo-field (h_x, h_y) around the Brillouin zone.  For the driven
Bogoliubov problem the generalization is a symplectic winding W^S: the sum
of Zak-type phases, accumulated with the Sigma_z inner product, over the
set S of bands whose quasienergies stay inside (0, omega/2) with
symplectic norm +1 for every momentum.  W^S is only defined for globally
strongly stable systems; parameter paths connecting phases with different
W^S must cross an unstable region, which scan_path exhibits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import permutations
from operator import itemgetter

import numpy as np

from .floquet import DEFAULT_STEPS, TOL_IM, check_cells, classify_arrays, kgrid, kgrid_solve
from .model import ModelParams, nambu_metric, static_fields

#: matched-overlap magnitude below which a tracking is rejected
MIN_TRACK_OVERLAP = 0.5
#: best-vs-runner-up overlap gap below which the matching is ambiguous
AMBIGUITY_GAP = 1e-3
#: per-link Wilson phase above which the grid is too coarse to unwrap
MAX_LINK_PHASE = 2.5
#: the 4! assignments of the four Bloch bands, searched exhaustively by _best_matching
PERMS = np.array(list(permutations(range(4))))


class TrackingError(RuntimeError):
    """Band continuation across the k-grid failed or is ambiguous."""


class InvariantUndefinedError(RuntimeError):
    """A topological invariant was requested where it is not defined."""


@dataclass(frozen=True)
class TrackedBands:
    """Quasienergy bands matched continuously across the momentum grid.

    ``eps``, ``cnorm`` have shape (nk, nbands); ``states`` is
    (nk, nbands, dim) with symplectically normalized vectors; ``closure``
    holds the |Sigma_z overlap| between the last and first grid point per
    band.
    """

    eps: np.ndarray
    cnorm: np.ndarray
    states: np.ndarray
    closure: np.ndarray
    omega: float


@dataclass(frozen=True)
class InvariantResult:
    """Symplectic winding with its pre-rounding value as a trust metric."""

    ws: int
    raw: float
    residual: float
    bandset_size: int


def winding_undriven(params: ModelParams, nk: int = 256) -> int:
    """Winding number of the static pseudo-field around the Brillouin zone.

    Accumulates the phase of h_x(k) + i h_y(k) over the closed grid and
    divides by 2 pi.  Only nu0 and nu0p enter.
    """
    hx, hy = static_fields(params, kgrid(nk))
    h = hx + 1j * hy
    if np.abs(h).min() < 1e-9:
        raise InvariantUndefinedError(
            "winding undefined at degeneracy: the static field vanishes on the grid"
        )
    total = float(np.angle(np.roll(h, -1) / h).sum())
    w = round(total / (2.0 * math.pi))
    residual = abs(total / (2.0 * math.pi) - w)
    if residual > 1e-6:
        raise InvariantUndefinedError(
            f"accumulated phase is not an integer multiple of 2pi (residual {residual:.2e}); "
            "refine the grid"
        )
    return int(w)


def _best_matching(ov: np.ndarray) -> np.ndarray:
    """Column matched to each row by the largest-total matching of (..., 4, 4) overlaps."""
    return PERMS[ov[..., np.arange(4), PERMS].sum(axis=-1).argmax(axis=-1)]


def _track(ks, eps, cnorm, states, omega: float, tol_im: float) -> TrackedBands:
    """Match one point's bands across its k-grid; refuse a point that is not
    strongly stable, where W^S is undefined.

    The |Sigma_z overlaps| of every pair of neighbouring raw states are
    matched at once.  Where every pair passes the overlap and ambiguity
    checks, each row's match beats its runner-up by AMBIGUITY_GAP, so the
    matching is unique and composing the pairs' permutations gives the bands'
    order at every k.  The first failing pair raises, a lost overlap before
    an ambiguity.
    """
    if (classify_arrays(eps, cnorm, omega, tol_im) != 0).any():
        raise InvariantUndefinedError("not strongly stable: W^S undefined")
    nb = eps.shape[1]
    sz = nambu_metric(states.shape[-1])
    ov = np.abs(np.einsum("jim,m,jnm->jin", states[:-1].conj(), sz, states[1:]))
    cols = _best_matching(ov)
    best = np.take_along_axis(ov, cols[..., None], axis=-1)[..., 0]
    matched = best.min(axis=-1)
    lost = matched <= MIN_TRACK_OVERLAP
    failed = lost | ((best - np.sort(ov, axis=-1)[..., -2]).min(axis=-1) < AMBIGUITY_GAP)
    if failed.any():
        j = int(failed.argmax())
        if lost[j]:
            raise TrackingError(
                f"band continuation lost at k={ks[j + 1]:+.4f} "
                f"(overlap {matched[j]:.3f} <= {MIN_TRACK_OVERLAP}); increase Nk"
            )
        raise TrackingError(
            f"ambiguous band matching at k={ks[j + 1]:+.4f} "
            f"(two overlaps within {AMBIGUITY_GAP}); increase Nk"
        )
    perm = [tuple(range(nb))]
    for col in cols.tolist():
        perm.append(itemgetter(*perm[-1])(col))
    perm = np.array(perm)
    eps_t = np.take_along_axis(eps, perm, axis=1)
    cn_t = np.take_along_axis(cnorm, perm, axis=1)
    st_t = np.take_along_axis(states, perm[:, :, None], axis=1)
    closure = np.abs(np.einsum("im,m,im->i", st_t[-1].conj(), sz, st_t[0]))
    return TrackedBands(eps_t, cn_t, st_t, closure, omega)


def track_bands(
    params: ModelParams, nk: int = 256, steps: int = DEFAULT_STEPS, tol_im: float = TOL_IM
) -> TrackedBands:
    """Match quasienergy branches continuously across the momentum grid.

    Every pair of adjacent grid points is matched at once by maximal
    |Sigma_z overlap| (each pair globally, as an assignment problem solved by
    exhaustive search over the 4! matchings), and the pairs' permutations are
    composed along the grid (``_track``); requires a globally strongly
    stable system.
    """
    ks, (eps,), (cnorm,), (states,), error = kgrid_solve([params], nk, steps)
    check_cells(error)
    return _track(ks, eps, cnorm, states, params.omega, tol_im)


def select_band_set(tracked: TrackedBands) -> list[int]:
    """Bands with 0 < Re eps < omega/2 and symplectic norm +1 at every k."""
    re = tracked.eps.real
    inside = (re > 0).all(axis=0) & (re < tracked.omega / 2.0).all(axis=0)
    positive = (tracked.cnorm == 1).all(axis=0)
    return [int(i) for i in np.nonzero(inside & positive)[0]]


def _band_phase(states: np.ndarray) -> float:
    """Unwrapped Wilson-loop phase of one band, in a canonical gauge.

    The gauge makes the particle component on the first sublattice real and
    positive at every k.  That removes any per-k phase of the input exactly
    and keeps the section smooth, so every link phase is O(1/nk) and the
    loop sum unwraps.  The anchor component must be fixed, not chosen per
    band: the chiral symmetry gives the two sublattice components equal
    magnitude, and anchoring the other sublattice flips the sign of the
    winding (the usual sublattice convention of winding numbers).
    """
    amp = states[:, 0]
    if np.abs(amp).min() < 1e-3:
        raise TrackingError(
            "gauge anchor component of the band passes through zero; cannot fix "
            "a smooth gauge for the Wilson loop"
        )
    section = states / (amp / np.abs(amp))[:, None]
    sz = nambu_metric(states.shape[-1])
    links = np.einsum("jm,m,jm->j", section.conj(), sz, np.roll(section, -1, axis=0))
    args = np.angle(links)
    if np.abs(args).max() > MAX_LINK_PHASE:
        raise TrackingError(
            f"Wilson link phase {np.abs(args).max():.2f} too large to unwrap; increase Nk"
        )
    return float(args.sum())


def _winding_from_tracked(tracked: TrackedBands) -> InvariantResult:
    bands = select_band_set(tracked)
    total = sum(_band_phase(tracked.states[:, i]) for i in bands)
    raw = total / math.pi
    ws = round(raw)
    return InvariantResult(int(ws), raw, abs(raw - ws), len(bands))


def symplectic_winding(
    params: ModelParams, nk: int = 256, steps: int = DEFAULT_STEPS, tol_im: float = TOL_IM
) -> InvariantResult:
    """Symplectic winding W^S of the driven system.

    Evaluated as a discrete Wilson loop of the Sigma_z inner product over
    the band set S (positive quasienergies with norm +1 at every k), summed
    and divided by pi.  Refuses when the system is not globally strongly
    stable.
    """
    return _winding_from_tracked(track_bands(params, nk, steps, tol_im))


def interpolate(start: ModelParams, end: ModelParams, fraction: float) -> ModelParams:
    """Linear interpolation of every model parameter; a parameter whose two
    endpoints are equal is returned unchanged, not rounded."""
    values = {}
    for f in fields(ModelParams):
        a, b = getattr(start, f.name), getattr(end, f.name)
        values[f.name] = a if a == b else (1.0 - fraction) * a + fraction * b
    return replace(start, **values)


def evaluate_points(points, nk: int = 128, steps: int = DEFAULT_STEPS, tol_im: float = TOL_IM):
    """Columns stable, max_im, ws and error (None where undefined) of a sequence of points.

    All points solve in one ``kgrid_solve``; tracking and the Wilson loop run
    per point.  A point that fails there, or whose W^S is undefined or fails,
    carries the message in its error (unstable with NaN max_im if it failed
    to solve), so grid and path drivers complete; any other exception
    propagates.
    """
    ks, eps, cnorm, states, error = kgrid_solve(points, nk, steps)
    max_im = eps.imag.max(axis=(1, 2))
    stable = np.zeros(len(points), dtype=bool)
    ws = np.full(len(points), None, dtype=object)
    for i in np.flatnonzero(np.equal(error, None)):
        omega = points[i].omega
        stable[i] = (classify_arrays(eps[i], cnorm[i], omega, tol_im) != 2).all()
        if stable[i]:
            try:
                tracked = _track(ks, eps[i], cnorm[i], states[i], omega, tol_im)
                ws[i] = _winding_from_tracked(tracked).ws
            except (TrackingError, InvariantUndefinedError) as exc:
                error[i] = str(exc)
    return stable, max_im, ws, error


def scan_path(
    params_start: ModelParams,
    params_end: ModelParams,
    n_points: int = 17,
    nk: int = 128,
    steps: int = DEFAULT_STEPS,
    tol_im: float = TOL_IM,
) -> np.recarray:
    """Stability and W^S along a straight parameter path.

    Returns a table with the fields fraction, every model parameter,
    stable, max_im, ws and error, one row per point (``evaluate_points``:
    a point's numerical failure is recorded in its error).  Whenever W^S
    differs between two stable points, physics requires at least one
    unstable point in between.
    """
    if n_points < 16:
        raise ValueError(f"need at least 16 scan points, got {n_points}")
    fractions = np.linspace(0.0, 1.0, n_points)
    points = [interpolate(params_start, params_end, float(f)) for f in fractions]
    names = [f.name for f in fields(ModelParams)]
    return np.rec.fromarrays(
        [fractions, *(np.array([getattr(p, n) for p in points]) for n in names),
         *evaluate_points(points, nk, steps, tol_im)],
        names=["fraction", *names, "stable", "max_im", "ws", "error"],
    )
