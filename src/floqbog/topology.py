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

import numpy as np

from .floquet import (CHUNK, DEFAULT_STEPS, TOL_IM, IntegrationError, classify_arrays,
                      fail_unresolved, kgrid, kgrid_solve)
from .model import ModelParams, nambu_metric, static_fields

#: matched-overlap magnitude below which a tracking is rejected
MIN_TRACK_OVERLAP = 0.5
#: best-vs-runner-up overlap gap below which the matching is ambiguous
AMBIGUITY_GAP = 1e-3
#: per-link Wilson phase above which the grid is too coarse to unwrap
MAX_LINK_PHASE = 2.5
#: the 4! assignments of the four Bloch bands, searched exhaustively by _best_matching
PERMS = np.array(list(permutations(range(4))))
#: the error of a point that is not strongly stable, where W^S is undefined
UNDEFINED = "not strongly stable: W^S undefined"


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
    band.  In the batched W^S path every field has a leading point axis.
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
    if np.abs(h).min() <= 1e-9 * np.abs(h).max():  # relative, so h = 0 is refused too
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


def _track(ks, eps, cnorm, states, omega) -> tuple[TrackedBands, np.ndarray]:
    """Match the bands of P strongly stable points across the k-grid at once.

    ``eps``, ``cnorm`` are (P, nk, nb), ``states`` (P, nk, nb, dim), ``omega`` (P,).
    The |Sigma_z overlaps| of all neighbouring raw states are matched at once.
    Where every pair of a point passes the overlap and ambiguity checks, each
    row's match beats its runner-up by AMBIGUITY_GAP, so the matching is unique
    and composing the pairs' permutations (a doubling scan) orders the bands at
    every k.  Returns the tracked bands and, per point, None or the message of
    its first failing pair, a lost overlap before an ambiguity.
    """
    sz = nambu_metric(states.shape[-1])
    ov = np.abs(np.einsum("pjim,m,pjnm->pjin", states[:, :-1].conj(), sz, states[:, 1:]))
    cols = _best_matching(ov)
    best = np.take_along_axis(ov, cols[..., None], axis=-1)[..., 0]
    matched = best.min(axis=-1)
    lost = matched <= MIN_TRACK_OVERLAP
    failed = lost | ((best - np.sort(ov, axis=-1)[..., -2]).min(axis=-1) < AMBIGUITY_GAP)
    error = np.full(len(eps), None, dtype=object)
    for p in np.flatnonzero(failed.any(axis=1)):
        j = failed[p].argmax()
        error[p] = (f"band continuation lost at k={ks[j + 1]:+.4f} "
                    f"(overlap {matched[p, j]:.3f} <= {MIN_TRACK_OVERLAP}); increase Nk"
                    if lost[p, j] else f"ambiguous band matching at k={ks[j + 1]:+.4f} "
                    f"(two overlaps within {AMBIGUITY_GAP}); increase Nk")
    perm = np.concatenate([np.broadcast_to(np.arange(eps.shape[-1]), cols[:, :1].shape), cols], 1)
    for shift in 2 ** np.arange((perm.shape[1] - 1).bit_length()):  # the doubling scan
        perm[:, shift:] = np.take_along_axis(perm[:, shift:], perm[:, :-shift], axis=-1)
    st_t = np.take_along_axis(states, perm[..., None], axis=-2)
    closure = np.abs(np.einsum("pim,m,pim->pi", st_t[:, -1].conj(), sz, st_t[:, 0]))
    return TrackedBands(np.take_along_axis(eps, perm, axis=-1),
                        np.take_along_axis(cnorm, perm, axis=-1), st_t, closure, omega), error


def select_band_set(tracked: TrackedBands) -> list[int]:
    """Bands with 0 < Re eps < omega/2 and symplectic norm +1 at every k; with a
    leading point axis, the flat indices p nbands + b of the (point, band) pairs."""
    re = tracked.eps.real
    half = np.asarray(tracked.omega)[..., None, None] / 2.0
    return np.flatnonzero(((re > 0) & (re < half) & (tracked.cnorm == 1)).all(axis=-2)).tolist()


def _band_phase(states: np.ndarray):
    """Unwrapped Wilson-loop phases of (..., nk, dim) bands: (phase, error), error
    None or the message of a band whose loop fails (its phase is then not read).

    The gauge makes the particle component on the first sublattice real and
    positive at every k.  That removes any per-k phase of the input exactly
    and keeps the section smooth, so every link phase is O(1/nk) and the
    loop sum unwraps.  The anchor component must be fixed, not chosen per
    band: the chiral symmetry gives the two sublattice components equal
    magnitude, and anchoring the other sublattice flips the sign of the
    winding (the usual sublattice convention of winding numbers).
    """
    lost = np.abs(states[..., 0]).min(axis=-1) < 1e-3
    amp = np.where(lost[..., None], 1.0, states[..., 0])
    section = states / (amp / np.abs(amp))[..., None]
    sz = nambu_metric(states.shape[-1])
    args = np.angle(np.einsum("...jm,m,...jm->...j", section.conj(), sz, np.roll(section, -1, -2)))
    largest = np.abs(args).max(axis=-1)
    error = np.full(lost.shape, None, dtype=object)
    for i in map(tuple, np.argwhere(~lost & (largest > MAX_LINK_PHASE))):
        error[i] = f"Wilson link phase {largest[i]:.2f} too large to unwrap; increase Nk"
    error[lost] = ("gauge anchor component of the band passes through zero; cannot fix "
                   "a smooth gauge for the Wilson loop")
    return args.sum(axis=-1), error


def _winding_from_tracked(tracked: TrackedBands):
    """W^S of tracked points: (results, error), per point an InvariantResult and None
    or the message of its first band in S whose Wilson loop fails.  S is a (points,
    bands) mask; all its phases come from one ``_band_phase`` and add up band by band."""
    nb = tracked.eps.shape[-1]
    states = np.swapaxes(tracked.states, -2, -3).reshape(-1, nb, *tracked.states.shape[-3::2])
    bands = np.zeros(states.shape[:2], dtype=bool)
    bands.flat[select_band_set(tracked)] = True
    phase, failed = np.zeros(bands.shape), np.full(bands.shape, None, dtype=object)
    phase[bands], failed[bands] = _band_phase(states[bands])
    raw = sum(phase.T, 0.0) / math.pi
    error = [next((m for m in row if m is not None), None) for row in failed]
    return [InvariantResult(int(w), r, abs(r - w), int(n))
            for r, w, n in zip(raw.tolist(), np.round(raw).tolist(), bands.sum(axis=1))], error


def _evaluate_pass(ks, eps, cnorm, states, error, omega, tol_im: float):
    """(stable, results) of P solved points, writing their (P,) ``error`` in place; results
    holds an InvariantResult where W^S is defined, else None.  A point failing
    ``fail_unresolved`` or with NaN branches is unstable, and a stable one is UNDEFINED
    unless strongly stable: those are tracked and wound at once."""
    fail_unresolved(error, omega, tol_im)
    code = classify_arrays(eps, cnorm, omega[:, None], tol_im)
    code[~np.equal(error, None)] = 2
    stable = (code != 2).all(axis=1)
    error[stable] = UNDEFINED
    results = np.full(len(eps), None, dtype=object)
    strong = np.flatnonzero((code == 0).all(axis=1))
    if strong.size:
        tracked, error[strong] = _track(ks, *(x[strong] for x in (eps, cnorm, states, omega)))
        for i, result, message in zip(strong, *_winding_from_tracked(tracked)):
            error[i] = error[i] or message
            results[i] = None if error[i] else result
    return stable, results


def symplectic_winding(
    params: ModelParams, nk: int = 256, steps: int = DEFAULT_STEPS, tol_im: float = TOL_IM
) -> InvariantResult:
    """Symplectic winding W^S of the driven system.

    Evaluated as a discrete Wilson loop of the Sigma_z inner product over
    the band set S (positive quasienergies with norm +1 at every k), summed
    and divided by pi: ``evaluate_points``' pass at one point.  Raises
    InvariantUndefinedError where W^S is undefined, and else the point's
    error, as TrackingError if it is stable and IntegrationError if not.
    """
    solved = kgrid_solve([params], nk, steps)
    (stable,), (result,) = _evaluate_pass(*solved, np.array([params.omega]), tol_im)
    (message,) = solved[-1]
    if result is not None:
        return result
    if message in (None, UNDEFINED):
        raise InvariantUndefinedError(UNDEFINED)
    raise (TrackingError if stable else IntegrationError)(message)


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

    One ``kgrid_solve`` serves all points, and one ``_evaluate_pass`` (classify,
    track, wind) each pass over CHUNK // nk of them, which bounds the temporaries.
    A point that fails to solve or to resolve its verdict is unstable with its
    message (NaN max_im if unsolved); one that fails later, or whose W^S is
    undefined, carries the message it raises alone in its error, so grid and path
    drivers complete; any other exception propagates.
    """
    ks, eps, cnorm, states, error = kgrid_solve(points, nk, steps)
    omega = np.array([p.omega for p in points])
    stable = np.zeros(len(points), dtype=bool)
    ws = np.full(len(points), None, dtype=object)
    size = max(1, CHUNK // nk)
    for at in (slice(i, i + size) for i in range(0, len(points), size)):
        stable[at], results = _evaluate_pass(ks, eps[at], cnorm[at], states[at], error[at],
                                             omega[at], tol_im)
        ws[at] = [None if r is None else r.ws for r in results]
    return stable, eps.imag.max(axis=(1, 2)), ws, error


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
