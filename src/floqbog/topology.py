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

import numpy as np
from scipy.optimize import linear_sum_assignment

from .floquet import (
    DEFAULT_STEPS,
    TOL_IM,
    IntegrationError,
    classify_arrays,
    kgrid,
    kgrid_solve,
)
from .model import ModelParams, nambu_metric, static_fields

#: matched-overlap magnitude below which a tracking is rejected
MIN_TRACK_OVERLAP = 0.5
#: best-vs-runner-up overlap gap below which the matching is ambiguous
AMBIGUITY_GAP = 1e-3
#: per-link Wilson phase above which the grid is too coarse to unwrap
MAX_LINK_PHASE = 2.5


class TrackingError(RuntimeError):
    """Band continuation across the k-grid failed or is ambiguous."""


class InvariantUndefinedError(RuntimeError):
    """A topological invariant was requested where it is not defined."""


#: numerical failures that ``evaluate_point`` records per point instead of raising
_POINT_ERRORS = (IntegrationError, TrackingError, InvariantUndefinedError)


@dataclass(frozen=True)
class TrackedBands:
    """Quasienergy bands matched continuously across the momentum grid.

    ``eps``, ``cnorm`` have shape (nk, nbands); ``states`` is
    (nk, nbands, dim) with symplectically normalized vectors; ``closure``
    holds the |Sigma_z overlap| between the last and first grid point per
    band.
    """

    kgrid: np.ndarray
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


@dataclass(frozen=True)
class ScanPoint:
    """Stability and (when defined) W^S at one point of a parameter path."""

    fraction: float
    params: ModelParams
    stable: bool
    max_im: float
    ws: int | None
    error: str | None


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


def _grid_data(params: ModelParams, nk: int, steps: int):
    ks, eps, cnorm, states = kgrid_solve(params, nk, steps)
    codes = classify_arrays(eps, cnorm, params.omega, TOL_IM, 1e-6 * params.omega)
    return ks, eps, cnorm, states, codes


def _track(ks, eps, cnorm, states, omega: float) -> TrackedBands:
    nk, nb = eps.shape
    sz = nambu_metric(states.shape[-1])
    perm = np.empty((nk, nb), dtype=int)
    perm[0] = np.arange(nb)
    prev = states[0]
    for j in range(1, nk):
        ov = np.abs(np.einsum("im,m,nm->in", prev.conj(), sz, states[j]))
        _, col = linear_sum_assignment(-ov)
        matched = ov[np.arange(nb), col]
        if matched.min() <= MIN_TRACK_OVERLAP:
            raise TrackingError(
                f"band continuation lost at k={ks[j]:+.4f} "
                f"(overlap {matched.min():.3f} <= {MIN_TRACK_OVERLAP}); increase Nk"
            )
        runner_up = np.sort(ov, axis=1)[:, -2]
        if (matched - runner_up).min() < AMBIGUITY_GAP:
            raise TrackingError(
                f"ambiguous band matching at k={ks[j]:+.4f} "
                f"(two overlaps within {AMBIGUITY_GAP}); increase Nk"
            )
        perm[j] = col
        prev = states[j][col]
    eps_t = np.take_along_axis(eps, perm, axis=1)
    cn_t = np.take_along_axis(cnorm, perm, axis=1)
    st_t = np.take_along_axis(states, perm[:, :, None], axis=1)
    closure = np.abs(np.einsum("im,m,im->i", st_t[-1].conj(), sz, st_t[0]))
    return TrackedBands(ks, eps_t, cn_t, st_t, closure, omega)


def track_bands(params: ModelParams, nk: int = 256, steps: int = DEFAULT_STEPS) -> TrackedBands:
    """Match quasienergy branches continuously across the momentum grid.

    Adjacent grid points are paired by maximal |Sigma_z overlap| (globally,
    as an assignment problem); requires a globally strongly stable system.
    """
    ks, eps, cnorm, states, codes = _grid_data(params, nk, steps)
    if (codes != 0).any():
        raise InvariantUndefinedError(
            "band tracking requires a globally strongly stable system "
            f"(worst Im eps = {eps.imag.max():.2e})"
        )
    return _track(ks, eps, cnorm, states, params.omega)


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
    params: ModelParams, nk: int = 256, steps: int = DEFAULT_STEPS
) -> InvariantResult:
    """Symplectic winding W^S of the driven system.

    Evaluated as a discrete Wilson loop of the Sigma_z inner product over
    the band set S (positive quasienergies with norm +1 at every k), summed
    and divided by pi.  Refuses when the system is not globally strongly
    stable.
    """
    ks, eps, cnorm, states, codes = _grid_data(params, nk, steps)
    if (codes != 0).any():
        raise InvariantUndefinedError(
            "W^S is only defined for globally strongly stable systems "
            f"(worst Im eps = {eps.imag.max():.2e})"
        )
    return _winding_from_tracked(_track(ks, eps, cnorm, states, params.omega))


def interpolate(start: ModelParams, end: ModelParams, fraction: float) -> ModelParams:
    """Linear interpolation of every model parameter."""
    values = {
        f.name: (1.0 - fraction) * getattr(start, f.name) + fraction * getattr(end, f.name)
        for f in fields(ModelParams)
    }
    return replace(start, **values)


def evaluate_point(
    params: ModelParams, nk: int = 128, steps: int = DEFAULT_STEPS
) -> tuple[bool, float, int | None, str | None]:
    """One-shot (stable, max_im, ws, error) summary of a parameter set.

    Failures of the integrator, the tracking, or the invariant are reported
    through the error slot, so grid and path drivers always complete; any
    other exception is a defect and propagates.
    """
    try:
        ks, eps, cnorm, states, codes = _grid_data(params, nk, steps)
    except _POINT_ERRORS as exc:
        return False, math.nan, None, str(exc)
    stable = bool((codes != 2).all())
    max_im = float(eps.imag.max())
    ws, err = None, None
    if stable and (codes == 0).all():
        try:
            ws = _winding_from_tracked(_track(ks, eps, cnorm, states, params.omega)).ws
        except _POINT_ERRORS as exc:
            err = str(exc)
    elif stable:
        err = "not strongly stable: W^S undefined"
    return stable, max_im, ws, err


def scan_path(
    params_start: ModelParams,
    params_end: ModelParams,
    n_points: int = 17,
    nk: int = 128,
    steps: int = DEFAULT_STEPS,
) -> list[ScanPoint]:
    """Stability and W^S along a straight parameter path.

    Per-point failures are recorded, never raised, so a scan always
    completes.  Whenever W^S differs between two stable points, physics
    requires at least one unstable point in between.
    """
    if n_points < 16:
        raise ValueError(f"need at least 16 scan points, got {n_points}")
    out = []
    for fraction in np.linspace(0.0, 1.0, n_points):
        p = interpolate(params_start, params_end, float(fraction))
        stable, max_im, ws, err = evaluate_point(p, nk, steps)
        out.append(ScanPoint(float(fraction), p, stable, max_im, ws, err))
    return out
