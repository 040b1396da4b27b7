"""Time-independent effective Hamiltonian via a rotating-wave approximation.

Transforming to an interaction picture that absorbs the cosine drive (with
an alpha-fold winding of the drive phase) and beta half-quanta of the
chemical potential, then time-averaging, yields a static Bogoliubov
Hamiltonian whose coefficients involve Bessel functions of the drive
magnitude.  Its closed-form spectrum eps_pm reproduces the numerical
quasienergies modulo omega/2 and gives a fast stability estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .floquet import TOL_IM, kgrid
from .model import ModelParams, drive_amplitudes, static_fields

#: drive magnitude below which the drive phase phi_k is conventionally zero
AMP_TOL = 1e-12
#: momenta over which ``choose_indices`` takes the worst case, and its largest |alpha|
CHOOSE_NK, ALPHA_RANGE = 128, 6
#: largest max|z| + |n| of ``_bessel_j``, whose node count (and memory) grows with it
BESSEL_REACH = 1e4
#: most (argument, node) terms ``_bessel_j`` forms at once
BESSEL_BLOCK = 2**17
#: largest |h_eff|, |G|, |mueff|, |geff| ``effective_quasienergies`` squares: all <= c give
#: A <= |G h|^2 + |g mu G h| + (|g G| + |h mu|)^2 <= 6 c^4, finite for c < (1.8e308/6)^0.25 = 7.4e76
EFFECTIVE_REACH = 1e76


def _bessel_j(n: int, z) -> np.ndarray:
    """Integer-order Bessel function J_n(z), vectorised over real ``z``.

    Evaluates Bessel's integral (1/pi) int_0^pi cos(n tau - z sin tau) dtau
    by the midpoint rule on N nodes.  The integrand extends to an even
    2pi-periodic function, so the rule is the 2N-point periodic trapezoid
    rule, whose result is exactly sum_k (-1)^k J_{n + 2kN}(z) (Trefethen &
    Weideman, SIAM Rev. 56, 385 (2014)).  With N = 32 + ceil(max|z| + |n|)
    every alias has order above 2 max|z| + 64, where |J_nu(z)| <=
    (|z|/2)^nu / nu! lies far below round-off.  N is taken per row (last axis
    of ``z``) and rows of equal N are evaluated together, so none changes bits.
    """
    z = np.asarray(z, dtype=float)
    rows = z.reshape(math.prod(z.shape[:-1]), -1)
    reach = np.abs(rows).max(axis=-1, initial=0.0) + abs(n)
    if not (reach <= BESSEL_REACH).all():
        raise ValueError(f"Bessel order plus argument {reach.max():.3g} exceeds {BESSEL_REACH:g}: "
                         f"the drive or mu is too large against omega for the effective model")
    nodes = 32 + np.ceil(reach).astype(int)
    out = np.empty(rows.shape)
    for count in np.unique(nodes):
        tau = (np.arange(count) + 0.5) * (math.pi / count)
        at = np.flatnonzero(nodes == count)
        for part in np.array_split(at, -(-at.size * rows.shape[1] * count // BESSEL_BLOCK)):
            out[part] = np.cos(n * tau - rows[part, :, None] * np.sin(tau)).mean(axis=-1)
    return out.reshape(z.shape)


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Coefficients of the effective Hamiltonian on a set of momenta.

    ``mueff`` is scalar and the rest arrays over k; (P, 1) and (P, nk) for P points.
    """

    heffx: np.ndarray
    heffy: np.ndarray
    mueff: float
    geff: np.ndarray
    Gx: np.ndarray
    Gy: np.ndarray


def _frame(params: ModelParams, ks: np.ndarray):
    """(hx0, hy0, amp, cos phi_k, sin phi_k) at momenta ``ks``: amp = |h_1(k)| is the
    drive magnitude, phi_k = arg(h_x1 + i h_y1), taken as zero where amp < AMP_TOL."""
    hx0, hy0 = static_fields(params, ks)
    hx1, hy1 = drive_amplitudes(params, ks)
    amp = np.hypot(hx1, hy1)
    phi = np.where(amp < AMP_TOL, 0.0, np.arctan2(hy1, hx1))
    return hx0, hy0, amp, np.cos(phi), np.sin(phi)


def choose_indices(params: ModelParams) -> tuple[int, int]:
    """Pick the interaction-picture integers (alpha, beta).

    beta minimizes |mu - beta*omega/2| (so |mueff| <= omega/4 always),
    alpha minimizes the worst-case magnitude of the reduced static field
    h^alpha over the Brillouin zone.  Ties go to the smaller |index|.
    """
    half = params.omega / 2.0
    if not abs(params.mu) <= BESSEL_REACH * half:  # beta would exceed the Bessel reach
        raise ValueError(f"|mu| = {abs(params.mu):.3g} exceeds {BESSEL_REACH:g} omega/2: "
                         f"mu is too large against omega for the effective model")
    b0 = round(params.mu / half)
    beta = min(
        (b0 - 1, b0, b0 + 1),
        key=lambda b: (abs(params.mu - b * half), abs(b)),
    )
    hx0, hy0, amp, cp, sp = _frame(params, kgrid(CHOOSE_NK))
    if amp.max() < AMP_TOL:
        return 0, int(beta)
    a = np.arange(-ALPHA_RANGE, ALPHA_RANGE + 1)
    shift = a[:, None] * half
    worst = np.maximum(np.abs(hx0 - shift * cp), np.abs(hy0 - shift * sp)).max(axis=1)
    alpha = min(a.tolist(), key=lambda i: (worst[i + ALPHA_RANGE], abs(i)))
    return int(alpha), int(beta)


def resolve_indices(params: ModelParams, alpha: int | None, beta: int | None) -> tuple[int, int]:
    """(alpha, beta) with each index that is None taken from ``choose_indices``."""
    if alpha is None or beta is None:
        a, b = choose_indices(params)
        alpha = a if alpha is None else alpha
        beta = b if beta is None else beta
    return alpha, beta


def effective_coefficients(params: ModelParams, k, alpha: int, beta: int) -> EffectiveCoefficients:
    """Evaluate the effective coefficients at momenta ``k``.

    With phi_k = arg(h_x1 + i h_y1) and z = 2 amp / omega, the reduced
    field h^alpha = h_0 - (alpha omega / 2) (cos phi, sin phi) splits into
    its component along the drive direction (kept) and transverse to it
    (suppressed by J_alpha(z)); the pairing picks up J_{-beta-alpha} and
    J_{beta-alpha} combinations, with the anomalous vector G along the
    drive direction.  This is the f^+- form multiplied through, which
    avoids the spurious divisions at h^alpha_x = 0 or h^alpha_y = 0.  With
    (P, 1) fields, one validity warning names the first point out of window.
    """
    hx0, hy0, amp, cp, sp = _frame(params, np.asarray(k, dtype=float))
    z = 2.0 * amp / params.omega
    half = params.omega / 2.0

    hax = hx0 - alpha * half * cp
    hay = hy0 - alpha * half * sp
    radial = hax * cp + hay * sp
    transverse = hay * cp - hax * sp
    ja = _bessel_j(alpha, z)
    heffx = radial * cp - ja * transverse * sp
    heffy = radial * sp + ja * transverse * cp

    mueff = params.mu - beta * half
    j_minus, j_plus = _bessel_j(-beta - alpha, z), _bessel_j(beta - alpha, z)
    jsum = j_minus + j_plus
    jdiff = j_minus - j_plus
    geff = 0.5 * params.g * jsum
    gx = 0.5 * params.g * jdiff * cp
    gy = 0.5 * params.g * jdiff * sp

    worst = np.maximum(np.maximum(np.abs(hax), np.abs(hay)), np.maximum(np.abs(mueff), params.g))
    worst = worst.max(axis=-1, keepdims=True)
    quarter = np.broadcast_to(params.omega / 4.0, worst.shape)
    for i in np.flatnonzero(worst > quarter)[:1]:
        warnings.warn(f"effective Hamiltonian outside its validity window (largest coefficient "
                      f"{worst.flat[i]:.3g} > omega/4 = {quarter.flat[i]:.3g})", stacklevel=2)
    return EffectiveCoefficients(heffx, heffy, mueff, geff, gx, gy)


def effective_quasienergies(coeffs: EffectiveCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form spectrum of the effective Hamiltonian.

    eps_pm = +-sqrt(|h_eff|^2 + mueff^2 - geff^2 - |G|^2 +- 2 sqrt(A)) on
    the principal branch; a complex value estimates an instability.
    delta-phi is the angle between G and h_eff (zero when either vanishes).
    ValueError if a coefficient exceeds EFFECTIVE_REACH, where A overflows.
    """
    habs = np.hypot(coeffs.heffx, coeffs.heffy)
    gabs = np.hypot(coeffs.Gx, coeffs.Gy)
    largest = np.max([np.max(np.abs(x)) for x in (habs, gabs, coeffs.mueff, coeffs.geff)])
    if not largest <= EFFECTIVE_REACH:
        raise ValueError(f"effective coefficient {largest:.3g} exceeds {EFFECTIVE_REACH:g}: "
                         f"the model is too large for the closed-form effective spectrum")
    both = (habs > 1e-15) & (gabs > 1e-15)
    dphi = np.where(
        both,
        np.arctan2(coeffs.heffy, coeffs.heffx) - np.arctan2(coeffs.Gy, coeffs.Gx),
        0.0,
    )
    mu, g = coeffs.mueff, coeffs.geff
    a = (
        -gabs * habs * (gabs * habs * np.sin(dphi) ** 2 + g * mu * np.sin(dphi / 2.0) ** 2)
        + (g * gabs + habs * mu) ** 2
    )
    root = np.sqrt(a.astype(complex))
    base = habs**2 + mu**2 - g**2 - gabs**2
    eps_plus = np.sqrt(base + 2.0 * root)
    eps_minus = -np.sqrt(base - 2.0 * root)
    return eps_plus, eps_minus


def effective_spectrum(params: ModelParams, nk: int, alpha: int, beta: int, tol_im: float = TOL_IM):
    """Effective dispersion over the Brillouin zone with a stability verdict.

    Returns (eps_plus, eps_minus, max_im, verdict) on ``kgrid(nk)``: the system
    is estimated stable iff max_im, the largest |Im eps| of both branches, is <= tol_im.
    For (P, 1) fields of ``params`` (points), every result has a leading P axis.
    """
    coeffs = effective_coefficients(params, kgrid(nk), alpha, beta)
    eps_plus, eps_minus = effective_quasienergies(coeffs)
    max_im = np.maximum(np.abs(eps_plus.imag).max(axis=-1), np.abs(eps_minus.imag).max(axis=-1))
    return eps_plus, eps_minus, max_im, np.where(max_im <= tol_im, "Stable", "Unstable")[()]
