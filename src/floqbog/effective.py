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


def _bessel_j(n: int, z) -> np.ndarray:
    """Integer-order Bessel function J_n(z), vectorised over real ``z``.

    Evaluates Bessel's integral (1/pi) int_0^pi cos(n tau - z sin tau) dtau
    by the midpoint rule on N nodes.  The integrand extends to an even
    2pi-periodic function, so the rule is the 2N-point periodic trapezoid
    rule, whose result is exactly sum_k (-1)^k J_{n + 2kN}(z) (Trefethen &
    Weideman, SIAM Rev. 56, 385 (2014)).  With N = 32 + ceil(max|z| + |n|)
    every alias has order above 2 max|z| + 64, where |J_nu(z)| <=
    (|z|/2)^nu / nu! lies far below round-off.
    """
    z = np.asarray(z, dtype=float)
    nodes = 32 + math.ceil(float(np.abs(z).max(initial=0.0)) + abs(n))
    tau = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    return np.cos(n * tau - z[..., None] * np.sin(tau)).mean(axis=-1)


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Coefficients of the effective Hamiltonian on a set of momenta.

    ``mueff`` is scalar; the remaining fields are arrays over k.
    """

    heffx: np.ndarray
    heffy: np.ndarray
    mueff: float
    geff: np.ndarray
    Gx: np.ndarray
    Gy: np.ndarray


def choose_indices(params: ModelParams) -> tuple[int, int]:
    """Pick the interaction-picture integers (alpha, beta).

    beta minimizes |mu - beta*omega/2| (so |mueff| <= omega/4 always),
    alpha minimizes the worst-case magnitude of the reduced static field
    h^alpha over the Brillouin zone.  Ties go to the smaller |index|.
    """
    half = params.omega / 2.0
    b0 = round(params.mu / half)
    beta = min(
        (b0 - 1, b0, b0 + 1),
        key=lambda b: (abs(params.mu - b * half), abs(b)),
    )
    ks = kgrid(CHOOSE_NK)
    hx0, hy0 = static_fields(params, ks)
    hx1, hy1 = drive_amplitudes(params, ks)
    amp = np.hypot(hx1, hy1)
    if amp.max() < AMP_TOL:
        return 0, int(beta)
    phi = np.where(amp < AMP_TOL, 0.0, np.arctan2(hy1, hx1))

    def worst(a: int) -> float:
        hax = hx0 - a * half * np.cos(phi)
        hay = hy0 - a * half * np.sin(phi)
        return float(np.maximum(np.abs(hax), np.abs(hay)).max())

    alpha = min(range(-ALPHA_RANGE, ALPHA_RANGE + 1), key=lambda a: (worst(a), abs(a)))
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
    avoids the spurious divisions at h^alpha_x = 0 or h^alpha_y = 0.
    """
    ks = np.asarray(k, dtype=float)
    hx0, hy0 = static_fields(params, ks)
    hx1, hy1 = drive_amplitudes(params, ks)
    amp = np.hypot(hx1, hy1)
    phi = np.where(amp < AMP_TOL, 0.0, np.arctan2(hy1, hx1))
    z = 2.0 * amp / params.omega
    half = params.omega / 2.0

    cp, sp = np.cos(phi), np.sin(phi)
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

    worst = max(
        float(np.abs(hax).max()), float(np.abs(hay).max()), abs(mueff), params.g
    )
    if worst > params.omega / 4.0:
        warnings.warn(
            f"effective Hamiltonian outside its validity window "
            f"(largest coefficient {worst:.3g} > omega/4 = {params.omega / 4.0:.3g})",
            stacklevel=2,
        )
    return EffectiveCoefficients(heffx, heffy, float(mueff), geff, gx, gy)


def effective_quasienergies(coeffs: EffectiveCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form spectrum of the effective Hamiltonian.

    eps_pm = +-sqrt(|h_eff|^2 + mueff^2 - geff^2 - |G|^2 +- 2 sqrt(A)) on
    the principal branch; a complex value estimates an instability.
    delta-phi is the angle between G and h_eff (zero when either vanishes).
    """
    habs = np.hypot(coeffs.heffx, coeffs.heffy)
    gabs = np.hypot(coeffs.Gx, coeffs.Gy)
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

    Returns (ks, eps_plus, eps_minus, verdict); the system is estimated
    stable iff both branches stay real for every momentum.
    """
    ks = kgrid(nk)
    coeffs = effective_coefficients(params, ks, alpha, beta)
    eps_plus, eps_minus = effective_quasienergies(coeffs)
    max_im = max(float(np.abs(eps_plus.imag).max()), float(np.abs(eps_minus.imag).max()))
    verdict = "Stable" if max_im <= tol_im else "Unstable"
    return ks, eps_plus, eps_minus, verdict
