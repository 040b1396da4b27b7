"""Independent oracles the test suite checks the library against.

Nothing here may import from the integrator or eigensolver code paths it
validates: the monodromy oracles use scipy's general-purpose ODE machinery
and matrix exponentials, the static spectrum is the closed form of the
4x4 Bogoliubov problem, and Bessel values come from mpmath's arbitrary
precision series.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from floqbog.model import nambu_metric


def static_energies(h: float, mu: float, g: float) -> tuple[complex, complex]:
    """Exact quasienergy pair of the undriven 4x4 block.

    For a static field of magnitude h the positive eigenvalues are
    sqrt((h +- |mu|)^2 - g^2), turning imaginary when the pairing bridges
    the detuned band.
    """
    ep = complex(np.sqrt(complex((h + abs(mu)) ** 2 - g**2)))
    em = complex(np.sqrt(complex((h - abs(mu)) ** 2 - g**2)))
    return ep, em


def dop853_monodromy(
    h0: np.ndarray, h1: np.ndarray, omega: float, rtol: float = 1e-11, fraction: float = 1.0
):
    """High-order adaptive integration of i dU/dt = Sigma_z H(t) U.

    Returns U(fraction * T), by default the one-period propagator U(T).
    """
    d = h0.shape[0]
    sz = nambu_metric(d)[:, None]

    def rhs(t, y):
        u = y.reshape(d, d)
        return (-1j * sz * (h0 + math.cos(omega * t) * h1) @ u).ravel()

    period = 2.0 * math.pi / omega
    sol = solve_ivp(
        rhs,
        (0.0, fraction * period),
        np.eye(d, dtype=complex).ravel(),
        method="DOP853",
        rtol=rtol,
        atol=1e-13,
    )
    assert sol.success
    return sol.y[:, -1].reshape(d, d)


def expm_monodromy(h0: np.ndarray, h1: np.ndarray, omega: float, steps: int = 8192):
    """Midpoint exponential-splitting propagator, a different discretization."""
    d = h0.shape[0]
    sz = nambu_metric(d)[:, None]
    period = 2.0 * math.pi / omega
    dt = period / steps
    u = np.eye(d, dtype=complex)
    for j in range(steps):
        t = (j + 0.5) * dt
        u = expm(-1j * dt * sz * (h0 + math.cos(omega * t) * h1)) @ u
    return u


def bessel_series(n: int, x: float) -> float:
    """J_n(x) from mpmath at 30 significant digits."""
    import mpmath as mp

    with mp.workdps(30):
        return float(mp.besselj(n, x))
