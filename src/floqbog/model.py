"""Bogoliubov matrices of the driven two-band chain, in momentum and real space.

The single-particle model is a two-site-per-cell chain with intra-cell
hopping nu(t) = nu0 + nu1*cos(omega*t), inter-cell hopping
nu'(t) = nu0p + nu1p*cos(omega*t), chemical potential mu and a static
on-site pairing g.  In momentum space the quadratic problem is encoded by
a 4x4 Hermitian matrix acting on the particle-hole (Nambu) doubled space,

    H_k(t) = 1 (x) [hx(k,t) sx + hy(k,t) sy] - mu 1 (x) 1 + g sx (x) 1,

with the pseudo-field hx = -nu(t) - nu'(t) cos k, hy = -nu'(t) sin k.
The first tensor factor is Nambu space, the second is the sublattice.
All energies are measured in units of g (g = 1 by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)

#: sublattice exchange 1 (x) sx, the conjugation symmetry C H* C = H of every
#: 4x4 block built by ``field_matrix`` and ``static_block`` (real fields, real mu, g)
CONJUGATION = np.kron(I2, SX)

HERMITICITY_TOL = 1e-12


def nambu_metric(dim: int) -> np.ndarray:
    """Signature vector (+1,...,+1,-1,...,-1) of the Nambu metric sz (x) 1."""
    if dim % 2:
        raise ValueError(f"Nambu dimension must be even, got {dim}")
    half = dim // 2
    return np.concatenate([np.ones(half), -np.ones(half)])


@dataclass(frozen=True, kw_only=True)
class ModelParams:
    """Physical parameters of the driven chain, all in units of g.

    nu0, nu0p are the static intra-/inter-cell hoppings, nu1, nu1p the
    cosine drive amplitudes, mu the chemical potential, omega > 0 the drive
    angular frequency and g >= 0 the on-site pairing (the unit scale).
    """

    nu0: float
    nu0p: float
    nu1: float
    nu1p: float
    mu: float
    omega: float
    g: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError(f"all model parameters must be finite, got {self}")
        if self.omega <= 0:
            raise ValueError(f"drive frequency must be positive, got omega={self.omega}")
        if self.g < 0:
            raise ValueError(f"pairing strength must be non-negative, got g={self.g}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    def nu(self, t: float) -> float:
        return self.nu0 + self.nu1 * math.cos(self.omega * t)

    def nup(self, t: float) -> float:
        return self.nu0p + self.nu1p * math.cos(self.omega * t)


def static_fields(params: ModelParams, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (hx0, hy0) over an array of momenta."""
    k = np.asarray(k, dtype=float)
    return -params.nu0 - params.nu0p * np.cos(k), -params.nu0p * np.sin(k)


def drive_amplitudes(params: ModelParams, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (hx1, hy1) over an array of momenta."""
    k = np.asarray(k, dtype=float)
    return -params.nu1 - params.nu1p * np.cos(k), -params.nu1p * np.sin(k)


def field_matrix(hx, hy) -> np.ndarray:
    """1 (x) (hx sx + hy sy) for scalar or array-valued field components."""
    hx = np.asarray(hx, dtype=complex)
    hy = np.asarray(hy, dtype=complex)
    block = np.zeros(hx.shape + (2, 2), dtype=complex)
    block[..., 0, 1] = hx - 1j * hy
    block[..., 1, 0] = hx + 1j * hy
    out = np.zeros(hx.shape + (4, 4), dtype=complex)
    out[..., :2, :2] = block
    out[..., 2:, 2:] = block
    return out


def static_block(hx0, hy0, mu: float, g: float) -> np.ndarray:
    """Static part 1 (x) (hx0 sx + hy0 sy) - mu + g sx (x) 1 of the 4x4 block."""
    h0 = field_matrix(hx0, hy0)
    idx = np.arange(4)
    h0[..., idx, idx] -= mu
    h0[..., idx, (idx + 2) % 4] += g
    return h0


def bloch_blocks(params: ModelParams, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose H_k(t) = H0(k) + H1(k)*cos(omega*t) over a momentum array.

    Returns arrays of shape k.shape + (4, 4).  H0 carries the static field,
    the chemical potential and the pairing; H1 carries only the drive field.
    """
    h0 = static_block(*static_fields(params, k), params.mu, params.g)
    return h0, field_matrix(*drive_amplitudes(params, k))


def chain_blocks(params: ModelParams, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Static and drive parts of the open-chain 2N x 2N Bogoliubov matrix.

    N = 2*cells sites with open boundaries; sites are ordered
    (cell 0, sublattice 1), (cell 0, sublattice 2), (cell 1, sublattice 1), ...
    The pairing block is g times the identity, which Fourier-transforms to
    the momentum-space pairing g sx (x) 1 of ``bloch_blocks``.
    """
    if cells < 2:
        raise ValueError(f"need at least 2 unit cells, got {cells}")
    n = 2 * cells
    k0 = np.zeros((n, n))
    k1 = np.zeros((n, n))
    np.fill_diagonal(k0, -params.mu)
    intra = np.arange(0, n - 1, 2)  # bonds (2m, 2m+1)
    inter = np.arange(1, n - 1, 2)  # bonds (2m+1, 2m+2)
    k0[intra, intra + 1] = k0[intra + 1, intra] = -params.nu0
    k0[inter, inter + 1] = k0[inter + 1, inter] = -params.nu0p
    k1[intra, intra + 1] = k1[intra + 1, intra] = -params.nu1
    k1[inter, inter + 1] = k1[inter + 1, inter] = -params.nu1p

    h0 = np.zeros((2 * n, 2 * n), dtype=complex)
    h1 = np.zeros((2 * n, 2 * n), dtype=complex)
    h0[:n, :n] = h0[n:, n:] = k0
    h0[:n, n:] = h0[n:, :n] = params.g * np.eye(n)
    h1[:n, :n] = h1[n:, n:] = k1
    return h0, h1

