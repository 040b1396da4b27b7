"""Monodromy integration, complex quasienergies and dynamical stability.

The one-period propagator of a quadratic bosonic problem solves
i dU/dt = Sigma_z H(t) U with U(0) = 1, where Sigma_z = sz (x) 1 is the
Nambu metric.  U(T) is pseudo-unitary, U+ Sigma_z U = Sigma_z, so its
eigenvalues come in pairs (lambda, 1/conj(lambda)) and the quasienergies
eps = (i*omega/2pi) Log lambda are either real (stable modes, normalizable
in the Sigma_z metric with norm +-1) or complex conjugate pairs (parametric
instability, zero symplectic norm).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import CONJUGATION, HERMITICITY_TOL, ModelParams, bloch_blocks, nambu_metric

#: smallest power of two whose quasienergy error against an adaptive DOP853
#: oracle stays below the 1e-6 omega resonance window of the classifier on
#: every shipped recipe shape (scripts/convergence.py; 1.2e-6 at worst)
DEFAULT_STEPS = 256
TOL_SYMPL = 1e-8
TOL_IM = 1e-8
TOL_NORM = 1e-6
#: eigenvector overlap above which an eigenproblem is treated as defective
DEFECT_OVERLAP = 1.0 - 1e-8
#: largest h (|H0| + |H1|) per step, a third of the Magnus convergence radius pi
MAX_STEP_NORM = 1.0
#: pseudo-unitarity residual above which a propagator is rejected
TOL_RESIDUAL = 1e-4

#: Gauss-Legendre nodes of one step and the coefficient of its commutator term
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_COMM = math.sqrt(3.0) / 12.0


class IntegrationError(RuntimeError):
    """Monodromy integration produced non-finite or non-pseudo-unitary output."""


class Verdict(enum.Enum):
    StronglyStable = "StronglyStable"
    MarginallyStable = "MarginallyStable"
    Unstable = "Unstable"


@dataclass(frozen=True)
class Monodromy:
    """One-period propagator U(T) with its integration metadata."""

    u: np.ndarray
    omega: float
    steps: int
    sympl_residual: float = field(init=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "sympl_residual", float(sympl_residual(u)))


@dataclass(frozen=True)
class QuasienergyBranch:
    """Single Floquet-Bogoliubov branch at fixed momentum (or chain mode).

    ``eps`` has Re eps folded into (-omega/2, omega/2]; Im eps > 0 marks a
    growing mode.  ``cnorm`` is the symplectic norm sign, 0 when the state
    is not normalizable in the Sigma_z metric.  ``state`` is normalized to
    <psi|Sigma_z|psi> = cnorm when cnorm != 0, else to unit Euclidean norm.
    """

    eps: complex
    cnorm: int
    state: np.ndarray
    defective: bool = False


def kgrid(nk: int) -> np.ndarray:
    """Uniform momentum grid on (-pi, pi], symmetric under k -> -k, pi included."""
    return -math.pi + 2.0 * math.pi * (np.arange(nk) + 1.0) / nk


def fold(x, omega: float):
    """Fold real (quasi)energies into (-omega/2, omega/2], ties to +omega/2."""
    return omega / 2.0 - np.mod(omega / 2.0 - np.asarray(x), omega)


class Propagation(NamedTuple):
    """Output of ``propagate``: U(T), the recorded U(s h), and h (|H0| + |H1|)."""

    u: np.ndarray
    snapshots: dict[int, np.ndarray]
    step_norm: np.ndarray


def _conjugation(h0: np.ndarray, h1: np.ndarray) -> np.ndarray:
    """Index permutation p of the batch's conjugation symmetry C, C H* C = H.

    C is a real permutation with C^2 = 1 that commutes with Sigma_z, applied
    as (C X C)[i, j] = X[p[i], p[j]]: the identity for real blocks (the open
    chain), the sublattice exchange CONJUGATION for the 4x4 Bloch blocks.
    Raises ValueError when neither holds for both blocks.
    """
    d = h0.shape[-1]
    candidates = [np.arange(d)]
    if d == 4:
        candidates.append(CONJUGATION.real.argmax(axis=-1))
    for p in candidates:
        if all(
            np.abs(h[..., p[:, None], p].conj() - h).max(initial=0.0)
            <= HERMITICITY_TOL * (1.0 + np.abs(h).max(initial=0.0))
            for h in (h0, h1)
        ):
            return p
    raise ValueError(
        "propagate needs C H* C = H for both blocks, with C = 1 (real blocks) "
        "or C = 1 (x) sx (4x4 Bloch blocks)"
    )


def propagate(
    h0: np.ndarray, h1: np.ndarray, omega: float, steps: int, snapshots=()
) -> Propagation:
    """Propagate i dU/dt = Sigma_z (H0 + H1 cos(omega t)) U over one period.

    h0, h1 have shape (..., d, d) and broadcast against each other; the
    leading axes are batched so a whole k-grid or drive plane integrates
    in one pass.  Each of the ``steps`` equal steps h is a fourth-order
    Magnus step on the two Gauss points t1, t2 of the step,

        Omega = (h/2)(A1 + A2) + (sqrt(3) h^2/12)[A2, A1],   A = -i Sigma_z H,

    mapped onto the group by the diagonal (2,2) Pade approximant of exp,
    applied as the increment U <- U + (1 - Omega/2 + Omega^2/12)^-1 Omega U.
    That map sends the Lie algebra of U(n, n) into the group, so U stays
    pseudo-unitary to round-off at any step size.  Since A(t) = M0 +
    cos(omega t) M1, every commutator is a multiple of [M1, M0], which is
    formed once.

    Only the first half period is integrated.  H(T - t) = H(t), and the
    blocks have a conjugation symmetry C H* C = H (C = 1 for real blocks,
    1 (x) sx for the Bloch blocks; anything else is a ValueError), so
    C A* C = -A and the step maps of the second half are those of the
    first, reflected.  With U_a = U(floor(steps/2) h) and U_b = U_a, or the
    middle step applied to U_a when ``steps`` is odd, the period closes as

        U(T) = C Sigma_z U_a^T Sigma_z C U_b,

    using U^-1 = Sigma_z U^+ Sigma_z, and U(T - t) = C U(t)* C U(T) gives
    the second-half snapshots.  This equals the full-period product of the
    same steps up to round-off.

    ``snapshots`` lists step indices s in 0..steps at which U(s h) is
    recorded.  ``step_norm`` is h (|H0| + |H1|) per propagator, in the
    max-row-sum norm, which bounds the spectral norm of a Hermitian matrix;
    above MAX_STEP_NORM the Magnus series is too close to its convergence
    radius pi and U, while pseudo-unitary, is not accurate.
    """
    if steps < 64:
        raise ValueError(f"need at least 64 integrator steps, got {steps}")
    record = set(snapshots)
    if not all(0 <= s <= steps for s in record):
        raise ValueError(f"snapshot steps must lie in 0..{steps}, got {sorted(record)}")
    h0 = np.asarray(h0, dtype=complex)
    h1 = np.asarray(h1, dtype=complex)
    perm = _conjugation(h0, h1)
    shape = np.broadcast_shapes(h0.shape, h1.shape)
    d = shape[-1]
    sz = nambu_metric(d)[:, None]
    m0 = -1j * sz * h0
    m1 = -1j * sz * h1
    comm = m1 @ m0 - m0 @ m1
    h = 2.0 * math.pi / omega / steps
    norms = np.abs(h0).sum(axis=-1).max(axis=-1) + np.abs(h1).sum(axis=-1).max(axis=-1)
    step_norm = np.broadcast_to(h * norms, shape[:-2])
    eye = np.eye(d)
    u = np.broadcast_to(eye, shape).astype(complex)
    half = steps // 2
    forward = steps - half
    direct = {s if s <= forward else steps - s for s in record}
    seen = {0: u} if 0 in direct else {}
    for s in range(forward):
        c1 = math.cos(omega * h * (s + _GAUSS[0]))
        c2 = math.cos(omega * h * (s + _GAUSS[1]))
        om = h * m0 + (0.5 * h * (c1 + c2)) * m1 + (_COMM * h * h * (c2 - c1)) * comm
        u = u + np.linalg.solve(eye - 0.5 * om + (om @ om) / 12.0, om @ u)
        if s + 1 == half:
            u_half = u
        if s + 1 in direct:
            seen[s + 1] = u
    rows, cols = perm[:, None], perm
    u_t = (sz * np.swapaxes(u_half, -1, -2) * sz.T)[..., rows, cols] @ u
    snaps = {
        s: seen[s] if s <= forward else seen[steps - s][..., rows, cols].conj() @ u_t
        for s in record
    }
    return Propagation(u_t, snaps, step_norm)


def sympl_residual(u) -> np.ndarray:
    """max |U+ Sigma_z U - Sigma_z| per matrix of a (..., d, d) batch."""
    u = np.asarray(u)
    sz = nambu_metric(u.shape[-1])
    return np.abs(np.swapaxes(u.conj(), -1, -2) * sz @ u - np.diag(sz)).max(axis=(-2, -1))


def check_propagation(prop: Propagation, what: str) -> None:
    """Raise IntegrationError, naming ``what``, if any propagator of the batch
    fails the step-size guard, has non-finite entries or is not pseudo-unitary."""
    coarse = float(prop.step_norm.max())
    if coarse > MAX_STEP_NORM:
        raise IntegrationError(
            f"{what}: integrator step too coarse for the drive "
            f"(h (|H0| + |H1|) = {coarse:.3g} > {MAX_STEP_NORM}); increase the step count"
        )
    if not np.isfinite(prop.u).all():
        raise IntegrationError(f"{what}: propagator has non-finite entries")
    res = float(sympl_residual(prop.u).max())
    if res > TOL_RESIDUAL:
        raise IntegrationError(
            f"{what}: pseudo-unitarity residual {res:.2e} exceeds {TOL_RESIDUAL}"
        )


def eig_branches(u, omega: float, tol_norm: float = TOL_NORM):
    """Eigendecompose batched monodromy matrices into quasienergy data.

    Parameters
    ----------
    u : (..., d, d) complex
        Pseudo-unitary propagators.
    omega : drive frequency used for the folding window.

    Returns
    -------
    eps : (..., d) complex, sorted by (Re, Im, cnorm) per batch entry
    cnorm : (..., d) int in {-1, 0, +1}
    states : (..., d, d) complex, states[..., i, :] is the branch-i vector
    defective : (..., d) bool, True where eigenvectors nearly coalesce
    """
    u = np.asarray(u, dtype=complex)
    lam, vec = np.linalg.eig(u)
    pref = omega / (2.0 * math.pi)
    eps = fold(-pref * np.angle(lam), omega) + 1j * pref * np.log(np.abs(lam))

    # near-parallel eigenvectors signal a defective (non-diagonalizable) U
    gram = np.abs(np.swapaxes(vec.conj(), -1, -2) @ vec)
    d = u.shape[-1]
    gram[..., np.arange(d), np.arange(d)] = 0.0
    defective = (gram > DEFECT_OVERLAP).any(axis=-1)

    sz = nambu_metric(d)
    q = np.einsum("...mi,m,...mi->...i", vec.conj(), sz, vec).real
    normalizable = (np.abs(q) > tol_norm) & ~defective
    scale = np.where(normalizable, np.sqrt(np.abs(q)), 1.0)
    vec = vec / scale[..., None, :]
    cnorm = np.where(normalizable, np.sign(q).astype(int), 0).astype(int)

    order = np.lexsort((cnorm, eps.imag, eps.real), axis=-1)
    eps = np.take_along_axis(eps, order, axis=-1)
    cnorm = np.take_along_axis(cnorm, order, axis=-1)
    defective = np.take_along_axis(defective, order, axis=-1)
    states = np.take_along_axis(np.swapaxes(vec, -1, -2), order[..., :, None], axis=-2)
    return eps, cnorm, states, defective


def quasienergies(m: Monodromy, tol_norm: float = TOL_NORM) -> list[QuasienergyBranch]:
    """Complex quasienergies of a monodromy, norms assigned, stably sorted."""
    if m.sympl_residual > TOL_RESIDUAL:
        raise IntegrationError(
            f"monodromy violates pseudo-unitarity (residual {m.sympl_residual:.2e}); "
            "increase the step count"
        )
    eps, cnorm, states, defective = eig_branches(m.u, m.omega, tol_norm)
    return [
        QuasienergyBranch(complex(e), int(c), s, bool(f))
        for e, c, s, f in zip(eps, cnorm, states, defective)
    ]


def symplectic_norms(
    branches: list[QuasienergyBranch], tol_norm: float = TOL_NORM
) -> list[QuasienergyBranch]:
    """Assign symplectic norm signs, rescaling states to <psi|Sz|psi> = +-1.

    Idempotent; states with |<psi|Sz|psi>| <= tol_norm keep unit Euclidean
    norm and get cnorm = 0.
    """
    out = []
    for b in branches:
        sz = nambu_metric(b.state.shape[0])
        q = float(np.real(np.vdot(b.state, sz * b.state)))
        if abs(q) > tol_norm and not b.defective:
            state = b.state / math.sqrt(abs(q))
            out.append(QuasienergyBranch(b.eps, int(np.sign(q)), state, b.defective))
        else:
            state = b.state / np.linalg.norm(b.state)
            out.append(QuasienergyBranch(b.eps, 0, state, b.defective))
    return out


def classify_arrays(eps, cnorm, omega: float, tol_im: float, window: float):
    """Vectorized verdict codes 0/1/2 = strong/marginal/unstable over batches."""
    eps = np.asarray(eps)
    cnorm = np.asarray(cnorm)
    unstable = (np.abs(eps.imag) > tol_im).any(axis=-1)
    dist = np.abs(eps.real[..., :, None] - eps.real[..., None, :]) % omega
    dist = np.minimum(dist, omega - dist)
    opposite = cnorm[..., :, None] * cnorm[..., None, :] == -1
    resonant = (opposite & (dist < window)).any(axis=(-2, -1))
    marginal = resonant | (cnorm == 0).any(axis=-1)
    return np.where(unstable, 2, np.where(marginal, 1, 0))


def classify_stability(
    branches: list[QuasienergyBranch],
    omega: float,
    tol_im: float = TOL_IM,
    resonance_window: float | None = None,
) -> Verdict:
    """Stability verdict for one set of branches (one momentum or one chain).

    Unstable if any |Im eps| > tol_im.  Otherwise marginally stable if any
    pair of opposite symplectic norm has Re eps separated by less than
    resonance_window on the quasienergy circle (covering degeneracies at
    Re eps near 0 and omega/2), or if any branch is non-normalizable.
    Strongly stable otherwise.
    """
    if resonance_window is None:
        resonance_window = 1e-6 * omega
    eps = np.array([b.eps for b in branches])
    cnorm = np.array([b.cnorm for b in branches])
    code = int(classify_arrays(eps, cnorm, omega, tol_im, resonance_window))
    return (Verdict.StronglyStable, Verdict.MarginallyStable, Verdict.Unstable)[code]


def solve_bloch_k(
    params: ModelParams, k: float, steps: int = DEFAULT_STEPS
) -> list[QuasienergyBranch]:
    """Monodromy + quasienergies of the 4x4 Bloch problem at momentum k."""
    h0, h1 = bloch_blocks(params, np.asarray(k, dtype=float))
    prop = propagate(h0, h1, params.omega, steps)
    check_propagation(prop, f"k={k:+.6f}")
    return quasienergies(Monodromy(prop.u, params.omega, steps))


def kgrid_solve(params: ModelParams, nk: int, steps: int = DEFAULT_STEPS):
    """Batched quasienergy solve over the full momentum grid.

    Returns (ks, eps, cnorm, states) with shapes (nk,), (nk, 4), (nk, 4)
    and (nk, 4, 4); branch vectors along the last axis of ``states``.
    """
    ks = kgrid(nk)
    h0, h1 = bloch_blocks(params, ks)
    prop = propagate(h0, h1, params.omega, steps)
    check_propagation(prop, "k-grid")
    eps, cnorm, states, _ = eig_branches(prop.u, params.omega)
    return ks, eps, cnorm, states


def global_stability(
    params: ModelParams,
    nk: int = 256,
    steps: int = DEFAULT_STEPS,
    tol_im: float = TOL_IM,
    resonance_window: float | None = None,
) -> tuple[bool, float]:
    """Scan the momentum grid; True iff no k is unstable, plus worst Im eps."""
    if nk < 64:
        raise ValueError(f"need a k-grid of at least 64 points, got {nk}")
    if resonance_window is None:
        resonance_window = 1e-6 * params.omega
    _, eps, cnorm, _ = kgrid_solve(params, nk, steps)
    codes = classify_arrays(eps, cnorm, params.omega, tol_im, resonance_window)
    return bool((codes != 2).all()), float(eps.imag.max())
