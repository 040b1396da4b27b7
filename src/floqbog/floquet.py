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

import math
from typing import NamedTuple

import numpy as np

from .model import CONJUGATION, HERMITICITY_TOL, bloch_blocks, nambu_metric

#: fewest integrator steps per period ``propagate`` (and ``numerics.steps``) accepts
MIN_STEPS = 64
#: smallest power of two whose quasienergy error against an adaptive DOP853
#: oracle stays at or below that of 256 fourth-order steps, the count the
#: recipes were validated with, on every shipped recipe shape (scripts/convergence.py);
#: |eps(64) - eps(512)| over the whole 201x201 fig2b plane is 5.7e-7 at worst
#: (``max_deps_vs_finest`` of ``--plane 201 --steps 64 512``, with the solve-free 4x4 step)
DEFAULT_STEPS = 64
TOL_IM = 1e-8
#: smallest tol_im, in units of omega, at which round-off cannot decide a verdict: eps =
#: (i omega/2pi) Log lambda, so an error of one machine epsilon in |lambda| = 1 is omega/2pi
#: of it in Im eps; the stable branches of fig1b, fig1c, the 20-cell chain and a 61x61 fig2b
#: plane reach |Im eps| <= 3.5e-16 omega, about 10 such units, and 16 keep a margin of 1.6
RESOLUTION = 16.0 * np.finfo(float).eps / (2.0 * math.pi)
#: Re eps distance, in units of omega, below which opposite-norm branches resonate
RESONANCE_WINDOW = 1e-6
#: Re eps distance, in units of omega, below which branches tie in the sort order
TIE_WINDOW = 1e-12
TOL_NORM = 1e-6
#: eigenvector overlap above which an eigenproblem is treated as defective
DEFECT_OVERLAP = 1.0 - 1e-8
#: largest h (|H0| + |H1|) per step, a third of the Magnus convergence radius pi
MAX_STEP_NORM = 1.0
#: pseudo-unitarity residual above which a propagator is rejected
TOL_RESIDUAL = 1e-4
#: propagators per ``solve_cells`` chunk (whole cells, at least one); bounds every stage
CHUNK = 2048
#: weights of Omega, Omega^2, Omega^3 and 1 in the Pade numerator and denominator
_PADE = np.array([[1.0, 0.0, 1.0 / 60.0, 0.0], [-0.5, 0.1, -1.0 / 120.0, 1.0]])
#: Delta and the weights of Omega, Omega^2, Omega^3 and 1 in Delta D^-1 (Omega + Omega^3/60)
#: of a 4x4 Omega with characteristic polynomial x^4 + a x^2 + b (``_pade_increment``),
#: each as a polynomial in a and b: entry [j, i, k] weighs a^i b^k in polynomial j
_INCREMENT = np.array([
    [[207360000, -172800, -864, 1], [10368000, -25920, 24, 0], [345600, 720, 0, 0],
     [14400, 0, 0, 0]],
    [[8640000, -79200, 94, 0], [432000, -2880, 1, 0], [14400, -70, 0, 0], [600, 0, 0, 0]],
    [[360000, -1300, 1, 0], [-12000, -20, 0, 0], [100, 0, 0, 0], [0, 0, 0, 0]],
    [[1440000, -3000, 1, 0], [0, -70, 0, 0], [600, 0, 0, 0], [0, 0, 0, 0]],
    [[0, -4320000, 7200, -1], [0, -72000, 120, 0], [0, -3600, 0, 0], [0, 0, 0, 0]],
]) / np.array([207360000.0, 8640000.0, 720000.0, 8640000.0, 103680000.0])[:, None, None]
#: _INCREMENT in the variables tr(p) = -2a and tr(p)^2/2 - tr(p^2) = 4b, as [k, j, i, 1]
_HORNER = np.ascontiguousarray(
    (_INCREMENT * (-0.5) ** np.arange(4)[:, None] * 0.25 ** np.arange(4)).transpose(2, 0, 1)
)[..., None]

#: index permutation p of CONJUGATION, (C X C)[i, j] = X[p[i], p[j]]
_BLOCH_C = CONJUGATION.real.argmax(axis=-1)
#: Gauss-Legendre nodes of one step, as fractions of h
_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])


class IntegrationError(RuntimeError):
    """A propagator failed the integration checks or the eigensolver."""


def kgrid(nk: int) -> np.ndarray:
    """Uniform momentum grid on (-pi, pi], pi included.

    Built from the integers 2j + 2 - nk, so it is an exact mirror:
    kgrid(nk)[j] == -kgrid(nk)[nk - 2 - j] bitwise for j < nk - 1.
    """
    return (2.0 * np.arange(nk) + 2.0 - nk) * (math.pi / nk)


def mirror_half(values) -> tuple[np.ndarray, np.ndarray]:
    """Entries to compute on an axis under the reflection x -> -x, and the fill map.

    Returns (half, take).  ``half`` indexes the entries that are not negative,
    to four ulp of max |x|, and the negative entries whose negative is not on
    the axis to that tolerance: a lone entry is computed itself, and every
    other negative entry is left to its mirror.  ``take[i]`` is the position
    in ``half`` of entry i, or of its mirror image when entry i is not
    computed itself.  The mirror of x_i is the entry nearest -x_i, on a tie
    the lowest index (the argmin of |x_i + x_j|), found next to -x_i in a
    sorted copy, so time and memory stay n log n and linear in the length n.
    A sum x_i + x_j that overflows is no mirror, and warns not.
    """
    x = np.asarray(values, dtype=float)
    tol = 4.0 * np.spacing(np.abs(x).max(initial=0.0))
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    at = np.searchsorted(ordered, -x)
    # the entries on either side of -x_i, each the first (lowest index) of its run of equals
    near = order[np.searchsorted(ordered, ordered[np.clip([at - 1, at], 0, x.size - 1)])]
    with np.errstate(over="ignore"):
        dist = np.abs(x + x[near])
    above = (dist[1] < dist[0]) | ((dist[1] == dist[0]) & (near[1] < near[0]))
    mirror = np.where(above, near[1], near[0])
    keep = (x > -tol) | (dist.min(axis=0) > tol)
    half = np.flatnonzero(keep)
    return half, np.searchsorted(half, np.where(keep, np.arange(x.size), mirror))


def fold(x, omega: float):
    """Fold real (quasi)energies into (-omega/2, omega/2], ties to +omega/2.

    A value within TIE_WINDOW * omega above -omega/2 counts as a tie too and
    goes to the top end, so a branch at the zone edge lands at +omega/2
    whichever side round-off puts it on.
    """
    y = omega / 2.0 - np.mod(omega / 2.0 - np.asarray(x), omega)
    return y + omega * (y < (TIE_WINDOW - 0.5) * omega)


class Propagation(NamedTuple):
    """Output of ``propagate``: U(T), the recorded U(s h), and h (|H0| + |H1|)."""

    u: np.ndarray
    snapshots: dict[int, np.ndarray]
    step_norm: np.ndarray


def _invariant(h0: np.ndarray, h1: np.ndarray, p: np.ndarray, op=np.asarray) -> bool:
    """Whether op(X)[p[i], p[j]] = X[i, j] holds for both blocks, to HERMITICITY_TOL."""
    return all(
        np.abs(op(h[..., p[:, None], p]) - h).max(initial=0.0)
        <= HERMITICITY_TOL * (1.0 + np.abs(h).max(initial=0.0))
        for h in (h0, h1)
    )


def _conjugation(d: int, real: bool = False) -> np.ndarray:
    """Permutation p, (C X C)[i, j] = X[p[i], p[j]], of the C in C H* C = H of d x d
    blocks: 1 for real blocks (the chain's, 4x4 at two cells) and for d != 4, and
    CONJUGATION for complex 4x4 (Bloch) blocks and, in ``real_form``, their monodromies."""
    return _BLOCH_C if d == 4 and not real else np.arange(d)


def _magnus_basis(m0: np.ndarray, m1: np.ndarray, shape) -> np.ndarray:
    """M0, M1 and the nested commutators a sixth-order Omega is built from.

    Rows of the returned (8, *shape) array: M0, M1, K = [M0, M1], [M0, K],
    [M1, K], [M0, [M0, K]], [M0, [M1, K]] = [M1, [M0, K]] and [M1, [M1, K]];
    each [A, B] = A B - B A is formed by two real products (``propagate``).
    """
    basis = np.empty((8, *shape), dtype=complex)
    basis[0], basis[1] = m0, m1
    right = np.empty((2, *shape[:-1], 2, shape[-1]), dtype=complex)  # R(B), R(A)
    real = right.view(float).reshape(2, *shape[:-2], 2 * shape[-1], 2 * shape[-1])
    for out, a, b in ((2, 0, 1), (3, 0, 2), (4, 1, 2), (5, 0, 3), (6, 0, 4), (7, 1, 4)):
        right[0, ..., 0, :], right[1, ..., 0, :] = basis[b], basis[a]
        np.multiply(right[..., 0, :], 1j, out=right[..., 1, :])
        np.matmul(basis[a].view(float), real[0], out=basis[out].view(float))
        basis[out] -= (basis[b].view(float) @ real[1]).view(complex)
    return basis


def _magnus_coefficients(steps: int) -> np.ndarray:
    """(steps, 8) weights of the ``_magnus_basis`` rows of h M0 and h M1 in Omega of each step.

    With a_i = cos(2 pi (s + c_i)/steps) at the Gauss nodes c_i, the scheme's
    alpha1 = h M0 + q1 h M1, alpha2 = q2 h M1 and alpha3 = q3 h M1, where
    q1 = a2, q2 = (sqrt(15)/3)(a3 - a1) and q3 = (10/3)(a3 - 2 a2 + a1).
    Expanding its commutators in the basis gives these weights; the two
    terms [K, [M0, K]] and [K, [M1, K]] are O(h^7) and dropped, which keeps
    the order and the time symmetry of the step.
    """
    a1, q1, a3 = np.cos((2.0 * math.pi / steps) * (np.arange(steps)[:, None] + _NODES)).T
    q2 = (math.sqrt(15.0) / 3.0) * (a3 - a1)
    q3 = (10.0 / 3.0) * (a3 - 2.0 * q1 + a1)
    r = 20.0 * q1 + q3
    return np.stack([
        np.ones(steps),
        q1 + q3 / 12.0,
        -q2 / 12.0,
        q3 / 360.0,
        (r * q3 / 30.0 - q2 * q2) / 240.0,
        q2 / 720.0,
        q2 * (2.0 * q1 / 3.0 + q3 / 60.0) / 240.0,
        q1 * q2 * r / 14400.0,
    ], axis=-1)


def step_weights(omega: float, steps: int) -> tuple[float, np.ndarray]:
    """h = T/steps and the step weights, ValueError unless steps >= MIN_STEPS and h is finite."""
    if steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} integrator steps, got {steps}")
    h = 2.0 * math.pi / omega / steps
    if not math.isfinite(h):
        raise ValueError(f"integrator step is not finite for omega = {omega!r} "
                         f"and {steps} steps (step h = {h!r})")
    return h, _magnus_coefficients(steps)


def step_norm(h: float, h0, h1) -> np.ndarray:
    """h (|H0| + |H1|) per propagator, h from ``step_weights`` and |X| the max-row-sum
    norm (it bounds the spectral norm of a Hermitian X), inf where it overflows.  Above
    MAX_STEP_NORM the Magnus series is too close to its radius pi: ``propagate`` leaves
    U = 1, ``_cell_errors`` fails it."""
    with np.errstate(over="ignore"):
        norms = [np.abs(x).sum(axis=-1).max(axis=-1) for x in (h0, h1)]
        return h * (norms[0] + norms[1])


def _pade_increment(om: np.ndarray, om2: np.ndarray, r_om: np.ndarray) -> np.ndarray:
    """F = D^-1 (Omega + Omega^3/60) of the Pade step for a batch of 4x4 Omega, solve-free.

    ``om`` and ``om2`` are Omega and Omega^2, complex (n, 4, 4), and ``r_om`` the
    real (n, 8, 8) R(Omega) of ``propagate``.  The Omega of ``propagate`` is
    Sigma_z anti-Hermitian and Q-real, Q Omega* Q = Omega with Q = S C
    (``real_form``), so its characteristic polynomial is even, x^4 + a x^2 + b,
    with a = -tr(p)/2 and b = (tr(p)^2/2 - tr(p^2))/4 for p = Omega^2, both real.
    D^-1 = N/(D N) with N(Omega) = D(-Omega), and D N = 1 - p/20 + p^2/600 -
    p^3/14400, reduced modulo p^2 + a p + b, has a scalar inverse, so

        F = (u0 + t0 Omega + u1 Omega^2 + t1 Omega^3) / Delta = u0/Delta + Y Omega,

    Y = (t0 + u1 Omega + t1 Omega^2) / Delta, with the polynomials of _INCREMENT.
    They are evaluated elementwise (Horner), so no matrix's arithmetic depends
    on the rest of the batch, and F, a polynomial in Omega with no change of
    basis, keeps every entry that vanishes in all powers of Omega exactly zero.
    """
    s = np.einsum("...ii->...", om2).real
    w = 0.5 * s * s
    w -= np.einsum("...ij,...ji->...", om2, om2).real
    r = _HORNER[3] * w
    for k in (2, 1):
        r += _HORNER[k]
        r *= w
    r += _HORNER[0]
    q = r[:, 3] * s
    for i in (2, 1):
        q += r[:, i]
        q *= s
    q += r[:, 0]
    t0, u1, t1, u0 = (q[1:] / q[0])[..., None]
    y = om.view(float) * u1[..., None]
    y += om2.view(float) * t1[..., None]
    y.reshape(-1, 32)[:, ::10] += t0  # entries 10 i of a flattened (4, 8) real view: Re Y_ii
    f = y @ r_om
    f.reshape(-1, 32)[:, ::10] += u0
    return f.view(complex)


def propagate(
    h0: np.ndarray, h1: np.ndarray, omega: float, steps: int, snapshots=()
) -> Propagation:
    """Propagate i dU/dt = Sigma_z (H0 + H1 cos(omega t)) U over one period.

    h0, h1 have shape (..., d, d) and broadcast against each other; the
    leading axes are batched and integrate in one pass, whose temporaries
    grow with the batch (``solve_cells`` hands over CHUNK at a time), and
    no propagator's arithmetic depends on the rest of the batch.  Each of
    the ``steps`` equal steps h is the sixth-order Magnus step on the three
    Gauss-Legendre nodes of the step (Blanes, Casas & Ros, BIT 40, 434
    (2000)): with A = -i Sigma_z H, A_i its value at node i, alpha1 = h A2,
    alpha2 = (sqrt(15) h/3)(A3 - A1) and alpha3 = (10 h/3)(A3 - 2 A2 + A1),

        C1 = [alpha1, alpha2],  C2 = -[alpha1, 2 alpha3 + C1]/60,
        Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240.

    Since A(t) = M0 + cos(omega t) M1, Omega is a fixed combination of h M0,
    h M1 and five nested commutators, formed once (``_magnus_basis``); each step
    only weighs them, by weights fixed by ``steps``.  As integrated blocks have
    h (|H0| + |H1|) <= MAX_STEP_NORM, no finite scale of H overflows a commutator.
    Omega is mapped onto the group by the diagonal (3,3) Pade approximant of
    exp, applied as the increment

        U <- U + D^-1 (Omega + Omega^3/60) U,  D = 1 - Omega/2 + Omega^2/10 - Omega^3/120.

    That map sends the Lie algebra of U(n, n) into the group, so U stays
    pseudo-unitary to round-off at any step size; the quasienergy error
    falls as steps^-6.  For 4x4 blocks the increment D^-1 (Omega + Omega^3/60)
    is a cubic in Omega with scalar weights, formed without a solve
    (``_pade_increment``).  Larger blocks (the chain's parity sectors) carry
    the particle columns U[..., :d/2] alone, an LU solve for d/2 right-hand
    sides per step, and rebuild each full U from Q U* Q = U, Q = S C
    (``real_form``), so U(T) and every snapshot are exactly Q-real.

    Only the first half period is integrated.  H(T - t) = H(t), and the
    blocks have a conjugation symmetry C H* C = H (``_conjugation``), so
    C A* C = -A and the step maps of the second half are those of the
    first, reflected.  With U_a = U(floor(steps/2) h) and U_b = U_a, or the
    middle step applied to U_a when ``steps`` is odd, the period closes as

        U(T) = C Sigma_z U_a^T Sigma_z C U_b,

    using U^-1 = Sigma_z U^+ Sigma_z, and U(T - t) = C U(t)* C U(T) gives
    the second-half snapshots.  This equals the full-period product of the
    same steps up to round-off.

    Every product of a step is real, which numpy computes faster at every
    batch shape: the real view of a complex (d, d) Z is (d, 2d), Re and Im
    interleaved, and that of Z W = Re(Z) W + Im(Z) (iW) is real(Z) R(W),
    where rows 2k and 2k + 1 of the real (2d, 2d) R(W) are row k of real(W)
    and of real(iW).  Only the LU solve of larger blocks is complex.  R(W)
    changes no basis, so entries that vanish stay exactly zero and U(0) is
    exactly 1.

    Before any arithmetic, each failing with a ValueError in this order:
    ``steps`` and omega must pass ``step_weights`` (finite h); ``snapshots``, the step
    indices s at which U(s h) is recorded, must lie in 0..steps; both blocks
    need C H* C = H with the C of their size and type (``_conjugation``) and
    S H S = H, S = sx (x) 1.  The returned ``step_norm`` is ``step_norm``'s; a
    propagator above MAX_STEP_NORM is integrated as zero blocks, so its U and
    snapshots are exactly 1, and no other propagator changes.
    """
    h, weights = step_weights(omega, steps)
    record = set(snapshots)
    if not all(0 <= s <= steps for s in record):
        raise ValueError(f"snapshot steps must lie in 0..{steps}, got {sorted(record)}")
    real = not (np.iscomplexobj(h0) or np.iscomplexobj(h1))
    h0, h1 = (np.asarray(x, dtype=complex) for x in (h0, h1))
    shape = np.broadcast_shapes(h0.shape, h1.shape)
    d = shape[-1]
    perm, swap = _conjugation(d, real), np.roll(np.arange(d), d // 2)
    if not _invariant(h0, h1, perm, np.conj):
        raise ValueError("propagate needs C H* C = H for both blocks, with C = 1 (real blocks) "
                         "or C = 1 (x) sx (4x4 Bloch blocks)")
    if not _invariant(h0, h1, swap):
        raise ValueError("propagate needs the Nambu swap symmetry S H S = H, S = sx (x) 1, of both "
                         "blocks: the Pade step and the particle-column step hold only for them")
    sz = nambu_metric(d)[:, None]
    q, w = perm[swap], (d if d == 4 else d // 2)  # Q = S C, and the columns carried

    def full(x):  # U from U[..., :w] by Q U* Q = U
        if x.shape[-1] == d:
            return x
        u = np.empty((*x.shape[:-1], d), dtype=complex)
        u[..., :w], u[..., q[:w]] = x, x[..., q, :].conj()
        return u

    norm = np.broadcast_to(step_norm(h, h0, h1), shape[:-2])
    n = math.prod(shape[:-2])
    coarse = (norm > MAX_STEP_NORM).reshape(n, 1, 1)  # integrated as zero blocks: U = 1
    h0, h1 = (np.where(coarse, 0.0, np.broadcast_to(x, shape).reshape(n, d, d)) for x in (h0, h1))
    half = steps // 2
    forward = steps - half
    direct = {s if s <= forward else steps - s for s in record}
    rows, cols = perm[:, None], perm
    basis = _magnus_basis(*(-1j * h * sz * x for x in (h0, h1)), (n, d, d)).view(float)
    basis = basis.reshape(8, -1)
    powers = np.empty((4, n, d, d), dtype=complex)  # Omega, Omega^2, Omega^3, 1
    powers[3] = np.eye(d)
    pade = np.empty((2, n, d, d), dtype=complex)
    rhs = np.empty((n, d, w), dtype=complex)
    right = np.empty((n, d, 2, d), dtype=complex), np.empty((n, d, 2, w), dtype=complex)
    r_om, r_u = (x.view(float).reshape(n, 2 * d, -1) for x in right)  # R(Omega), R(U)
    om, om2, om3 = (x.view(float) for x in powers[:3])
    u = powers[3][..., :w].copy()
    seen = {0: u.copy()} if 0 in direct else {}
    for s in range(forward):
        np.matmul(weights[s], basis, out=om.reshape(-1))
        right[0][..., 0, :], right[1][..., 0, :] = powers[0], u
        for x in right:
            np.multiply(x[..., 0, :], 1j, out=x[..., 1, :])
        np.matmul(om, r_om, out=om2)
        if d == 4:
            np.matmul(_pade_increment(*powers[:2], r_om).view(float), r_u, out=rhs.view(float))
            u += rhs
        else:
            np.matmul(om2, r_om, out=om3)
            np.matmul(_PADE, powers.view(float).reshape(4, -1),
                      out=pade.view(float).reshape(2, -1))
            np.matmul(pade[0].view(float), r_u, out=rhs.view(float))
            u += np.linalg.solve(pade[1], rhs)
        if s + 1 == half:
            u_half = u.copy()
        if s + 1 in direct:
            seen[s + 1] = u.copy()
    u = (sz * np.swapaxes(full(u_half), -1, -2) * sz.T)[..., rows, cols] @ u
    snaps = {s: full(seen[s] if s <= forward else full(seen[steps - s])[..., rows, cols].conj() @ u)
             for s in record}
    u = full(u)
    return Propagation(u.reshape(shape), {s: x.reshape(shape) for s, x in snaps.items()}, norm)


def sympl_residual(u) -> np.ndarray:
    """max |U+ Sigma_z U - Sigma_z| per matrix of a (..., d, d) batch."""
    u = np.asarray(u)
    sz = nambu_metric(u.shape[-1])
    return np.abs(np.swapaxes(u.conj(), -1, -2) * sz @ u - np.diag(sz)).max(axis=(-2, -1))


def _cell_errors(prop: Propagation, what: str, cell_axes: int) -> np.ndarray:
    """Failure message, starting with ``what``, of each cell of a batch, or None.

    The first ``cell_axes`` batch axes index the cells.  The propagators along
    the others (a k-grid point's momenta) fail together: as too coarse if their largest
    ``step_norm`` is above MAX_STEP_NORM (``propagate`` left them at U = 1), else on any
    non-finite entry or on their largest pseudo-unitarity residual.
    """
    members = tuple(range(cell_axes, prop.step_norm.ndim))
    coarse = prop.step_norm.max(axis=members)
    finite = np.isfinite(prop.u).all(axis=(*members, -2, -1))
    residual = sympl_residual(prop.u).max(axis=members)
    error = np.full(coarse.shape, None, dtype=object)
    for cell in map(tuple, np.argwhere(residual > TOL_RESIDUAL)):
        error[cell] = (
            f"{what}: pseudo-unitarity residual {residual[cell]:.2e} exceeds {TOL_RESIDUAL}"
        )
    error[~finite] = f"{what}: propagator has non-finite entries"
    for cell in map(tuple, np.argwhere(coarse > MAX_STEP_NORM)):
        error[cell] = (
            f"{what}: integrator step too coarse for the drive (h (|H0| + |H1|) = "
            f"{coarse[cell]:.3g} > {MAX_STEP_NORM}); increase the step count"
        )
    return error


def fail_unresolved(error, omega, tol_im: float) -> None:
    """Give each entry of a per-cell ``error`` array that is None, and whose ``tol_im``
    lies below the quasienergy resolution RESOLUTION * omega (one omega or one per
    cell), the message that says so, in place: round-off would decide its verdict."""
    omega = np.broadcast_to(omega, error.shape)
    for i in np.flatnonzero(np.equal(error, None) & (tol_im < RESOLUTION * omega)):
        error[i] = (f"tol_im {tol_im:.3g} is below the quasienergy resolution "
                    f"{RESOLUTION * omega[i]:.2g} at omega {omega[i]:.3g}")


def check_cells(error) -> None:
    """Raise IntegrationError with the first message of a per-cell ``error``
    array (``solve_cells``, ``_cell_errors``), if any."""
    failed = [e for e in np.ravel(error) if e is not None]
    if failed:
        raise IntegrationError(failed[0])


def _pair_conjugates(eps, zero, omega: float):
    """Make each zero-norm branch and its partner exact conjugates.

    A zero-norm eigenvalue lambda of a pseudo-unitary U has the partner
    1/conj(lambda), i.e. eps <-> conj(eps).  Each branch flagged in ``zero``
    is matched to the zero-norm branch nearest its conjugate (on the
    quasienergy circle); mutually matched branches closer than
    RESONANCE_WINDOW * omega get the circular mean of their Re eps, so a
    pair at +-omega/2 is not split, and +-the mean |Im eps|, the larger Im
    taking the + sign.  The Re tie of a pair is then exact and Im orders it.
    """
    d = eps.shape[-1]
    idx = np.arange(d)
    re, im = eps.real, eps.imag
    dist = np.hypot(fold(re[..., :, None] - re[..., None, :], omega),
                    im[..., :, None] + im[..., None, :])
    dist[~(zero[..., :, None] & zero[..., None, :])] = np.inf
    dist[..., idx, idx] = np.inf
    partner = dist.argmin(axis=-1)
    paired = (
        zero
        & (np.take_along_axis(partner, partner, axis=-1) == idx)
        & (dist.min(axis=-1) < RESONANCE_WINDOW * omega)
    )
    lo, hi = np.minimum(idx, partner), np.maximum(idx, partner)
    re_lo, re_hi = np.take_along_axis(re, lo, -1), np.take_along_axis(re, hi, -1)
    im_lo, im_hi = np.take_along_axis(im, lo, -1), np.take_along_axis(im, hi, -1)
    mean_re = fold(re_lo + 0.5 * fold(re_hi - re_lo, omega), omega)
    mean_im = 0.5 * (np.abs(im_lo) + np.abs(im_hi))
    up = np.where(idx == lo, im_lo >= im_hi, im_hi > im_lo)
    return np.where(paired, mean_re + 1j * np.where(up, mean_im, -mean_im), eps)


def branch_order(eps, cnorm, omega: float) -> np.ndarray:
    """Indices that sort branches along the last axis by Re eps, ties aware.

    Branches whose Re eps agree to TIE_WINDOW * omega (chained) share a rank
    and are ordered by Im if zero-norm and then by cnorm; branches equal in
    all three keep their input order.  Only rows with a tie are lexsorted; the
    others keep the stable argsort by Re, which is what the lexsort gives them.
    """
    by_re = np.argsort(eps.real, axis=-1, kind="stable")
    gaps = np.diff(np.take_along_axis(eps.real, by_re, -1), axis=-1) > TIE_WINDOW * omega
    tie = ~gaps.all(axis=-1)
    c = cnorm[tie]
    rank = np.zeros(c.shape, dtype=int)
    np.put_along_axis(rank, by_re[tie][..., 1:], np.cumsum(gaps[tie], axis=-1), axis=-1)
    by_re[tie] = np.lexsort((c, np.where(c == 0, eps[tie].imag, 0.0), rank), axis=-1)
    return by_re


def _log_eps(lam, omega: float) -> np.ndarray:
    """eps = (i omega/2pi) Log lambda, with Re eps folded into (-omega/2, omega/2]."""
    pref = omega / (2.0 * math.pi)
    return fold(-pref * np.angle(lam), omega) + 1j * pref * np.log(np.abs(lam))


def real_form(u):
    """(Re(V+ U V), V): a real matrix similar to each monodromy U of a batch, and V.

    H commutes with the Nambu swap S (pairing g 1, equal particle and hole
    blocks), so with C of its size (``_conjugation``; a 4x4 U is a Bloch monodromy, the
    chain's sectors are at least 16x16), Q = S C gives Q U* Q = U, (QK)^2 = 1 (Colpa,
    Physica A 93, 327 (1978)), and V+ U V is real for V with columns (e_i + e_Q(i))/sqrt2
    and i (e_i - e_Q(i))/sqrt2 over the particles i.  LinAlgError if
    |Im(V+ U V)| > 1e-10 max |U|: U is not Q-real, and Re would be another matrix."""
    u = np.ascontiguousarray(u, dtype=complex)
    n = u.shape[-1] // 2
    q = _conjugation(2 * n)[np.roll(np.arange(2 * n), n)]
    v = np.kron([[1, 1j], [1, -1j]], np.eye(n) / math.sqrt(2.0))[np.argsort(np.r_[:n, q[:n]])]
    x = u.view(float) @ np.stack([v, 1j * v], 1).view(float).reshape(4 * n, -1)  # U V
    s, t = ((x[..., :n, :] + sign * x[..., q[:n], :]) / math.sqrt(2.0) for sign in (1, -1))
    tol = 1e-10 * np.abs(u).max(initial=0.0)
    if not max(np.abs(a).max(initial=0.0) for a in (s[..., 1::2], t[..., ::2])) <= tol:
        raise np.linalg.LinAlgError(
            "no real form: Q U* Q != U for Q = S C (C = 1 (x) sx for 4x4, 1 otherwise)")
    return np.concatenate([s[..., ::2], t[..., 1::2]], axis=-2), v  # V+ U V = [s; -i t]


def quasienergies(u, omega: float) -> np.ndarray:
    """The eps of ``eig_branches`` from eigenvalues alone, unpaired and unsorted."""
    return _log_eps(np.linalg.eigvals(real_form(u)[0]), omega)


def eig_branches(u, omega: float):
    """Eigendecompose (..., d, d) pseudo-unitary monodromies, in their ``real_form``.

    Returns (eps, cnorm, states, defective), each batch entry as if alone.
    ``eps`` (..., d) is sorted by Re per entry, Re folded into (-omega/2,
    omega/2]; Im eps > 0 marks a growing mode.  Zero-norm branches come as
    exact conjugate pairs (``_pair_conjugates``, run on the entries holding
    one), and ``branch_order`` breaks ties in Re, so neither a pair nor two
    pairs at one Re (a chain's midgap modes) are ordered by round-off.
    ``cnorm`` (..., d) is the symplectic norm sign, 0 where a branch is not
    normalizable in the Sigma_z metric; ``states`` (..., d, d) holds branch i
    in states[..., i, :], normalized to <psi|Sigma_z|psi> = cnorm, or to unit
    norm where cnorm = 0; ``defective`` (..., d) marks nearly coalescing vectors.
    """
    form, v = real_form(u)
    lam, vec = np.linalg.eig(form)
    vec = np.swapaxes(np.tensordot(vec, v, axes=(-2, 1)), -1, -2)  # V w
    eps = _log_eps(lam, omega)

    # near-parallel eigenvectors signal a defective (non-diagonalizable) U
    gram = np.abs(np.swapaxes(vec.conj(), -1, -2) @ vec)
    d = vec.shape[-1]
    gram[..., np.arange(d), np.arange(d)] = 0.0
    defective = (gram > DEFECT_OVERLAP).any(axis=-1)

    sz = nambu_metric(d)
    q = np.einsum("...mi,m,...mi->...i", vec.conj(), sz, vec).real
    normalizable = (np.abs(q) > TOL_NORM) & ~defective
    scale = np.where(normalizable, np.sqrt(np.abs(q)), 1.0)
    vec = vec / scale[..., None, :]
    cnorm = np.where(normalizable, np.sign(q).astype(int), 0).astype(int)
    paired = (cnorm == 0).any(axis=-1)
    eps[paired] = _pair_conjugates(eps[paired], cnorm[paired] == 0, omega)

    order = branch_order(eps, cnorm, omega)
    eps = np.take_along_axis(eps, order, axis=-1)
    cnorm = np.take_along_axis(cnorm, order, axis=-1)
    defective = np.take_along_axis(defective, order, axis=-1)
    states = np.take_along_axis(np.swapaxes(vec, -1, -2), order[..., :, None], axis=-2)
    return eps, cnorm, states, defective


def classify_arrays(eps, cnorm, omega, tol_im: float):
    """Vectorized verdict codes 0/1/2 = strong/marginal/unstable over batches.

    The last axis holds the branches of one momentum (or one chain), and
    ``omega`` broadcasts against the others.  Unstable if any |Im eps| > tol_im.
    Otherwise marginally stable if any pair of opposite symplectic norm has
    Re eps closer than RESONANCE_WINDOW * omega on the quasienergy circle
    (covering degeneracies at Re eps near 0 and omega/2), or if any branch is
    non-normalizable.  Strongly stable otherwise.
    """
    eps = np.asarray(eps)
    cnorm = np.asarray(cnorm)
    omega = np.asarray(omega)[..., None, None]
    unstable = (np.abs(eps.imag) > tol_im).any(axis=-1)
    dist = np.abs(eps.real[..., :, None] - eps.real[..., None, :]) % omega
    dist = np.minimum(dist, omega - dist)
    opposite = cnorm[..., :, None] * cnorm[..., None, :] == -1
    resonant = (opposite & (dist < RESONANCE_WINDOW * omega)).any(axis=(-2, -1))
    marginal = resonant | (cnorm == 0).any(axis=-1)
    return np.where(unstable, 2, np.where(marginal, 1, 0))


def solve_cells(blocks, shape, omega: float, steps: int, what: str, solve) -> np.ndarray:
    """The one loop over cells: returns the (cells,) error array of the failure rule.

    ``shape`` is (cells, *members); ``blocks(cells)`` builds H0 and H1 of a slice of
    cells, broadcasting to (cells, *members, d, d).  Each chunk of max(1, CHUNK //
    members) cells is built, integrated, checked (``_cell_errors``) and eigensolved
    by ``solve(at, u)`` on its passing cells' indices and propagators.  If that raises
    LinAlgError, the chunk's cells are retried one at a time (``at`` an int, ``u``
    with no cell axis), and those failing again get ``eigensolver failed: ...``."""
    size = max(1, CHUNK // math.prod(shape[1:]))
    error = np.empty(shape[0], dtype=object)
    for start in range(0, shape[0], size):
        cells = slice(start, start + size)
        prop = propagate(*blocks(cells), omega, steps)
        error[cells] = _cell_errors(prop, what, 1)
        ok = np.flatnonzero(np.equal(error[cells], None))
        try:
            solve(start + ok, prop.u[ok])
        except np.linalg.LinAlgError:
            for i in ok:
                try:
                    solve(start + i, prop.u[i])
                except np.linalg.LinAlgError as exc:
                    error[start + i] = f"eigensolver failed: {exc}"
    return error


def kgrid_solve(points, nk: int, steps: int = DEFAULT_STEPS):
    """Batched quasienergy solve of a sequence of P parameter sets over the momentum grid.

    Returns (ks, eps, cnorm, states, error) shaped (nk,), (P, nk, 4), (P, nk, 4),
    (P, nk, 4, 4) and (P,), branch vectors along the last axis.  Each point is
    one cell of ``solve_cells`` (NaN eps and states if it fails); points sharing
    omega share one ``solve_cells`` loop.  Only k >= 0 is integrated: H_{-k} =
    C H_k C with the C of 4x4 blocks (``_conjugation``) for every parameter set,
    so U_{-k} = C U_k C, and -k takes the eps and cnorm of k and C times its states.
    """
    ks = kgrid(nk)
    half, take = mirror_half(ks)
    eps = np.full((len(points), len(half), 4), complex(math.nan, math.nan))
    cnorm = np.zeros(eps.shape, dtype=int)
    states = np.full((*eps.shape, 4), complex(math.nan, math.nan))
    error = np.empty(len(points), dtype=object)
    for omega in dict.fromkeys(p.omega for p in points):
        group = np.array([i for i, p in enumerate(points) if p.omega == omega])

        def solve(at, u):
            eps[group[at]], cnorm[group[at]], states[group[at]], _ = eig_branches(u, omega)

        error[group] = solve_cells(
            lambda c: map(np.stack, zip(*(bloch_blocks(points[i], ks[half]) for i in group[c]))),
            (group.size, half.size), omega, steps, "k-grid", solve)
    comps = np.where((half[take] != np.arange(nk))[:, None], _conjugation(4), np.arange(4))
    states = states[:, take[:, None, None], np.arange(4)[:, None], comps[:, None, :]]
    return ks, eps[:, take], cnorm[:, take], states, error
