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
DEFAULT_STEPS = 64
TOL_IM = 1e-8
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
#: propagators ``propagate`` integrates together, which bounds its temporaries
CHUNK = 2048
#: weights of Omega, Omega^2, Omega^3 and 1 in the Pade numerator and denominator
_PADE = np.array([[1.0, 0.0, 1.0 / 60.0, 0.0], [-0.5, 0.1, -1.0 / 120.0, 1.0]])

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
    computed itself.
    """
    x = np.asarray(values, dtype=float)
    tol = 4.0 * np.spacing(np.abs(x).max(initial=0.0))
    mirror = np.abs(x[:, None] + x).argmin(axis=1)
    lone = np.abs(x + x[mirror]) > tol
    keep = (x > -tol) | lone
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


def _conjugation(h0: np.ndarray, h1: np.ndarray) -> np.ndarray:
    """Index permutation p of the batch's conjugation symmetry C, C H* C = H.

    C is a real permutation with C^2 = 1 that commutes with Sigma_z, applied
    as (C X C)[i, j] = X[p[i], p[j]]: the sublattice exchange CONJUGATION for
    4x4 blocks, which every Bloch block has, and otherwise the identity for
    real blocks (the open chain).  CONJUGATION is tried first, so a real
    Bloch block gets the same C alone as in a batch with complex ones.
    Raises ValueError when neither holds for both blocks.
    """
    d = h0.shape[-1]
    candidates = [_BLOCH_C, np.arange(d)] if d == 4 else [np.arange(d)]
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


def _magnus_basis(m0: np.ndarray, m1: np.ndarray, shape) -> np.ndarray:
    """M0, M1 and the nested commutators a sixth-order Omega is built from.

    Rows of the returned (8, *shape) array: M0, M1, K = [M0, M1], [M0, K],
    [M1, K], [M0, [M0, K]], [M0, [M1, K]] = [M1, [M0, K]] and [M1, [M1, K]].
    """
    basis = np.empty((8, *shape), dtype=complex)
    basis[0], basis[1] = m0, m1
    for out, a, b in ((2, 0, 1), (3, 0, 2), (4, 1, 2), (5, 0, 3), (6, 0, 4), (7, 1, 4)):
        np.matmul(basis[a], basis[b], out=basis[out])
        basis[out] -= basis[b] @ basis[a]
    return basis


def _magnus_coefficients(omega: float, h: float, steps: int) -> np.ndarray:
    """(steps, 8) weights of the ``_magnus_basis`` rows in Omega of each step.

    With a_i = cos(omega (s + c_i) h) at the Gauss nodes c_i, the scheme's
    alpha1 = h M0 + q1 M1, alpha2 = q2 M1 and alpha3 = q3 M1, where
    q1 = h a2, q2 = (sqrt(15) h/3)(a3 - a1) and q3 = (10 h/3)(a3 - 2 a2 + a1).
    Expanding its commutators in the basis gives these weights; the two
    terms [K, [M0, K]] and [K, [M1, K]] are O(h^7) and dropped, which keeps
    the order and the time symmetry of the step.
    """
    a1, a2, a3 = np.cos(omega * h * (np.arange(steps)[:, None] + _NODES)).T
    q1 = h * a2
    q2 = (math.sqrt(15.0) * h / 3.0) * (a3 - a1)
    q3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
    r = 20.0 * q1 + q3
    return np.stack([
        np.full(steps, h),
        q1 + q3 / 12.0,
        -h * q2 / 12.0,
        h * h * q3 / 360.0,
        h * (r * q3 / 30.0 - q2 * q2) / 240.0,
        h**3 * q2 / 720.0,
        h * h * q2 * (2.0 * q1 / 3.0 + q3 / 60.0) / 240.0,
        h * q1 * q2 * r / 14400.0,
    ], axis=-1)


def propagate(
    h0: np.ndarray, h1: np.ndarray, omega: float, steps: int, snapshots=()
) -> Propagation:
    """Propagate i dU/dt = Sigma_z (H0 + H1 cos(omega t)) U over one period.

    h0, h1 have shape (..., d, d) and broadcast against each other; the
    leading axes are batched so a whole k-grid or drive plane integrates
    in one pass.  Each of the ``steps`` equal steps h is the sixth-order
    Magnus step on the three Gauss-Legendre nodes of the step (Blanes,
    Casas & Ros, BIT 40, 434 (2000)): with A = -i Sigma_z H, A_i its value
    at node i, alpha1 = h A2, alpha2 = (sqrt(15) h/3)(A3 - A1) and
    alpha3 = (10 h/3)(A3 - 2 A2 + A1),

        C1 = [alpha1, alpha2],  C2 = -[alpha1, 2 alpha3 + C1]/60,
        Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240.

    Since A(t) = M0 + cos(omega t) M1, Omega is a fixed combination of M0,
    M1 and five nested commutators, formed once (``_magnus_basis``); each
    step only weighs them.  Omega is mapped onto the group by the diagonal
    (3,3) Pade approximant of exp, applied as the increment

        U <- U + D^-1 (Omega + Omega^3/60) U,  D = 1 - Omega/2 + Omega^2/10 - Omega^3/120.

    That map sends the Lie algebra of U(n, n) into the group, so U stays
    pseudo-unitary to round-off at any step size; the quasienergy error
    falls as steps^-6.

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

    The flattened batch is integrated CHUNK propagators at a time, so the
    commutator basis and the step temporaries take bounded memory at any
    batch size; each propagator's arithmetic does not depend on the chunk.

    Every product of a step is real, which numpy computes faster at every
    batch shape: the real view of a complex (d, d) Z is (d, 2d), Re and Im
    interleaved, and that of Z W = Re(Z) W + Im(Z) (iW) is real(Z) R(W),
    where rows 2k and 2k + 1 of the real (2d, 2d) R(W) are row k of real(W)
    and of real(iW).  Only the Pade solve is complex.  R(W) changes no basis,
    so entries that vanish stay exactly zero and U(0) is exactly 1.

    ``steps`` must be at least MIN_STEPS.  ``snapshots`` lists step indices
    s in 0..steps at which U(s h) is recorded.  ``step_norm`` is
    h (|H0| + |H1|) per propagator, in the max-row-sum norm, which bounds
    the spectral norm of a Hermitian matrix; above MAX_STEP_NORM the Magnus
    series is too close to its convergence radius pi and U, while
    pseudo-unitary, is not accurate.
    """
    if steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} integrator steps, got {steps}")
    record = set(snapshots)
    if not all(0 <= s <= steps for s in record):
        raise ValueError(f"snapshot steps must lie in 0..{steps}, got {sorted(record)}")
    h0 = np.asarray(h0, dtype=complex)
    h1 = np.asarray(h1, dtype=complex)
    perm = _conjugation(h0, h1)
    shape = np.broadcast_shapes(h0.shape, h1.shape)
    d = shape[-1]
    sz = nambu_metric(d)[:, None]
    h = 2.0 * math.pi / omega / steps
    norms = np.abs(h0).sum(axis=-1).max(axis=-1) + np.abs(h1).sum(axis=-1).max(axis=-1)
    step_norm = np.broadcast_to(h * norms, shape[:-2])
    half = steps // 2
    forward = steps - half
    weights = _magnus_coefficients(omega, h, forward)
    eye = np.eye(d)
    direct = {s if s <= forward else steps - s for s in record}
    rows, cols = perm[:, None], perm
    batch = shape[:-2] or (1,)
    h0, h1 = (np.broadcast_to(x, (*batch, d, d)) for x in (h0, h1))
    u_t = np.empty(shape, dtype=complex)
    snaps = {s: np.empty(shape, dtype=complex) for s in record}
    for start in range(0, math.prod(batch), CHUNK):
        part = np.unravel_index(np.arange(start, min(start + CHUNK, math.prod(batch))), batch)
        n = len(part[0])
        basis = _magnus_basis(-1j * sz * h0[part], -1j * sz * h1[part], (n, d, d))
        basis = basis.view(float).reshape(8, -1)
        powers = np.empty((4, n, d, d), dtype=complex)  # Omega, Omega^2, Omega^3, 1
        powers[3] = eye
        pade = np.empty((2, n, d, d), dtype=complex)
        rhs = np.empty((n, d, d), dtype=complex)
        right = np.empty((2, n, d, 2, d), dtype=complex)  # R(Omega), R(U)
        r_om, r_u = right.view(float).reshape(2, n, 2 * d, 2 * d)
        om, om2, om3 = (x.view(float) for x in powers[:3])
        u = powers[3].copy()
        seen = {0: u.copy()} if 0 in direct else {}
        for s in range(forward):
            np.matmul(weights[s], basis, out=om.reshape(-1))
            right[0, :, :, 0] = powers[0]
            right[1, :, :, 0] = u
            np.multiply(right[:, :, :, 0], 1j, out=right[:, :, :, 1])
            np.matmul(om, r_om, out=om2)
            np.matmul(om2, r_om, out=om3)
            np.matmul(_PADE, powers.view(float).reshape(4, -1), out=pade.view(float).reshape(2, -1))
            np.matmul(pade[0].view(float), r_u, out=rhs.view(float))
            u += np.linalg.solve(pade[1], rhs)
            if s + 1 == half:
                u_half = u.copy()
            if s + 1 in direct:
                seen[s + 1] = u.copy()
        u = (sz * np.swapaxes(u_half, -1, -2) * sz.T)[..., rows, cols] @ u
        u_t.reshape(-1, d, d)[start:start + len(u)] = u
        for s, snap in snaps.items():
            snap.reshape(-1, d, d)[start:start + len(u)] = (
                seen[s] if s <= forward else seen[steps - s][..., rows, cols].conj() @ u
            )
    return Propagation(u_t, snaps, step_norm)


def sympl_residual(u) -> np.ndarray:
    """max |U+ Sigma_z U - Sigma_z| per matrix of a (..., d, d) batch."""
    u = np.asarray(u)
    sz = nambu_metric(u.shape[-1])
    return np.abs(np.swapaxes(u.conj(), -1, -2) * sz @ u - np.diag(sz)).max(axis=(-2, -1))


def _cell_errors(prop: Propagation, what: str, cell_axes: int) -> np.ndarray:
    """Failure message, starting with ``what``, of each cell of a batch, or None.

    The first ``cell_axes`` batch axes index the cells.  The propagators along
    the others (a k-grid point's momenta) fail together, on their largest step
    norm, any non-finite entry or their largest pseudo-unitarity residual.
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
    all three keep their input order.
    """
    by_re = np.argsort(eps.real, axis=-1, kind="stable")
    gaps = np.diff(np.take_along_axis(eps.real, by_re, -1), axis=-1) > TIE_WINDOW * omega
    rank = np.zeros(eps.shape, dtype=int)
    np.put_along_axis(rank, by_re[..., 1:], np.cumsum(gaps, axis=-1), axis=-1)
    return np.lexsort((cnorm, np.where(cnorm == 0, eps.imag, 0.0), rank), axis=-1)


def _log_eps(lam, omega: float) -> np.ndarray:
    """eps = (i omega/2pi) Log lambda, with Re eps folded into (-omega/2, omega/2]."""
    pref = omega / (2.0 * math.pi)
    return fold(-pref * np.angle(lam), omega) + 1j * pref * np.log(np.abs(lam))


def quasienergies(u, omega: float) -> np.ndarray:
    """The eps of ``eig_branches`` from eigenvalues alone, unpaired and unsorted."""
    return _log_eps(np.linalg.eigvals(u), omega)


def eig_branches(u, omega: float):
    """Eigendecompose batched monodromy matrices into quasienergy data.

    Parameters
    ----------
    u : (..., d, d) complex
        Pseudo-unitary propagators.
    omega : drive frequency used for the folding window.

    Returns
    -------
    eps : (..., d) complex, sorted by Re per batch entry, with Re eps folded
        into (-omega/2, omega/2]; Im eps > 0 marks a growing mode.  Zero-norm
        branches come as exact conjugate pairs (``_pair_conjugates``).
        Ties in Re are broken by ``branch_order``, so neither a pair nor two
        pairs at the same Re (the midgap modes of a chain) are ordered by
        round-off in Re
    cnorm : (..., d) int in {-1, 0, +1}, the symplectic norm sign, 0 when the
        branch is not normalizable in the Sigma_z metric
    states : (..., d, d) complex, states[..., i, :] is the branch-i vector,
        normalized to <psi|Sigma_z|psi> = cnorm when cnorm != 0, else to unit
        Euclidean norm
    defective : (..., d) bool, True where eigenvectors nearly coalesce
    """
    u = np.asarray(u, dtype=complex)
    lam, vec = np.linalg.eig(u)
    eps = _log_eps(lam, omega)

    # near-parallel eigenvectors signal a defective (non-diagonalizable) U
    gram = np.abs(np.swapaxes(vec.conj(), -1, -2) @ vec)
    d = u.shape[-1]
    gram[..., np.arange(d), np.arange(d)] = 0.0
    defective = (gram > DEFECT_OVERLAP).any(axis=-1)

    sz = nambu_metric(d)
    q = np.einsum("...mi,m,...mi->...i", vec.conj(), sz, vec).real
    normalizable = (np.abs(q) > TOL_NORM) & ~defective
    scale = np.where(normalizable, np.sqrt(np.abs(q)), 1.0)
    vec = vec / scale[..., None, :]
    cnorm = np.where(normalizable, np.sign(q).astype(int), 0).astype(int)
    eps = _pair_conjugates(eps, cnorm == 0, omega)

    order = branch_order(eps, cnorm, omega)
    eps = np.take_along_axis(eps, order, axis=-1)
    cnorm = np.take_along_axis(cnorm, order, axis=-1)
    defective = np.take_along_axis(defective, order, axis=-1)
    states = np.take_along_axis(np.swapaxes(vec, -1, -2), order[..., :, None], axis=-2)
    return eps, cnorm, states, defective


def classify_arrays(eps, cnorm, omega: float, tol_im: float):
    """Vectorized verdict codes 0/1/2 = strong/marginal/unstable over batches.

    The last axis holds the branches of one momentum (or one chain).  Unstable
    if any |Im eps| > tol_im.  Otherwise marginally stable if any pair of
    opposite symplectic norm has Re eps closer than RESONANCE_WINDOW * omega
    on the quasienergy circle (covering degeneracies at Re eps near 0 and omega/2),
    or if any branch is non-normalizable.  Strongly stable otherwise.
    """
    eps = np.asarray(eps)
    cnorm = np.asarray(cnorm)
    unstable = (np.abs(eps.imag) > tol_im).any(axis=-1)
    dist = np.abs(eps.real[..., :, None] - eps.real[..., None, :]) % omega
    dist = np.minimum(dist, omega - dist)
    opposite = cnorm[..., :, None] * cnorm[..., None, :] == -1
    resonant = (opposite & (dist < RESONANCE_WINDOW * omega)).any(axis=(-2, -1))
    marginal = resonant | (cnorm == 0).any(axis=-1)
    return np.where(unstable, 2, np.where(marginal, 1, 0))


def solve_cells(prop: Propagation, what: str, cell_axes: int, solve) -> np.ndarray:
    """The per-cell failure rule: runs ``solve(cells)``, the eigensolve of
    ``prop.u[cells]``, once on the mask of the cells that pass ``_cell_errors``
    and returns the error array.  If that raises LinAlgError, each cell is retried
    alone, and those failing again get ``eigensolver failed: ...``."""
    error = _cell_errors(prop, what, cell_axes)
    ok = np.equal(error, None)
    try:
        solve(ok)
    except np.linalg.LinAlgError:
        for cell in map(tuple, np.argwhere(ok)):
            try:
                solve(cell)
            except np.linalg.LinAlgError as exc:
                error[cell] = f"eigensolver failed: {exc}"
    return error


def kgrid_solve(points, nk: int, steps: int = DEFAULT_STEPS):
    """Batched quasienergy solve of a sequence of P parameter sets over the momentum grid.

    Returns (ks, eps, cnorm, states, error) shaped (nk,), (P, nk, 4), (P, nk, 4),
    (P, nk, 4, 4) and (P,), branch vectors along the last axis.  Each point is
    one cell of ``solve_cells`` (NaN eps and states if it fails); points sharing
    omega share one ``propagate`` call.  Only k >= 0 is integrated: H_{-k} =
    C H_k C with C = CONJUGATION for every parameter set, so U_{-k} = C U_k C,
    and -k takes the eps and cnorm of k and C times its states.
    """
    ks = kgrid(nk)
    half, take = mirror_half(ks)
    eps = np.full((len(points), len(half), 4), complex(math.nan, math.nan))
    cnorm = np.zeros(eps.shape, dtype=int)
    states = np.full((*eps.shape, 4), complex(math.nan, math.nan))
    error = np.empty(len(points), dtype=object)
    for omega in dict.fromkeys(p.omega for p in points):
        group = np.array([i for i, p in enumerate(points) if p.omega == omega])
        h0, h1 = (np.stack(b) for b in zip(*(bloch_blocks(points[i], ks[half]) for i in group)))
        prop = propagate(h0, h1, omega, steps)

        def solve(cells):
            at = group[cells]
            eps[at], cnorm[at], states[at], _ = eig_branches(prop.u[cells], omega)

        error[group] = solve_cells(prop, "k-grid", 1, solve)
    states = states[:, take]
    mirrored = half[take] != np.arange(nk)
    states[:, mirrored] = states[:, mirrored][..., _BLOCH_C]
    return ks, eps[:, take], cnorm[:, take], states, error
