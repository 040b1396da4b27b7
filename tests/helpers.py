"""Independent oracles the test suite checks the library against.

Nothing here may import from the integrator or eigensolver code paths it
validates: the monodromy oracles use scipy's general-purpose ODE machinery
and matrix exponentials, the reference Magnus stepper takes the scheme's
commutators literally over the whole period, the folded reference forms
every product of the kernel's step loop as a complex product, the reference eigensolve
runs complex LAPACK on the monodromy itself, the static spectrum is the
closed form of the 4x4 Bogoliubov problem, the chiral residual checks the
model's symmetry from its closed form, the open chain's site matrices are
rebuilt from its parity sectors entry by entry, band tracking matches one
momentum at a time against the already-tracked states, the Wilson loop
takes one band of one point at a time, the vacuum
evolution forms the whole U(tau) U(T)^n of every sample on its own, the
CSV writer formats every cell of every row on its own, the axis mirrors
come from the full n x n table of |x_i + x_j|, and Bessel values come from
mpmath's arbitrary precision series.
"""

from __future__ import annotations

import csv
import math
from itertools import permutations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from floqbog.dynamics import OVERFLOW_OCC, EvolutionTrace, _chain_propagation, _sector_residual
from floqbog.model import I2, SX, nambu_metric
from floqbog.topology import AMBIGUITY_GAP, MAX_LINK_PHASE, MIN_TRACK_OVERLAP, TrackingError

SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
#: generalized chiral operator sz (x) sz, anticommutes with the hopping part
CHIRAL = np.kron(SZ, SZ)


def static_energies(h: float, mu: float, g: float) -> tuple[complex, complex]:
    """Exact quasienergy pair of the undriven 4x4 block.

    For a static field of magnitude h the positive eigenvalues are
    sqrt((h +- |mu|)^2 - g^2), turning imaginary when the pairing bridges
    the detuned band.
    """
    ep = complex(np.sqrt(complex((h + abs(mu)) ** 2 - g**2)))
    em = complex(np.sqrt(complex((h - abs(mu)) ** 2 - g**2)))
    return ep, em


def chiral_residual(h: np.ndarray, mu: float, g: float) -> float:
    """Violation of the generalized chiral symmetry of the 4x4 hopping part.

    Strips the chemical potential ``mu`` and pairing ``g`` off the 4x4 Bloch
    matrix ``h`` and returns ``max |S A S + A|`` with S = sz (x) sz and A the
    remainder.  Zero for any H0 + H1 cos(omega t) built by ``bloch_blocks``.
    """
    h = np.asarray(h)
    if h.shape != (4, 4):
        raise ValueError(f"chiral residual is defined for the 4x4 Bloch matrix, got {h.shape}")
    a = h + mu * np.eye(4) - g * np.kron(SX, I2)
    return float(np.abs(CHIRAL @ a @ CHIRAL + a).max())


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


def magnus6_monodromy(h0: np.ndarray, h1: np.ndarray, omega: float, steps: int, marks=()):
    """The kernel's sixth-order Magnus/Pade scheme, one plain step at a time.

    Omega comes from the scheme's commutators taken literally at the three
    Gauss-Legendre nodes of each step, less the O(h^7) [C1, C2] part of the
    outer one, and every step of the full period is applied, with no
    half-period fold.  Returns (U(T), {s: U(s h) for s in marks}).
    """
    d = h0.shape[-1]
    sz = nambu_metric(d)[:, None]
    h = 2.0 * math.pi / omega / steps
    nodes = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)

    def comm(a, b):
        return a @ b - b @ a

    eye = np.eye(d)
    u = np.broadcast_to(eye, np.broadcast_shapes(h0.shape, h1.shape)).astype(complex)
    seen = {0: u} if 0 in marks else {}
    for s in range(steps):
        a1, a2, a3 = (-1j * sz * (h0 + math.cos(omega * (s + c) * h) * h1) for c in nodes)
        al1 = h * a2
        al2 = (math.sqrt(15.0) * h / 3.0) * (a3 - a1)
        al3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
        c1 = comm(al1, al2)
        c2 = -comm(al1, 2.0 * al3 + c1) / 60.0
        outer = comm(-20.0 * al1 - al3 + c1, al2 + c2) - comm(c1, c2)
        om = al1 + al3 / 12.0 + outer / 240.0
        om2 = om @ om
        om3 = om2 @ om
        den = eye - om / 2.0 + om2 / 10.0 - om3 / 120.0
        u = u + np.linalg.solve(den, (om + om3 / 60.0) @ u)
        if s + 1 in marks:
            seen[s + 1] = u
    return u, seen


def folded_monodromy(h0: np.ndarray, h1: np.ndarray, omega: float, steps: int, marks=()):
    """The kernel's half-period fold with every product of the step loop complex.

    Omega is weighed at each step from M0 = -i Sigma_z H0, M1 and their five
    nested commutators, U takes the (3,3) Pade increment, and U(T) and the
    second-half snapshots follow from the time reflection with C = 1 (x) sx
    (4x4 blocks) or C = 1 (real blocks), in complex arithmetic throughout.
    Returns (U(T), {s: U(s h) for s in marks}).
    """
    d = h0.shape[-1]
    sz = nambu_metric(d)[:, None]
    perm = np.kron(I2, SX).real.argmax(axis=-1) if d == 4 else np.arange(d)
    c = (..., perm[:, None], perm)
    h = 2.0 * math.pi / omega / steps
    half, forward = steps // 2, steps - steps // 2

    def comm(a, b):
        return a @ b - b @ a

    m0, m1 = np.broadcast_arrays(-1j * sz * h0, -1j * sz * h1)
    k = comm(m0, m1)
    basis = [m0, m1, k, comm(m0, k), comm(m1, k), comm(m0, comm(m0, k)),
             comm(m0, comm(m1, k)), comm(m1, comm(m1, k))]
    nodes = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
    eye = np.eye(d)
    u = np.broadcast_to(eye, m0.shape).astype(complex)
    direct = {s if s <= forward else steps - s for s in marks}
    seen = {0: u} if 0 in direct else {}
    for s in range(forward):
        a1, a2, a3 = (math.cos(omega * h * (s + node)) for node in nodes)
        q1 = h * a2
        q2 = (math.sqrt(15.0) * h / 3.0) * (a3 - a1)
        q3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
        r = 20.0 * q1 + q3
        weights = (h, q1 + q3 / 12.0, -h * q2 / 12.0, h * h * q3 / 360.0,
                   h * (r * q3 / 30.0 - q2 * q2) / 240.0, h**3 * q2 / 720.0,
                   h * h * q2 * (2.0 * q1 / 3.0 + q3 / 60.0) / 240.0, h * q1 * q2 * r / 14400.0)
        om = sum(w * b for w, b in zip(weights, basis))
        om2 = om @ om
        om3 = om2 @ om
        u = u + np.linalg.solve(eye - 0.5 * om + 0.1 * om2 - om3 / 120.0, (om + om3 / 60.0) @ u)
        if s + 1 == half:
            u_half = u
        if s + 1 in direct:
            seen[s + 1] = u
    u = (sz * np.swapaxes(u_half, -1, -2) * sz.T)[c] @ u
    return u, {s: seen[s] if s <= forward else seen[steps - s][c].conj() @ u for s in marks}


def eig_reference(u: np.ndarray, omega: float):
    """Quasienergy branches of U from complex LAPACK on U itself: (eps, cnorm, states).

    eps = (i omega/2pi) Log lambda for the eigenvalues lambda of np.linalg.eig(U),
    with Re eps folded into (-omega/2, omega/2] (within 1e-12 omega above
    -omega/2 counts as +omega/2).  An eigenvector v with |<v|Sigma_z|v>| > 1e-6
    is scaled to <psi|Sigma_z|psi> = cnorm = +-1; the others (cnorm 0) keep
    unit length.  states[..., i, :] is branch i.  Per matrix, branches are
    sorted by Re eps; branches within 1e-12 omega of their neighbour in Re
    form one group, ordered by Im eps if cnorm is 0 and then by cnorm.
    """
    lam, vec = np.linalg.eig(np.asarray(u, dtype=complex))
    pref = omega / (2.0 * math.pi)
    re = omega / 2.0 - np.mod(omega / 2.0 + pref * np.angle(lam), omega)
    eps = np.where(re < (1e-12 - 0.5) * omega, re + omega, re) + 1j * pref * np.log(np.abs(lam))
    sz = nambu_metric(lam.shape[-1])
    q = np.einsum("...mi,m,...mi->...i", vec.conj(), sz, vec).real
    cnorm = np.where(np.abs(q) > 1e-6, np.sign(q), 0.0).astype(int)
    states = np.swapaxes(vec / np.where(cnorm != 0, np.sqrt(np.abs(q)), 1.0)[..., None, :], -1, -2)
    order = np.empty(eps.shape, dtype=int)
    for idx in np.ndindex(eps.shape[:-1]):
        e, c = eps[idx], cnorm[idx]
        by_re = sorted(range(e.size), key=lambda i: e[i].real)
        group = {by_re[0]: 0}
        for a, b in zip(by_re, by_re[1:]):
            group[b] = group[a] + int(e[b].real - e[a].real > 1e-12 * omega)
        order[idx] = sorted(by_re, key=lambda i: (group[i], e[i].imag if c[i] == 0 else 0.0, c[i]))
    take = np.take_along_axis
    return take(eps, order, -1), take(cnorm, order, -1), take(states, order[..., None], -2)


def chain_sites(u: np.ndarray) -> np.ndarray:
    """Site-basis 2N x 2N matrix of an open chain from its (2, N, N) parity sectors.

    The sectors act on (|j> +- |N-1-j>)/sqrt2 for the first N/2 sites j,
    particles then holes, even first; written out entry by entry, the site
    matrix is U[j, l] = (U_e + U_o)/2 and U[j, N-1-l] = (U_e - U_o)/2 for
    near indices j, l, and the same with both sides mirrored.
    """
    sites = u.shape[-1]
    first = np.arange(sites // 2)
    near = np.r_[first, sites + first]
    far = np.r_[sites - 1 - first, 2 * sites - 1 - first]
    out = np.empty((2 * sites, 2 * sites), dtype=complex)
    out[np.ix_(near, near)] = out[np.ix_(far, far)] = 0.5 * (u[0] + u[1])
    out[np.ix_(near, far)] = out[np.ix_(far, near)] = 0.5 * (u[0] - u[1])
    return out


def block_residual(u: np.ndarray) -> float:
    """Symplectic residual of a site-basis U from its particle blocks A, B:
    the largest entry of A A^+ - B B^+ - 1 and of A B^T - (A B^T)^T."""
    n = u.shape[0] // 2
    a, b = u[:n, :n], u[:n, n:]
    cons = a @ a.conj().T - b @ b.conj().T - np.eye(n)
    sym = a @ b.T
    return max(float(np.abs(cons).max()), float(np.abs(sym - sym.T).max()))


def track_loop(ks, eps, cnorm, states):
    """Bands matched one momentum at a time: (eps, cnorm, states, closure).

    Each k's states are matched to the previous k's already-tracked states by
    the largest-total of the 4! assignments of their |Sigma_z overlaps|, the
    first of equal totals winning; raises the library's TrackingError
    messages.  No stability check.
    """
    nk, nb = eps.shape
    sz = nambu_metric(states.shape[-1])
    rows = np.arange(nb)
    perm = np.empty((nk, nb), dtype=int)
    perm[0] = rows
    prev = states[0]
    for j in range(1, nk):
        ov = np.abs(np.einsum("im,m,nm->in", prev.conj(), sz, states[j]))
        col = np.array(max(permutations(range(nb)), key=lambda p: ov[rows, list(p)].sum()))
        matched = ov[rows, col]
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
    return eps_t, cn_t, st_t, closure


def band_set(eps, cnorm, omega: float) -> np.ndarray:
    """The band set S of one tracked point: the (nb,) mask of the bands with
    0 < Re eps < omega/2 and cnorm +1 at every k."""
    re = eps.real
    return ((re > 0) & (re < omega / 2.0) & (cnorm == 1)).all(axis=0)


def wilson_loop(eps, cnorm, states, omega: float) -> float:
    """Pre-rounding W^S of one tracked point, one band at a time.

    Over the bands of ``band_set``, in index order, each band's Sigma_z
    Wilson-loop phase in the gauge with a real positive first component is
    summed; raises the library's TrackingError messages for the first band
    that fails.
    """
    total = 0
    for band in np.flatnonzero(band_set(eps, cnorm, omega)):
        section = states[:, band]
        amp = section[:, 0]
        if np.abs(amp).min() < 1e-3:
            raise TrackingError(
                "gauge anchor component of the band passes through zero; cannot fix "
                "a smooth gauge for the Wilson loop"
            )
        section = section / (amp / np.abs(amp))[:, None]
        sz = nambu_metric(section.shape[-1])
        args = np.angle(np.einsum("jm,m,jm->j", section.conj(), sz, np.roll(section, -1, 0)))
        if np.abs(args).max() > MAX_LINK_PHASE:
            raise TrackingError(
                f"Wilson link phase {np.abs(args).max():.2f} too large to unwrap; increase Nk"
            )
        total += float(args.sum())
    return total / math.pi


def evolve_reference(params, cells: int, t_max: float, n_samples: int, steps: int):
    """The vacuum evolution one sample at a time, as an ``EvolutionTrace``.

    Each sample forms the whole (2, N, N) sector pair U(tau) U(T)^n and its
    residual from that pair; the power U(T)^n is advanced one period at a
    time, and the trace stops after the first sample whose occupation
    exceeds OVERFLOW_OCC.  The chain propagation and the pair residual are
    the library's, checked on their own (``chain_sites``, ``block_residual``):
    what this checks is the per-period batching on the particle rows.
    """
    dt = params.period / steps
    marks = np.rint(np.linspace(0.0, t_max * params.period, n_samples) / dt).astype(int)
    wraps, offs = np.divmod(marks, steps)
    prop = _chain_propagation(params, cells, steps, offs.tolist())
    m = prop.u.shape[-1] // 2
    power = np.broadcast_to(np.eye(2 * m), prop.u.shape).astype(complex)
    done = 0
    times, occs, resid = [], [], []
    truncated = False
    for s in range(n_samples):
        while done < wraps[s]:
            power = prop.u @ power
            done += 1
        u = prop.snapshots[int(offs[s])] @ power
        half = 0.5 * (np.abs(u[:, :m, m:]) ** 2).sum(axis=(0, 2))
        occ = np.concatenate([half, half[::-1]])
        times.append(marks[s] * dt)
        occs.append(occ)
        resid.append(_sector_residual(u))
        if occ.max() > OVERFLOW_OCC:
            truncated = True
            break
    return EvolutionTrace(np.array(times), np.array(occs), np.array(resid), truncated,
                          marks[:len(times)])


def write_rows(path, table) -> None:
    """The table's CSV written row by row: a header line, then each cell as
    '' for None, repr for a float and str otherwise."""

    def fmt(value):
        if value is None:
            return ""
        return repr(float(value)) if isinstance(value, float) else str(value)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.dtype.names)
        for row in table.tolist():
            writer.writerow([fmt(v) for v in row])


def mirror_half_quadratic(values):
    """(half, take) of ``floquet.mirror_half`` from the n x n table |x_i + x_j|: the
    mirror of x_i is its argmin over j.  Memory grows as n^2, so keep n small."""
    x = np.asarray(values, dtype=float)
    tol = 4.0 * np.spacing(np.abs(x).max(initial=0.0))
    with np.errstate(over="ignore"):
        mirror = np.abs(x[:, None] + x).argmin(axis=1)
        lone = np.abs(x + x[mirror]) > tol
    keep = (x > -tol) | lone
    half = np.flatnonzero(keep)
    return half, np.searchsorted(half, np.where(keep, np.arange(x.size), mirror))


def bessel_series(n: int, x: float) -> float:
    """J_n(x) from mpmath at 30 significant digits."""
    import mpmath as mp

    with mp.workdps(30):
        return float(mp.besselj(n, x))
