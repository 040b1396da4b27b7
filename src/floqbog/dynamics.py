"""Open-chain Floquet spectra, midgap edge states, and vacuum evolution.

The open chain of M unit cells (N = 2M sites) is diagonalized through its
monodromy like a single Bloch block, one site-inversion sector at a time.  In the topological phase the
spectrum develops midgap states pinned near Re eps = 0 whose quasienergies
acquire imaginary parts: parametric instabilities localized at the
boundaries.  Evolving the vacuum through the symplectic propagator shows
the corresponding exponential growth of the edge-site occupations while
the bulk stays quiet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .floquet import (
    CHUNK,
    DEFAULT_STEPS,
    Propagation,
    _cell_errors,
    branch_order,
    check_cells,
    eig_branches,
    kgrid,
    mirror_half,
    propagate,
    quasienergies,
    solve_cells,
    step_weights,
)
from .model import ModelParams, bloch_blocks, chain_blocks

#: occupation beyond which the linear Bogoliubov description is hopeless
OVERFLOW_OCC = 1e12
#: quasienergy distance, in bulk gaps, below which midgap states are rotated as a group
DEGENERACY_TOL = 0.02


@dataclass(frozen=True)
class ChainSpectrum:
    """Floquet spectrum of the open chain with localization diagnostics.

    ``eps``, ``cnorm`` and ``states`` are the ``eig_branches`` branches of
    both parity sectors, merged in ``branch_order`` (``states[i]`` is the
    branch-i vector in the site basis); ``edge_weights`` aligns with the
    branches.  ``detect_midgap`` flags the midgap modes.
    """

    eps: np.ndarray
    cnorm: np.ndarray
    states: np.ndarray
    edge_weights: np.ndarray
    bulk_gap: float


@dataclass(frozen=True)
class EvolutionTrace:
    """Site occupations of the driven vacuum at sampled times.

    ``occupations[s, j]`` is n_{j+1}(times[s]) (sites are 1-based in the
    labels, arrays are 0-based); ``truncated`` marks an overflow stop.
    ``marks[s]`` is the integrator step of sample s, times[s] = marks[s] h.
    """

    times: np.ndarray
    occupations: np.ndarray
    sympl_residual: np.ndarray
    truncated: bool
    marks: np.ndarray


def edge_weight(state: np.ndarray, fraction: float = 0.1):
    """Fraction of each state's weight on the outer sites of the chain.

    Sums |psi|^2 (particle and hole components per site) over the outer
    ceil(fraction * N) sites at each end, relative to the total weight.
    ``state`` may be a batch with the components along the last axis; the
    result has its leading shape (a float for one state).
    """
    if not 0.0 < fraction <= 0.5:
        raise ValueError(f"fraction must lie in (0, 0.5], got {fraction}")
    n = state.shape[-1] // 2
    per_site = np.abs(state[..., :n]) ** 2 + np.abs(state[..., n:]) ** 2
    m = math.ceil(fraction * n)
    outer = per_site[..., :m].sum(axis=-1) + per_site[..., n - m :].sum(axis=-1)
    return outer / per_site.sum(axis=-1)


def _mirror_halves(sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Nambu indices (particles, then holes) of the first sites // 2 sites and of
    their mirror images under site inversion j -> sites - 1 - j."""
    first = np.arange(sites // 2)
    near = np.concatenate([first, sites + first])
    far = np.concatenate([sites - 1 - first, 2 * sites - 1 - first])
    return near, far


def _chain_propagation(params: ModelParams, cells: int, steps: int, snapshots=()) -> Propagation:
    """Checked U(T) and snapshots U(s h) of the open chain, per parity sector.

    Site inversion P (site j -> N - 1 - j on both Nambu halves) commutes
    exactly with both ``chain_blocks``.  In the real orthogonal parity basis
    (|j> +- |N-1-j>)/sqrt2 of the first N/2 sites, particles then holes, the
    generator splits into an even and an odd sector, each Sigma_z-structured
    of dimension N, with blocks A +- B for A = H[near, near], B = H[near, far]
    (``_mirror_halves``); each keeps S H S = H and C = 1, so ``propagate``
    carries its particle columns alone and its U(T) and snapshots are exactly
    Q-real (Q = S).  The two sectors propagate as one batch, so U(T) and
    every snapshot have shape (2, N, N), even sector first; the site matrix
    would be U[near, near] = U[far, far] = (U_e + U_o)/2 and U[near, far] =
    U[far, near] = (U_e - U_o)/2.  The step-size guard bounds each sector's
    spectral norm, and with it the chain's.
    """
    h0, h1 = chain_blocks(params, cells)
    near, far = _mirror_halves(h0.shape[0] // 2)

    def sectors(h):
        a, b = h[np.ix_(near, near)], h[np.ix_(near, far)]
        return np.stack([a + b, a - b]).real  # real blocks, so C = 1 at every size

    prop = propagate(sectors(h0), sectors(h1), params.omega, steps, snapshots)
    check_cells(_cell_errors(prop, "chain monodromy", 0))
    return prop


def _bulk_gap(params: ModelParams, nk: int = 128, steps: int = DEFAULT_STEPS) -> float:
    """Distance between the folded bulk bands across Re eps = 0, from eigenvalues alone.

    The k >= 0 momenta of the ``nk`` grid (``mirror_half``; -k has the
    spectrum of k) integrate as one ``solve_cells`` cell, and only their
    ``quasienergies`` are computed: the gap is 2 min |Re eps|.
    """
    ks = kgrid(nk)
    ks = ks[mirror_half(ks)[0]]
    eps = np.empty((1, ks.size, 4), dtype=complex)

    def solve(at, u):
        eps[at] = quasienergies(u, params.omega)

    check_cells(solve_cells(lambda _: (h[None] for h in bloch_blocks(params, ks)), eps.shape[:2],
                            params.omega, steps, "k-grid", solve))
    return 2.0 * float(np.abs(eps.real).min())


def chain_spectrum(
    params: ModelParams, cells: int = 20, steps: int = DEFAULT_STEPS, nk: int = 128
) -> ChainSpectrum:
    """Quasienergy branches of the open chain of ``cells`` unit cells.

    Each parity sector is eigendecomposed on its own (a pseudo-unitary
    problem of half the size) and its branch vectors v map to the sites as
    psi[near] = v/sqrt2, psi[far] = +-v/sqrt2, so every state has exact
    parity and keeps its norm; the sectors are merged by ``branch_order``.
    The bulk gap is read off ``nk`` momenta.
    """
    if cells < 8:
        raise ValueError(f"need at least 8 unit cells for edge separation, got {cells}")
    prop = _chain_propagation(params, cells, steps)
    eps, cnorm, vec, _ = eig_branches(prop.u, params.omega)
    dim = vec.shape[-1]
    near, far = _mirror_halves(dim)
    half = vec / math.sqrt(2.0)
    states = np.empty((2, dim, 2 * dim), dtype=complex)
    states[..., near] = half
    states[..., far] = half * np.array([1.0, -1.0])[:, None, None]
    order = branch_order(eps.ravel(), cnorm.ravel(), params.omega)
    states = states.reshape(2 * dim, 2 * dim)[order]
    return ChainSpectrum(eps.ravel()[order], cnorm.ravel()[order], states,
                         edge_weight(states), _bulk_gap(params, nk, steps))


def _side_balance(states: np.ndarray) -> np.ndarray:
    """Left-right weight asymmetries of an (optimally rotated) state group.

    Solves the generalized eigenproblem of the left-minus-right weight form
    in the (generally non-orthogonal) span of the group, returning the
    extremal asymmetries in [-1, 1]; positive means left.  The problem is
    reduced to a standard one through the Cholesky factor L of the Gram
    matrix, as LAPACK hegv does: eigvalsh(L^-1 m L^-H).
    """
    dim = states.shape[1]
    n = dim // 2
    sign = np.where(np.arange(n) < n - n // 2, 1.0, -1.0)
    sign[n // 2 : n - n // 2] = 0.0  # odd chain: center site counts neither side
    d = np.concatenate([sign, sign])
    norm = states / np.linalg.norm(states, axis=1, keepdims=True)
    m = np.einsum("am,m,bm->ab", norm.conj(), d, norm)
    chol = np.linalg.cholesky(norm.conj() @ norm.T)
    half = np.linalg.solve(chol, m)
    return np.linalg.eigvalsh(np.linalg.solve(chol, half.conj().T))


def detect_midgap(
    spectrum: ChainSpectrum,
    window: float | None = None,
    edge_threshold: float = 0.5,
) -> tuple[tuple[int, ...], tuple[int, int]]:
    """Flag edge-localized states pinned near Re eps = 0.

    Returns (indices, (left_count, right_count)).  A state qualifies with
    |Re eps| < window (default a tenth of the bulk gap) and edge weight
    above the threshold.  Groups within DEGENERACY_TOL bulk gaps are rotated
    to maximally one-sided combinations before counting sides, since the
    diagonalizer returns arbitrary (often cat-like) superpositions of left
    and right.
    """
    if window is None:
        window = 0.1 * spectrum.bulk_gap
    tol = DEGENERACY_TOL * spectrum.bulk_gap
    eps = spectrum.eps
    idx = [
        i
        for i in range(len(eps))
        if abs(eps[i].real) < window and spectrum.edge_weights[i] > edge_threshold
    ]
    left = right = 0
    remaining = sorted(idx, key=lambda i: (eps[i].real, eps[i].imag))
    while remaining:
        head, *rest = remaining
        group = [head, *(i for i in rest if abs(eps[i] - eps[head]) < tol)]  # even at tol 0
        remaining = [i for i in remaining if i not in group]
        balance = _side_balance(spectrum.states[group])
        left += int((balance > 0).sum())
        right += int((balance <= 0).sum())
    return tuple(idx), (left, right)


def _sector_residual(u: np.ndarray):
    """Site-basis symplectic residual of the chain from its sectors, per sample.

    ``u`` holds (..., 2, rows, N) sector matrices, even sector first: the whole
    (2, N, N) pair, or only its top N/2 rows, which are all the formula reads.
    With A, B the particle-particle and particle-hole blocks, the residual is
    the largest entry of X = A A^+ - B B^+ - 1 and of X = A B^T - (A B^T)^T.
    In the site basis X has the sector form of U, so its entries are
    (X_e + X_o)/2 and (X_e - X_o)/2.  Returns a float for one pair, and an
    array over the leading axes otherwise.
    """
    m = u.shape[-1] // 2
    a, b = u[..., :m, :m], u[..., :m, m:]
    cons = a @ a.conj().swapaxes(-1, -2) - b @ b.conj().swapaxes(-1, -2) - np.eye(m)
    sym = a @ b.swapaxes(-1, -2)
    sym = sym - sym.swapaxes(-1, -2)
    return 0.5 * np.max([np.abs(x[..., 0, :, :] + s * x[..., 1, :, :]).max(axis=(-2, -1))
                         for x in (cons, sym) for s in (1, -1)], axis=0)


def evolve_vacuum(
    params: ModelParams,
    cells: int = 20,
    t_max: float = 25.0,
    n_samples: int = 101,
    steps_per_period: int = DEFAULT_STEPS,
) -> EvolutionTrace:
    """Evolve the bosonic vacuum of the open chain for t_max drive periods.

    The symplectic propagator is built stroboscopically, U(nT + tau) =
    U(tau) U(T)^n, with the intra-period factors recorded while U(T) is
    integrated (sample times snap to the step grid; the recorded times are
    the snapped ones), per parity sector.  Occupations follow from the
    anomalous block, n_j = (B B^dagger)_jj, which in sector form is
    n_near = n_far = (|B_e|^2 + |B_o|^2)/2 summed over the columns, so they
    are exactly mirror-symmetric.  They and the residual (``_sector_residual``)
    read only the A and B blocks, the top N/2 rows of each sector, so only
    those rows are formed: the samples of one drive period share U(T)^n, and
    their stacked rows of U(tau) take one product with it per sector, at most
    CHUNK // 2 samples at a time.  Row for row this is the full product.  The
    trace is truncated after the first sample whose occupation exceeds 1e12,
    where exponential growth has left the linear regime, or before the first
    with non-finite occupations (U(T)^n overflowed); at most 64 periods after U(T)^n
    stops being finite no later period is formed, so an unstable chain stops within
    a few thousand periods whatever t_max.  A t_max whose step marks t_max * steps_per_period do not fit in
    int64 is refused before anything is integrated.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    step_weights(params.omega, steps_per_period)  # propagate's step check, before the time grid
    period = params.period
    dt = period / steps_per_period
    if not t_max * period / dt < 2.0 ** 63:  # the last mark, before linspace; NaN and inf too
        raise ValueError(f"t_max {t_max} drive periods at {steps_per_period} steps each "
                         "overflow the int64 step marks")
    total = np.linspace(0.0, t_max * period, n_samples)
    marks = np.rint(total / dt).astype(int)
    wraps, offs = np.divmod(marks, steps_per_period)

    prop = _chain_propagation(params, cells, steps_per_period, offs.tolist())

    mono = prop.u
    m = mono.shape[-1] // 2
    power = np.broadcast_to(np.eye(2 * m), mono.shape).astype(complex)
    done = start = 0
    occs, resid = [], []
    truncated = False
    with np.errstate(over="ignore", invalid="ignore"):  # U(T)^n may overflow between samples
        while start < n_samples and not truncated:
            stop = min(int(np.searchsorted(wraps, wraps[start], side="right")),
                       start + CHUNK // len(mono))
            # a non-finite U(T)^n stays so, and a check every 64th period costs
            # nothing on short traces and forms at most 63 periods past overflow
            while done < wraps[start] and (done % 64 or np.isfinite(power).all()):
                power = mono @ power
                done += 1
            tops = np.stack([prop.snapshots[s][:, :m] for s in offs[start:stop].tolist()], axis=1)
            rows = (tops.reshape(len(tops), -1, 2 * m) @ power).reshape(tops.shape).swapaxes(0, 1)
            half = 0.5 * (np.abs(rows[..., m:]) ** 2).sum(axis=(1, 3))
            occ = np.concatenate([half, half[:, ::-1]], axis=1)
            over = np.flatnonzero(~(occ.max(axis=1) <= OVERFLOW_OCC))  # NaN is past it too
            truncated = over.size > 0
            keep = over[0] + int(np.isfinite(occ[over[0]]).all()) if truncated else len(occ)
            occs.append(occ[:keep])
            resid.append(_sector_residual(rows[:keep]))
            start = stop
    occupations = np.concatenate(occs)
    count = len(occupations)
    return EvolutionTrace(marks[:count] * dt, occupations, np.concatenate(resid), truncated,
                          marks[:count])


def growth_rate_fit(trace: EvolutionTrace) -> float | None:
    """Least-squares growth rate of ln n_1(t), or None if the vacuum does not grow.

    The fit skips the first 40 percent of the trace as transient, decided on
    the integer step marks so that a sample on its bound stays in under any
    choice of units; its first mark ceil(2 L / 5), L the last mark, is formed in
    Python integers, so it cannot overflow.  The fit needs at least 8 samples with
    occupation above 1e-6 in that window; with fewer there is no exponential
    regime, and no rate.
    """
    n = trace.occupations[:, 0]
    mask = (trace.marks >= -(-2 * int(trace.marks[-1]) // 5)) & (n > 1e-6)
    if mask.sum() < 8:
        return None
    slope, _ = np.polyfit(trace.times[mask], np.log(n[mask]), 1)
    return float(slope)
