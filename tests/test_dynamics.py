import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh

from floqbog.cli import load_recipe
from floqbog.dynamics import (
    ChainSpectrum,
    EvolutionTrace,
    _bulk_gap,
    _chain_propagation,
    _sector_residual,
    _side_balance,
    chain_spectrum,
    detect_midgap,
    edge_weight,
    evolve_vacuum,
    growth_rate_fit,
)
from floqbog.floquet import IntegrationError, eig_branches, kgrid_solve, propagate
from floqbog.model import ModelParams, chain_blocks

from helpers import block_residual, chain_sites, evolve_reference

PA = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)
#: a stable chain whose two parity sectors differ: at 8 cells its occupations
#: reach 0.23 within 3 periods, with |B_e|^2 and |B_o|^2 apart by order one
STABLE = ModelParams(nu0=3.0, nu0p=0.3, nu1=1.5, nu1p=1.0, mu=-1.0, omega=9.0, g=1.0)


def mirror(sites: int) -> np.ndarray:
    """Nambu component index of each component's image under j -> sites - 1 - j."""
    j = np.arange(sites)
    return np.concatenate([sites - 1 - j, 2 * sites - 1 - j])


@pytest.fixture(scope="module")
def spec_a() -> ChainSpectrum:
    return chain_spectrum(PA, cells=20, steps=2048)


@pytest.fixture(scope="module")
def trace_a() -> EvolutionTrace:
    return evolve_vacuum(PA, cells=20, t_max=25.0, n_samples=81, steps_per_period=1024)


class TestEdgeWeight:
    def test_uniform_state(self):
        state = np.ones(80) / math.sqrt(80)
        assert edge_weight(state, 0.1) == pytest.approx(0.2)

    def test_central_site(self):
        state = np.zeros(80)
        state[19] = 1.0
        assert edge_weight(state, 0.1) == 0.0

    def test_half_fraction_counts_everything(self):
        rng = np.random.default_rng(0)
        state = rng.normal(size=80) + 1j * rng.normal(size=80)
        assert edge_weight(state, 0.5) == pytest.approx(1.0)

    def test_batch_matches_single_states(self):
        rng = np.random.default_rng(1)
        states = rng.normal(size=(3, 5, 80)) + 1j * rng.normal(size=(3, 5, 80))
        batch = edge_weight(states, 0.2)
        assert batch.shape == (3, 5)
        for idx in np.ndindex(3, 5):
            assert batch[idx] == pytest.approx(edge_weight(states[idx], 0.2), abs=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.6])
    def test_fraction_validation(self, bad):
        with pytest.raises(ValueError):
            edge_weight(np.ones(8), bad)


class TestChainSpectrum:
    def test_shapes(self, spec_a):
        assert spec_a.eps.shape == spec_a.cnorm.shape == (80,)
        assert spec_a.states.shape == (80, 80)
        assert spec_a.edge_weights.shape == (80,)

    def test_bulk_gap(self, spec_a):
        assert 0.4 < spec_a.bulk_gap < 0.6

    def test_four_midgap_two_per_side(self, spec_a):
        flagged, sides = detect_midgap(spec_a)
        assert len(flagged) == 4
        assert sides == (2, 2)

    def test_midgap_pinned_and_growing(self, spec_a):
        eps = spec_a.eps[list(detect_midgap(spec_a)[0])]
        assert np.abs(eps.real).max() < 0.1 * spec_a.bulk_gap
        assert (eps.imag > 1e-4).sum() >= 2
        assert np.abs(eps.imag).min() > 1e-4

    def test_midgap_edge_localized(self, spec_a):
        for i in detect_midgap(spec_a)[0]:
            assert spec_a.edge_weights[i] > 0.6
            assert edge_weight(spec_a.states[i], 0.2) > 0.9

    def test_bulk_modes_quiet(self, spec_a):
        # residual bulk Im eps is a finite-size Krein collision, not an
        # edge instability; it stays two orders below the midgap rates
        bulk = np.setdiff1d(np.arange(80), list(detect_midgap(spec_a)[0]))
        assert np.abs(spec_a.eps[bulk].imag).max() < 1e-2

    def test_conjugation_closure(self, spec_a):
        eps = spec_a.eps
        a = np.sort_complex(eps.round(7))
        b = np.sort_complex(eps.conj().round(7))
        assert np.allclose(a, b, atol=1e-6)

    def test_cell_count_robustness(self):
        for cells in (12, 14):
            spec = chain_spectrum(PA, cells=cells, steps=1024)
            flagged, sides = detect_midgap(spec)
            assert len(flagged) == 4 and sides == (2, 2)

    @pytest.mark.parametrize("cells", [9, 20])
    def test_sector_propagation_equals_full(self, cells):
        """The two parity sectors, mapped back to sites, give the 4M x 4M U(T)
        and snapshots of a direct propagation."""
        marks = (0, 37, 128, 129, 200, 256)
        full = propagate(*chain_blocks(PA, cells), PA.omega, 256, marks)
        prop = _chain_propagation(PA, cells, 256, marks)
        assert prop.u.shape == (2, 2 * cells, 2 * cells)
        assert np.abs(chain_sites(prop.u) - full.u).max() < 1e-13
        assert sorted(prop.snapshots) == list(marks)
        for s in marks:
            assert np.abs(chain_sites(prop.snapshots[s]) - full.snapshots[s]).max() < 1e-13

    @pytest.mark.parametrize("cells", [9, 20])
    def test_sector_spectrum_equals_site_eigensolve(self, cells):
        """The merged sector branches are those of eig_branches on the site
        monodromy of a direct 4M x 4M propagation, in the same order."""
        full = propagate(*chain_blocks(PA, cells), PA.omega, 256)
        eps, cnorm, _, _ = eig_branches(full.u, PA.omega)
        spec = chain_spectrum(PA, cells=cells, steps=256)
        assert np.array_equal(spec.cnorm, cnorm)
        assert np.abs(spec.eps - eps).max() < 1e-12

    @pytest.mark.parametrize("cells", [9, 20])
    def test_states_have_exact_parity(self, cells):
        spec = chain_spectrum(PA, cells=cells, steps=256)
        flip = spec.states[:, mirror(2 * cells)]
        even = (flip == spec.states).all(axis=1)
        odd = (flip == -spec.states).all(axis=1)
        assert even.sum() == odd.sum() == 2 * cells
        norm = np.einsum("im,m,im->i", spec.states.conj(), np.repeat([1.0, -1.0], 2 * cells),
                         spec.states).real
        unit = np.linalg.norm(spec.states, axis=1)
        assert np.abs(np.where(spec.cnorm != 0, norm - spec.cnorm, unit - 1.0)).max() < 1e-12

    @pytest.mark.parametrize("nk", [64, 97])
    def test_bulk_gap_follows_nk(self, nk):
        _, eps, _, _, _ = kgrid_solve([PA], nk, 256)
        spec = chain_spectrum(PA, cells=8, steps=256, nk=nk)
        assert spec.bulk_gap == 2.0 * float(np.abs(eps.real).min())

    def test_bulk_gap_from_eigenvalues(self):
        """At the fig3a point the eigenvalue-only gap is that of the full k-grid
        solve to round-off, and the fig3a midgap states and sides are unchanged."""
        _, eps, _, _, _ = kgrid_solve([PA], 128, 64)
        assert _bulk_gap(PA, 128, 64) == pytest.approx(2.0 * np.abs(eps.real).min(), abs=1e-13)
        spec = chain_spectrum(PA, cells=20, steps=64, nk=128)
        assert detect_midgap(spec) == ((38, 39, 40, 41), (2, 2))

    def test_rejects_tiny_chain(self):
        with pytest.raises(ValueError):
            chain_spectrum(PA, cells=4)

    def test_coarse_step_raises(self):
        loud = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=2e3, mu=-5.0, omega=5.2)
        with pytest.raises(IntegrationError, match="too coarse"):
            chain_spectrum(loud, cells=8, steps=64)
        with pytest.raises(IntegrationError, match="too coarse"):
            evolve_vacuum(loud, cells=8, t_max=1.0, n_samples=4, steps_per_period=64)

    def test_trivial_chain_has_no_midgap(self):
        p = ModelParams(nu0=3.0, nu0p=0.3, nu1=0, nu1p=0, mu=0.0, omega=9.0, g=0.5)
        spec = chain_spectrum(p, cells=10, steps=512)
        assert detect_midgap(spec) == ((), (0, 0))
        assert np.abs(spec.eps.imag).max() < 1e-8

    @pytest.mark.parametrize("sites", [20, 21, 40])
    def test_side_balance_matches_generalized_eigh(self, sites):
        """Left-minus-right asymmetries agree with scipy's generalized solver."""
        rng = np.random.default_rng(sites)
        side = np.sign((sites - 1) / 2.0 - np.arange(sites))  # odd chain: center is 0
        d = np.concatenate([side, side])
        for size in (1, 2, 3, 4):
            shape = (size, 2 * sites)
            common = rng.normal(size=2 * sites) + 1j * rng.normal(size=2 * sites)
            states = rng.normal(size=shape) + 1j * rng.normal(size=shape) + 2.0 * common
            norm = states / np.linalg.norm(states, axis=1, keepdims=True)
            m = (norm.conj() * d) @ norm.T
            s = norm.conj() @ norm.T
            want = eigh(m, s, eigvals_only=True)
            assert np.abs(_side_balance(states) - want).max() < 1e-12

    def test_detect_midgap_overrides(self, spec_a):
        idx, _ = detect_midgap(spec_a, window=100.0, edge_threshold=0.0)
        assert len(idx) == 80
        idx, sides = detect_midgap(spec_a, edge_threshold=1.1)
        assert idx == () and sides == (0, 0)


class TestEvolution:
    def test_starts_in_vacuum(self, trace_a):
        assert trace_a.times[0] == 0.0
        assert np.abs(trace_a.occupations[0]).max() == 0.0

    def test_shapes_and_monotone_times(self, trace_a):
        assert trace_a.occupations.shape == (trace_a.times.size, 40)
        assert (np.diff(trace_a.times) > 0).all()
        assert not trace_a.truncated

    def test_occupations_physical(self, trace_a):
        assert (trace_a.occupations >= 0).all()
        assert np.isfinite(trace_a.occupations).all()

    def test_symplectic_structure_preserved(self, trace_a):
        assert trace_a.sympl_residual.max() < 1e-6

    def test_occupations_mirror_symmetric(self, trace_a):
        assert (trace_a.occupations == trace_a.occupations[:, ::-1]).all()

    def test_sector_forms_equal_site_basis(self):
        """Occupations and sympl_residual equal their site-basis definitions on
        the site matrices U(tau) U(T)^n rebuilt from the sectors."""
        cells, steps = 8, 256
        trace = evolve_vacuum(STABLE, cells=cells, t_max=3.0, n_samples=12,
                              steps_per_period=steps)
        assert not trace.truncated and trace.times.size == 12
        wraps, offs = np.divmod(np.rint(trace.times / (STABLE.period / steps)).astype(int),
                                steps)
        prop = _chain_propagation(STABLE, cells, steps, offs.tolist())
        mono = chain_sites(prop.u)
        n = 2 * cells
        for s in range(trace.times.size):
            u = chain_sites(prop.snapshots[int(offs[s])]) @ np.linalg.matrix_power(mono, wraps[s])
            occ = (np.abs(u[:n, n:]) ** 2).sum(axis=1)
            assert np.abs(trace.occupations[s] - occ).max() <= 1e-12 * occ.max()
            assert abs(trace.sympl_residual[s] - block_residual(u)) < 1e-13
        assert trace.occupations.max() > 0.1

    @pytest.mark.parametrize("sites", [16, 40])
    def test_sector_residual_formula(self, sites):
        """The sector form of the residual is the site-basis one for any pair
        of sector matrices, symplectic or not: random ones, and ones whose only
        defect is an antisymmetric A B^T of opposite sign in the two sectors
        (A = cosh r, B = +-sinh r W with W unitary and not symmetric)."""
        rng = np.random.default_rng(sites)
        u = rng.normal(size=(2, sites, sites)) + 1j * rng.normal(size=(2, sites, sites))
        m = sites // 2
        w = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
        skew = u.copy()
        skew[:, :m, :m] = math.cosh(0.7) * np.eye(m)
        skew[0, :m, m:], skew[1, :m, m:] = math.sinh(0.7) * w, -math.sinh(0.7) * w
        for x in (u, skew):
            want = block_residual(chain_sites(x))
            assert want > 0.1
            assert abs(_sector_residual(x) - want) <= 1e-13 * want

    @pytest.mark.parametrize("run", [{}, {"t_max": 120.0, "samples": 481}],
                             ids=["fig3b", "truncated-mid-period"])
    def test_equals_per_sample_reference(self, run):
        """Per-period products on the particle rows give bitwise the trace of
        full per-sample products, also when the overflow stop falls inside a
        period (the 171st sample is the third of period 42, at 42.5 T)."""
        recipe = load_recipe("fig3b")
        task = {**recipe["task"], **run}
        args = (ModelParams(**recipe["model"]), task["cells"], task["t_max"], task["samples"],
                recipe["numerics"]["steps"])
        got, want = evolve_vacuum(*args), evolve_reference(*args)
        assert got.truncated == want.truncated == bool(run)
        for name in ("times", "occupations", "sympl_residual", "marks"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        if run:
            assert got.times.size == 171 and got.marks[-1] == 42 * 64 + 32

    def test_edge_growth_matches_spectrum(self, spec_a, trace_a):
        rate = growth_rate_fit(trace_a)
        target = 2.0 * spec_a.eps[list(detect_midgap(spec_a)[0])].imag.max()
        assert rate == pytest.approx(target, rel=0.15)

    def test_bulk_stays_quiet(self, trace_a):
        # mid-chain leakage of an edge mode: same rate, suppressed amplitude
        n_end = trace_a.occupations[-1]
        assert n_end[19] < 1e-3 * n_end[0]

    def test_no_pairing_no_growth(self):
        p = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2, g=0.0)
        trace = evolve_vacuum(p, cells=8, t_max=3.0, n_samples=12, steps_per_period=256)
        assert np.abs(trace.occupations).max() == 0.0
        assert growth_rate_fit(trace) is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_truncates(self):
        trace = evolve_vacuum(PA, cells=12, t_max=60.0, n_samples=61, steps_per_period=512)
        assert trace.truncated
        assert trace.times.size < 61
        assert trace.occupations[-1].max() > 1e12
        # samples 2500 periods apart: U(T)^n overflows before the second one,
        # which is dropped rather than kept as NaN occupations
        far = evolve_vacuum(PA, cells=12, t_max=1e4, n_samples=5, steps_per_period=512)
        assert far.truncated
        assert far.times.size == 1
        assert np.isfinite(far.occupations).all() and np.isfinite(far.sympl_residual).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_stops_forming_periods(self):
        """fig3b at t_max 1e6 with 3 samples: U(T)^n overflows at period 2067, and
        at most 63 periods are formed after that, not the half-million up to the
        second sample, which took some 13 s to multiply on a 2-core host."""
        recipe = load_recipe("fig3b")
        start = time.perf_counter()
        trace = evolve_vacuum(ModelParams(**recipe["model"]), recipe["task"]["cells"], 1e6, 3,
                              recipe["numerics"]["steps"])
        assert time.perf_counter() - start < 5.0
        assert trace.truncated and trace.times.size == 1
        assert np.isfinite(trace.occupations).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            evolve_vacuum(PA, cells=8, n_samples=1)
        with pytest.raises(ValueError):
            evolve_vacuum(PA, cells=8, t_max=-1.0)


class TestGrowthRateFit:
    def test_synthetic_exponential(self):
        times = np.linspace(0.0, 10.0, 101)
        lam = 0.37
        occ = np.exp(2.0 * lam * np.outer(times, [1.0, 2.0, 3.0]))  # site 1 is fitted
        trace = EvolutionTrace(times, occ, np.zeros(101), False, np.arange(101))
        assert growth_rate_fit(trace) == pytest.approx(2 * lam, abs=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_window_at_int64_marks(self):
        """Marks up to the int64 limit: the window starts at 8/20 of the trace as at
        any other scale, with no overflow; the flat start before it is left out."""
        marks = np.arange(21, dtype=np.int64) * (np.iinfo(np.int64).max // 20)
        times = np.arange(21.0)
        lam = 0.37
        occ = np.exp(2.0 * lam * np.maximum(times, 8.0))[:, None] * np.ones(3)
        trace = EvolutionTrace(times, occ, np.zeros(21), False, marks)
        assert growth_rate_fit(trace) == pytest.approx(2 * lam, abs=1e-9)

