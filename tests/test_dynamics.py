import math

import numpy as np
import pytest
from scipy.linalg import eigh

from floqbog.dynamics import (
    ChainSpectrum,
    EvolutionTrace,
    _chain_propagation,
    _side_balance,
    chain_spectrum,
    detect_midgap,
    edge_weight,
    evolve_vacuum,
    growth_rate_fit,
)
from floqbog.floquet import IntegrationError, propagate
from floqbog.model import ModelParams, chain_blocks

PA = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)


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
        """The two parity sectors, mapped back to sites, give the 80x80 U(T)
        and snapshots of a direct propagation."""
        marks = (0, 37, 128, 129, 200, 256)
        full = propagate(*chain_blocks(PA, cells), PA.omega, 256, marks)
        u, snaps = _chain_propagation(PA, cells, 256, marks)
        assert np.abs(u - full.u).max() < 1e-13
        assert sorted(snaps) == list(marks)
        for s in marks:
            assert np.abs(snaps[s] - full.snapshots[s]).max() < 1e-13

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
        with pytest.raises(ValueError, match="no exponential regime"):
            growth_rate_fit(trace)

    def test_overflow_truncates(self):
        trace = evolve_vacuum(PA, cells=12, t_max=60.0, n_samples=61, steps_per_period=512)
        assert trace.truncated
        assert trace.times.size < 61
        assert trace.occupations[-1].max() > 1e12

    def test_validation(self):
        with pytest.raises(ValueError):
            evolve_vacuum(PA, cells=8, n_samples=1)
        with pytest.raises(ValueError):
            evolve_vacuum(PA, cells=8, t_max=-1.0)


class TestGrowthRateFit:
    def test_synthetic_exponential(self):
        times = np.linspace(0.0, 10.0, 101)
        lam = 0.37
        occ = np.exp(2.0 * lam * times)[:, None] * np.ones((1, 3))
        trace = EvolutionTrace(times, occ, np.zeros(101), False)
        assert growth_rate_fit(trace) == pytest.approx(2 * lam, abs=1e-6)
        assert growth_rate_fit(trace, fit_window=(2.0, 8.0)) == pytest.approx(2 * lam, abs=1e-6)

    def test_site_validation(self):
        times = np.linspace(0.0, 1.0, 10)
        trace = EvolutionTrace(times, np.ones((10, 3)), np.zeros(10), False)
        for bad in (0, 4):
            with pytest.raises(ValueError, match="site"):
                growth_rate_fit(trace, site=bad)

