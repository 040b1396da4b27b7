import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from floqbog.model import (
    I2,
    SX,
    ModelParams,
    bloch_blocks,
    chain_blocks,
    drive_amplitudes,
    nambu_metric,
    static_fields,
)

from helpers import SZ, chiral_residual

PA = dict(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])

amp = st.floats(-10.0, 10.0, allow_nan=False)


def bloch_at(p: ModelParams, k: float, t: float = 0.0) -> np.ndarray:
    """H_k(t) = H0(k) + H1(k) cos(omega t) from the Bloch blocks."""
    h0, h1 = bloch_blocks(p, np.asarray(k))
    return h0 + h1 * math.cos(p.omega * t)


def chain_at(p: ModelParams, cells: int, t: float = 0.0) -> np.ndarray:
    """Open-chain Bogoliubov matrix at time t from the chain blocks."""
    h0, h1 = chain_blocks(p, cells)
    return h0 + h1 * math.cos(p.omega * t)


def hermiticity(h: np.ndarray) -> float:
    return float(np.abs(h - h.conj().T).max())


def random_params(rng) -> ModelParams:
    return ModelParams(
        nu0=rng.uniform(-3, 3),
        nu0p=rng.uniform(-3, 3),
        nu1=rng.uniform(-5, 5),
        nu1p=rng.uniform(-8, 8),
        mu=rng.uniform(-6, 6),
        omega=rng.uniform(3, 9),
        g=rng.uniform(0, 2),
    )


class TestModelParams:
    def test_period(self):
        p = ModelParams(**PA)
        assert p.period == pytest.approx(2 * math.pi / 5.2, rel=1e-15)

    def test_instantaneous_couplings(self):
        p = ModelParams(**PA)
        assert p.nu(0.0) == pytest.approx(4.5)
        assert p.nup(0.0) == pytest.approx(11.0)
        quarter = p.period / 4
        assert p.nu(quarter) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("bad", [dict(omega=0.0), dict(omega=-1.0), dict(g=-0.1),
                                     dict(mu=float("nan")), dict(nu1=float("inf"))])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            ModelParams(**{**PA, **bad})


class TestDriveFields:
    def test_fig_point_at_k0(self):
        p = ModelParams(**PA)
        (hx0, hy0), (hx1, hy1) = static_fields(p, 0.0), drive_amplitudes(p, 0.0)
        assert hx0 + hx1 == pytest.approx(-15.5)
        assert hy0 + hy1 == pytest.approx(0.0, abs=1e-15)
        assert (hx0, hx1) == (pytest.approx(-1.5), pytest.approx(-14.0))

    def test_all_zero(self):
        p = ModelParams(nu0=0, nu0p=0, nu1=0, nu1p=0, mu=0, omega=5.2, g=0)
        (hx0, hy0), (hx1, hy1) = static_fields(p, 1.3), drive_amplitudes(p, 1.3)
        assert (hx0, hy0, hx1, hy1) == (0, 0, 0, 0)

    def test_pure_intercell(self):
        hx0, hy0 = static_fields(ModelParams(nu0=0, nu0p=1, nu1=0, nu1p=0, mu=0, omega=5.2),
                                 math.pi / 2)
        assert hx0 == pytest.approx(0.0, abs=1e-15)
        assert hy0 == pytest.approx(-1.0)

    @given(k=st.floats(-math.pi, math.pi), t=st.floats(0, 10))
    def test_reconstruction(self, k, t):
        """h(k, t) = h0(k) + h1(k) cos(omega t) equals the field of nu(t), nu'(t)."""
        p = ModelParams(**PA)
        (hx0, hy0), (hx1, hy1) = static_fields(p, k), drive_amplitudes(p, k)
        c = math.cos(p.omega * t)
        assert hx0 + hx1 * c == pytest.approx(-p.nu(t) - p.nup(t) * math.cos(k), abs=1e-12)
        assert hy0 + hy1 * c == pytest.approx(-p.nup(t) * math.sin(k), abs=1e-12)

    def test_drive_circle(self):
        """(hx1, hy1) over the zone is a circle of radius |nu1p| at (-nu1, 0)."""
        p = ModelParams(**PA)
        ks = np.linspace(-math.pi, math.pi, 257)
        hx1, hy1 = drive_amplitudes(p, ks)
        assert np.abs(np.hypot(hx1 + 3.0, hy1) - 11.0).max() < 1e-12


class TestBlochHamiltonian:
    def test_zero(self):
        p = ModelParams(nu0=0, nu0p=0, nu1=0, nu1p=0, mu=0, omega=5.2, g=0)
        assert np.abs(bloch_at(p, 0.3)).max() == 0.0

    def test_pairing_and_mu_blocks(self):
        p = ModelParams(nu0=0, nu0p=0, nu1=0, nu1p=0, mu=-5.0, omega=5.2, g=1.0)
        h = bloch_at(p, 0.0)
        assert np.allclose(np.diag(h), 5.0)
        assert h[0, 2] == h[1, 3] == h[2, 0] == h[3, 1] == 1.0
        off = h - np.diag(np.diag(h))
        off[0, 2] = off[1, 3] = off[2, 0] = off[3, 1] = 0.0
        assert np.abs(off).max() == 0.0

    def test_hermitian_and_chiral(self):
        p = ModelParams(**PA)
        h = bloch_at(p, 0.0, 0.0)
        assert hermiticity(h) < 1e-12
        assert chiral_residual(h, p.mu, p.g) < 1e-12

    def test_chiral_residual_random_draws(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            p = random_params(rng)
            h = bloch_at(p, rng.uniform(-math.pi, math.pi), rng.uniform(0, 5))
            worst = max(worst, chiral_residual(h, p.mu, p.g), hermiticity(h))
        assert worst < 1e-12

    def test_chiral_residual_detects_sz_term(self):
        p = ModelParams(**PA)
        spoiled = bloch_at(p, 0.4, 0.0) + np.kron(SZ, I2)
        assert chiral_residual(spoiled, p.mu, p.g) == pytest.approx(2.0)

    def test_chiral_residual_rejects_chain(self):
        with pytest.raises(ValueError):
            p = ModelParams(**PA)
            chiral_residual(chain_at(p, 4), p.mu, p.g)

    def test_blocks_reassemble(self):
        """H0 + H1 cos(omega t) is the closed form of the module docstring."""
        p = ModelParams(**PA)
        k, t = 0.9, 0.37
        hx = -p.nu(t) - p.nup(t) * math.cos(k)
        hy = -p.nup(t) * math.sin(k)
        full = np.kron(I2, hx * SX + hy * SY) - p.mu * np.eye(4) + p.g * np.kron(SX, I2)
        assert np.abs(bloch_at(p, k, t) - full).max() < 1e-14


class TestChain:
    def test_zero(self):
        p = ModelParams(nu0=0, nu0p=0, nu1=0, nu1p=0, mu=0, omega=5.2, g=0)
        assert np.abs(chain_at(p, 2)).max() == 0.0

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError):
            chain_blocks(ModelParams(**PA), 1)

    def test_intra_bonds_only(self):
        p = ModelParams(nu0=1.0, nu0p=0, nu1=0, nu1p=0, mu=0, omega=5.2, g=0)
        k0 = chain_at(p, 2)[:4, :4].real
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = -1.0
        assert np.array_equal(k0, expected)

    def test_hermitian(self):
        assert hermiticity(chain_at(ModelParams(**PA), 6, 0.2)) < 1e-12

    def test_bulk_fourier_matches_bloch(self):
        """A bulk row of the chain Fourier transforms to the Bloch matrix."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_params(rng)
            t = rng.uniform(0, 5)
            cells = 9
            full = chain_at(p, cells, t)
            n = 2 * cells
            m0 = cells // 2
            k = rng.uniform(-math.pi, math.pi)
            target = bloch_at(p, k, t)
            got = np.zeros((4, 4), dtype=complex)
            for s_row, row in enumerate((2 * m0, 2 * m0 + 1, n + 2 * m0, n + 2 * m0 + 1)):
                for m in range(cells):
                    phase = np.exp(1j * k * (m - m0))
                    for s_col, col in enumerate((2 * m, 2 * m + 1, n + 2 * m, n + 2 * m + 1)):
                        got[s_row, s_col] += full[row, col] * phase
            assert np.abs(got - target).max() < 1e-12

    def test_metric(self):
        h = chain_at(ModelParams(**PA), 3)
        assert np.array_equal(nambu_metric(h.shape[0]), np.array([1.0] * 6 + [-1.0] * 6))
        assert np.array_equal(nambu_metric(4), np.array([1.0, 1.0, -1.0, -1.0]))
        with pytest.raises(ValueError):
            nambu_metric(5)
