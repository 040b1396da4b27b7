import math
import warnings

import numpy as np
import pytest
from scipy.special import jv

from floqbog import effective
from floqbog.effective import (
    BESSEL_REACH,
    EFFECTIVE_REACH,
    EffectiveCoefficients,
    _bessel_j,
    choose_indices,
    effective_coefficients,
    effective_quasienergies,
    effective_spectrum,
)
from floqbog.floquet import eig_branches, fold, kgrid, kgrid_solve, propagate
from floqbog.model import ModelParams, bloch_blocks

from helpers import bessel_series, static_energies

PA = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)
PB = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=6.0, mu=-5.0, omega=5.2)


class TestChooseIndices:
    def test_fig_point(self):
        assert choose_indices(PA) == (0, -2)

    def test_zero_mu(self):
        p = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=0.0, omega=5.2)
        assert choose_indices(p)[1] == 0

    def test_no_drive(self):
        p = ModelParams(nu0=1.5, nu0p=0.4, nu1=0.0, nu1p=0.0, mu=-5.0, omega=5.2)
        assert choose_indices(p)[0] == 0

    def test_beta_tie_prefers_small_index(self):
        p = ModelParams(nu0=1.0, nu0p=0.0, nu1=1.0, nu1p=0.0, mu=1.3, omega=5.2)
        assert choose_indices(p)[1] == 0

    def test_refuses_mu_beyond_bessel_reach(self):
        """beta ~ mu / (omega/2) is a Bessel order, so |mu| beyond BESSEL_REACH
        omega/2 is refused, also where mu / (omega/2) overflows to infinity."""
        for mu, omega in ((2.7e4, 5.2), (1e300, 1e-8)):
            with pytest.raises(ValueError, match="mu is too large against omega"):
                choose_indices(ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=mu,
                                           omega=omega))

    def test_mueff_within_quarter(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            mu = rng.uniform(-20, 20)
            omega = rng.uniform(1, 12)
            p = ModelParams(nu0=1.0, nu0p=0.0, nu1=1.0, nu1p=0.0, mu=mu, omega=omega)
            _, beta = choose_indices(p)
            assert abs(mu - beta * omega / 2.0) <= omega / 4.0 + 1e-12


class TestCoefficients:
    def test_drive_magnitude_and_phase(self):
        """G lies along the drive (3, 4) at k = pi/2, with |G| set by z = 2 |drive| / omega."""
        p = ModelParams(nu0=0, nu0p=0, nu1=-3.0, nu1p=-4.0, mu=10.0, omega=20.0, g=1.0)
        c = effective_coefficients(p, np.array([math.pi / 2]), alpha=0, beta=1)
        gd = 0.5 * (jv(-1, 2.0 * 5.0 / p.omega) - jv(1, 2.0 * 5.0 / p.omega))
        assert abs(gd) > 0.1
        assert c.Gx[0] == pytest.approx(gd * 3.0 / 5.0, abs=1e-12)
        assert c.Gy[0] == pytest.approx(gd * 4.0 / 5.0, abs=1e-12)

    def test_phase_along_y(self):
        p = ModelParams(nu0=0, nu0p=0, nu1=0.0, nu1p=-2.0, mu=10.0, omega=20.0, g=1.0)
        c = effective_coefficients(p, np.array([math.pi / 2]), alpha=0, beta=1)
        gd = 0.5 * (jv(-1, 2.0 * 2.0 / p.omega) - jv(1, 2.0 * 2.0 / p.omega))
        assert c.Gx[0] == pytest.approx(0.0, abs=1e-12)
        assert c.Gy[0] == pytest.approx(gd, abs=1e-12)

    def test_drive_along_x_splits_components(self):
        """Drive along x keeps h_x and Bessel-suppresses h_y."""
        p = ModelParams(nu0=0.4, nu0p=0.7, nu1=-2.0, nu1p=0.0, mu=0, omega=6.0, g=0)
        ks = np.array([0.5, 1.7, 2.9])
        hx0 = -p.nu0 - p.nu0p * np.cos(ks)
        hy0 = -p.nu0p * np.sin(ks)
        z = 2.0 * 2.0 / p.omega
        for alpha in (0, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                c = effective_coefficients(p, ks, alpha=alpha, beta=0)
            assert np.allclose(c.heffx, hx0 - alpha * p.omega / 2.0, atol=1e-12)
            assert np.allclose(c.heffy, jv(alpha, z) * hy0, atol=1e-12)

    def test_zero_drive_is_degenerate(self):
        """With no drive phi_k is 0 by convention: at alpha != 0 the reduced
        field is shifted along x only, and its y part is suppressed by J_alpha(0)."""
        p = ModelParams(nu0=1.0, nu0p=0.3, nu1=0, nu1p=0, mu=0.5, omega=8.0)
        ks = kgrid(16)
        c = effective_coefficients(p, ks, alpha=0, beta=0)
        assert np.allclose(c.geff, p.g)
        assert np.allclose(np.hypot(c.Gx, c.Gy), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c = effective_coefficients(p, ks, alpha=1, beta=0)
        assert np.allclose(c.heffx, -p.nu0 - p.nu0p * np.cos(ks) - p.omega / 2.0, atol=1e-12)
        assert np.allclose(c.heffy, 0.0, atol=1e-12)

    def test_pairing_bessel_combination(self):
        p = ModelParams(nu0=0, nu0p=0, nu1=-3.0, nu1p=0.0, mu=-5.0, omega=5.2, g=1.0)
        c = effective_coefficients(p, np.array([0.0]), alpha=0, beta=-2)
        z = 2.0 * 3.0 / 5.2
        want = 0.5 * (bessel_series(2, z) + bessel_series(-2, z))
        assert c.geff[0] == pytest.approx(want, abs=1e-12)
        gd = 0.5 * (bessel_series(2, z) - bessel_series(-2, z))
        assert c.Gx[0] == pytest.approx(gd, abs=1e-12)
        assert c.Gy[0] == pytest.approx(0.0, abs=1e-12)

    def test_bessel_j_against_series(self):
        zs = (0.0, 0.3, 1.0, 4.23, 11.0, 20.0, 30.0)
        for n in range(-14, 15):
            batch = _bessel_j(n, np.array(zs))
            for z, got in zip(zs, batch):
                want = bessel_series(n, z)
                assert got == pytest.approx(want, abs=1e-12)
                assert _bessel_j(n, z) == pytest.approx(want, abs=1e-12)

    def test_bessel_j_bounds_its_nodes(self):
        """The node count grows with max|z| + |n|, so a reach beyond
        BESSEL_REACH is refused before any node array is formed."""
        assert _bessel_j(0, np.array([BESSEL_REACH - 1.0])).shape == (1,)
        for n, z in ((0, [1.0, 4e7]), (-10**30, [1.0]), (0, [np.inf]), (1, [np.nan])):
            with pytest.raises(ValueError, match="too large against omega"):
                _bessel_j(n, np.array(z))


    @pytest.mark.parametrize("block", [None, 64])
    def test_bessel_j_rows_keep_their_bits(self, monkeypatch, block):
        """Rows of one batch with different reaches (so different node counts)
        equal each row evaluated alone, bit for bit, also when the rows of a
        node count are split into blocks."""
        if block is not None:
            monkeypatch.setattr(effective, "BESSEL_BLOCK", block)
        rng = np.random.default_rng(5)
        z = rng.uniform(-1.0, 1.0, (6, 17)) * np.array([0.1, 3.0, 3.0, 40.0, 0.1, 12.0])[:, None]
        for n in (-3, 0, 2):
            batch = _bessel_j(n, z)
            for row, got in zip(z, batch):
                assert got.tobytes() == _bessel_j(n, row).tobytes()
            assert batch.reshape(2, 3, 17).tobytes() == _bessel_j(n, z.reshape(2, 3, 17)).tobytes()


class TestValidity:
    def test_warns_outside_window(self):
        with pytest.warns(UserWarning, match="validity window"):
            effective_coefficients(PA, kgrid(32), alpha=0, beta=-2)

    def test_silent_inside_window(self):
        p = ModelParams(nu0=0.5, nu0p=0.3, nu1=0.8, nu1p=0.4, mu=0.3, omega=20.0, g=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            effective_coefficients(p, kgrid(32), *choose_indices(p))


class TestCoefficientBound:
    @staticmethod
    def coefficients(c):
        """|h_eff| = |mueff| = geff = |G| = c, with G at right angles to h_eff."""
        c, zero = np.array([c]), np.zeros(1)
        return EffectiveCoefficients(c, zero, float(c[0]), c, zero, c)

    def test_bound_derived_for_squaring(self):
        """With every coefficient at EFFECTIVE_REACH, nothing overflows."""
        with np.errstate(all="raise"):
            ep, em = effective_quasienergies(self.coefficients(EFFECTIVE_REACH))
        assert np.isfinite(ep).all() and np.isfinite(em).all()

    @pytest.mark.parametrize("c", [1e77, 1e300, np.inf, np.nan])
    def test_refused_beyond_bound(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds 1e\\+76"):
                effective_quasienergies(self.coefficients(c))


class TestSpectrum:
    def test_undriven_matches_closed_form_and_floquet(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            nu0 = rng.uniform(1.2, 2.5)
            nu0p = rng.uniform(0.2, 0.9)
            mu = rng.uniform(-0.5, 0.5)
            hmin = nu0 - nu0p
            g = 0.5 * max(hmin - abs(mu), 0.1) * rng.uniform(0.1, 1.0)
            p = ModelParams(nu0=nu0, nu0p=nu0p, nu1=0, nu1p=0, mu=mu, omega=16.0, g=g)
            for k in (0.0, 1.1, 2.6):
                c = effective_coefficients(p, np.array([k]), *choose_indices(p))
                ep_eff, em_eff = effective_quasienergies(c)
                h = math.hypot(-nu0 - nu0p * math.cos(k), -nu0p * math.sin(k))
                ep, em = static_energies(h, mu, g)
                assert ep_eff[0] == pytest.approx(max(abs(ep), abs(em)), abs=1e-8)
                assert em_eff[0] == pytest.approx(-min(abs(ep), abs(em)), abs=1e-8)
                u = propagate(*bloch_blocks(p, np.asarray(k)), p.omega, 512).u
                exact = sorted(np.abs(eig_branches(u, p.omega)[0]))
                assert exact[0] == pytest.approx(abs(em_eff[0]), abs=1e-6)
                assert exact[-1] == pytest.approx(abs(ep_eff[0]), abs=1e-6)

    def test_fig_point_reproduces_quasienergies_mod_half_zone(self):
        """Effective dispersion tracks the exact one modulo omega/2."""
        nk = 64
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ep, em, _, verdict = effective_spectrum(PA, nk=nk, alpha=0, beta=-2)
        assert verdict == "Stable"
        _, (eps,), _, _, _ = kgrid_solve([PA], nk, steps=1024)
        half = PA.omega / 2.0
        for branch in (ep.real, em.real):
            diffs = np.abs(fold(branch[:, None] - eps.real, half))
            assert diffs.min(axis=1).max() < 0.15

    def test_unstable_point_goes_complex(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ep, em, _, verdict = effective_spectrum(PB, nk=64, alpha=0, beta=-2)
        assert verdict == "Unstable"
        assert max(np.abs(ep.imag).max(), np.abs(em.imag).max()) > 0.1
