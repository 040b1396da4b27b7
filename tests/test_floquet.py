import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqbog.floquet import (
    MAX_STEP_NORM,
    IntegrationError,
    Monodromy,
    Verdict,
    check_propagation,
    classify_arrays,
    classify_stability,
    eig_branches,
    fold,
    global_stability,
    kgrid,
    kgrid_solve,
    propagate,
    quasienergies,
    solve_bloch_k,
    symplectic_norms,
)
from floqbog.model import ModelParams, bloch_blocks, chain_blocks

from helpers import dop853_monodromy, expm_monodromy, static_energies

PA = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)
PB = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=6.0, mu=-5.0, omega=5.2)
#: k-dependent static field, so the Bloch blocks are complex
PN = ModelParams(nu0=1.5, nu0p=0.7, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)


class TestFold:
    def test_anchors(self):
        w = 5.2
        assert fold(0.0, w) == pytest.approx(0.0, abs=1e-15)
        assert fold(w / 2, w) == pytest.approx(w / 2)
        assert fold(-w / 2, w) == pytest.approx(w / 2)  # tie goes up
        assert fold(w, w) == pytest.approx(0.0, abs=1e-14)
        assert fold(2.7, w) == pytest.approx(-2.5)

    @given(x=st.floats(-50, 50), w=st.floats(0.5, 20), n=st.integers(-5, 5))
    @settings(max_examples=200)
    def test_periodic_and_in_window(self, x, w, n):
        y = float(fold(x, w))
        assert -w / 2 - 1e-9 < y <= w / 2 + 1e-9
        assert math.isclose((y - x) % w, 0.0, abs_tol=1e-7) or math.isclose(
            (y - x) % w, w, abs_tol=1e-7
        )
        assert float(fold(x + n * w, w)) == pytest.approx(y, abs=1e-7)

    def test_vectorized(self):
        out = fold(np.array([0.0, 2.7, -2.6]), 5.2)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(2.6)


class TestKgrid:
    def test_small_grid(self):
        assert np.allclose(kgrid(4), [-np.pi / 2, 0.0, np.pi / 2, np.pi])

    def test_symmetric_with_pi(self):
        ks = kgrid(128)
        assert ks.max() == pytest.approx(np.pi)
        assert ks.min() > -np.pi
        interior = ks[:-1]
        for k in interior[np.abs(interior) > 1e-12]:
            assert np.any(np.abs(ks + k) < 1e-12)


class TestIntegrators:
    def test_matches_adaptive_reference(self):
        """Bloch blocks (C = 1 (x) sx), also with nu0p != 0, and the real chain (C = 1)."""
        blocks = [bloch_blocks(PA, np.asarray(k)) for k in (0.0, 1.1, np.pi)]
        blocks += [bloch_blocks(PN, np.asarray(1.1)), chain_blocks(PA, 8)]
        for h0, h1 in blocks:
            ref = dop853_monodromy(h0, h1, PA.omega)
            assert np.abs(propagate(h0, h1, PA.omega, 2048).u - ref).max() < 1e-8

    def test_matches_exponential_splitting(self):
        h0, h1 = bloch_blocks(PA, np.asarray(1.1))
        ue = expm_monodromy(h0, h1, PA.omega, 4096)
        assert np.abs(propagate(h0, h1, PA.omega, 2048).u - ue).max() < 1e-6

    def test_step_doubling_converged(self):
        h0, h1 = bloch_blocks(PA, np.asarray(0.0))
        u1 = propagate(h0, h1, PA.omega, 1024).u
        u2 = propagate(h0, h1, PA.omega, 2048).u
        assert np.abs(u1 - u2).max() < 1e-6

    def test_batched_equals_loop(self):
        ks = np.array([0.3, -1.7, 2.9])
        h0, h1 = bloch_blocks(PA, ks)
        batched = propagate(h0, h1, PA.omega, 256).u
        for i, k in enumerate(ks):
            single = propagate(*bloch_blocks(PA, np.asarray(k)), PA.omega, 256).u
            assert np.abs(batched[i] - single).max() < 1e-13

    def test_pseudo_unitary(self):
        for k in (0.0, 2.2):
            m = Monodromy(propagate(*bloch_blocks(PA, np.asarray(k)), PA.omega, 2048).u,
                          PA.omega, 2048)
            assert m.sympl_residual < 1e-8

    def test_step_validation(self):
        h0, h1 = bloch_blocks(PA, np.asarray(0.0))
        with pytest.raises(ValueError):
            propagate(h0, h1, PA.omega, 32)

    def test_snapshots(self):
        """U(s h) is recorded at the requested steps on both sides of the midpoint.

        Second-half snapshots come from the time reflection; odd step counts
        take one middle step.  The tolerance is the 256-step one scaled by the
        fourth-order error law.
        """
        h0, h1 = bloch_blocks(PA, np.asarray(0.7))
        for steps in (256, 65):
            marks = (0, steps // 4, steps // 2, steps // 2 + 1, 3 * steps // 4, steps)
            prop = propagate(h0, h1, PA.omega, steps, snapshots=marks)
            assert sorted(prop.snapshots) == list(marks)
            assert np.array_equal(prop.snapshots[0], np.eye(4))
            assert np.array_equal(prop.snapshots[steps], prop.u)
            tol = 1e-6 * (256 / steps) ** 4
            for s in marks[1:]:
                ref = dop853_monodromy(h0, h1, PA.omega, fraction=s / steps)
                assert np.abs(prop.snapshots[s] - ref).max() < tol
        with pytest.raises(ValueError, match="snapshot"):
            propagate(h0, h1, PA.omega, 64, snapshots=(65,))

    def test_requires_conjugation_symmetry(self):
        """A Hermitian batch with neither C = 1 nor C = 1 (x) sx cannot be folded."""
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        h0 = a + np.swapaxes(a.conj(), -1, -2)
        h1 = np.zeros_like(h0)
        with pytest.raises(ValueError, match="C H\\* C = H"):
            propagate(h0, h1, PA.omega, 64)

    def test_coarse_step_flagged(self):
        """Far past the Magnus radius the Pade map stays finite, so the guard must flag."""
        h0, h1 = bloch_blocks(PA, np.array([0.0, 0.0]))
        h1[1] *= 1e3
        prop = propagate(h0, h1, PA.omega, 64)
        assert np.isfinite(prop.u).all()
        assert prop.step_norm[0] < MAX_STEP_NORM < prop.step_norm[1]
        with pytest.raises(IntegrationError, match="too coarse"):
            check_propagation(prop, "test")
        check_propagation(prop._replace(u=prop.u[:1], step_norm=prop.step_norm[:1]), "test")


class TestQuasienergies:
    def test_static_oracle(self):
        """Undriven point: eps = +-(sqrt(24) - omega) after folding."""
        p = ModelParams(nu0=0, nu0p=0, nu1=0, nu1p=0, mu=-5.0, omega=5.2, g=1.0)
        ep, _ = static_energies(0.0, p.mu, p.g)
        assert ep.real == pytest.approx(math.sqrt(24))
        target = math.sqrt(24) - 5.2
        br = solve_bloch_k(p, 0.8, steps=1024)
        eps = np.array([b.eps for b in br])
        cn = np.array([b.cnorm for b in br])
        assert np.abs(eps.imag).max() < 1e-10
        assert np.allclose(np.sort(eps.real), [target, target, -target, -target], atol=1e-8)
        # the folded branch at negative Re came from +sqrt(24): particle-like
        assert cn[eps.real < 0].tolist() == [1, 1]
        assert cn[eps.real > 0].tolist() == [-1, -1]

    def test_static_detuned_gap_oracle(self):
        """Driven-off gapped case: |eps| matches the closed form at each k."""
        p = ModelParams(nu0=1.0, nu0p=0.5, nu1=0, nu1p=0, mu=-4.0, omega=20.0, g=1.0)
        for k in (0.0, 1.3):
            h = math.hypot(-p.nu0 - p.nu0p * math.cos(k), -p.nu0p * math.sin(k))
            ep, em = static_energies(h, p.mu, p.g)
            br = solve_bloch_k(p, k, steps=1024)
            got = sorted(abs(b.eps) for b in br)
            want = sorted([abs(ep)] * 2 + [abs(em)] * 2)
            assert np.allclose(got, want, atol=1e-8)

    def test_boost_branches(self):
        """2x2 symplectic boost: eps purely imaginary, zero symplectic norm."""
        r = 0.3
        u = np.array([[math.cosh(r), math.sinh(r)], [math.sinh(r), math.cosh(r)]])
        eps, cnorm, states, defective = eig_branches(u, 2 * math.pi)
        assert np.allclose(np.sort(eps.imag), [-r, r], atol=1e-12)
        assert np.abs(eps.real).max() < 1e-12
        assert cnorm.tolist() == [0, 0]
        assert not defective.any()
        assert np.allclose(np.abs(np.linalg.norm(states, axis=-1)), 1.0)

    def test_sort_is_deterministic(self):
        ks, eps, cnorm, states = kgrid_solve(PA, 64, steps=512)
        assert eps.shape == (64, 4) and states.shape == (64, 4, 4)
        assert (np.diff(eps.real, axis=-1) >= -1e-15).all()
        ks2, eps2, cnorm2, states2 = kgrid_solve(PA, 64, steps=512)
        assert np.array_equal(eps, eps2) and np.array_equal(states, states2)

    def test_spectrum_k_reflection(self):
        ks, eps, _, _ = kgrid_solve(PA, 64, steps=1024)
        for i, k in enumerate(ks[:-1]):
            (j,) = np.nonzero(np.abs(ks + k) < 1e-12)
            if j.size:
                assert np.allclose(np.sort(eps[i].real), np.sort(eps[j[0]].real), atol=1e-8)

    def test_rejects_bad_monodromy(self):
        with pytest.raises(IntegrationError, match="pseudo-unitarity"):
            quasienergies(Monodromy(2.0 * np.eye(4), 5.2, 64))

    def test_symplectic_norms_idempotent(self):
        br = solve_bloch_k(PA, 0.4, steps=1024)
        again = symplectic_norms(symplectic_norms(br))
        from floqbog.model import nambu_metric

        sz = nambu_metric(4)
        for b0, b1 in zip(br, again):
            assert b0.cnorm == b1.cnorm
            if b1.cnorm:
                q = float(np.real(np.vdot(b1.state, sz * b1.state)))
                assert q == pytest.approx(b1.cnorm, abs=1e-8)


class TestClassification:
    def test_strongly_stable(self):
        br = solve_bloch_k(PA, 0.8, steps=1024)
        assert classify_stability(br, PA.omega) is Verdict.StronglyStable

    def test_marginal_from_fold_tie(self):
        """Opposite-norm branches meeting at the zone edge are marginal."""
        p = ModelParams(nu0=-2.0, nu0p=0, nu1=0, nu1p=0, mu=0.6, omega=5.2, g=0.0)
        br = solve_bloch_k(p, 0.0, steps=1024)
        edge = [b for b in br if abs(abs(b.eps.real) - 2.6) < 1e-8]
        assert sorted(b.cnorm for b in edge) == [-1, 1]
        assert np.abs([b.eps.imag for b in br]).max() < 1e-10
        assert classify_stability(br, p.omega) is Verdict.MarginallyStable

    def test_unstable(self):
        stable, max_im = global_stability(PB, nk=64, steps=1024)
        assert not stable and max_im > 1e-3

    def test_globally_stable_point(self):
        stable, max_im = global_stability(PA, nk=64, steps=1024)
        assert stable and max_im < 1e-6

    def test_classify_arrays_batched(self):
        eps = np.array([[0.3 + 0j, -0.3, 1.0, -1.0], [0.3 + 1e-3j, 0.3 - 1e-3j, 1.0, -1.0]])
        cn = np.array([[1, -1, 1, -1], [0, 0, 1, -1]])
        codes = classify_arrays(eps, cn, 5.2, 1e-8, 1e-6)
        assert codes.tolist() == [0, 2]
        marginal = classify_arrays(
            np.array([0.3 + 0j, 0.3, 1.0, -1.0]), np.array([1, -1, 1, -1]), 5.2, 1e-8, 1e-6
        )
        assert int(marginal) == 1

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            global_stability(PA, nk=16, steps=1024)
