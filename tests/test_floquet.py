import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqbog import dynamics, floquet
from floqbog.dynamics import _chain_propagation, _mirror_halves, evolve_vacuum
from floqbog.floquet import (
    DEFAULT_STEPS,
    MAX_STEP_NORM,
    MIN_STEPS,
    TOL_IM,
    IntegrationError,
    Propagation,
    check_cells,
    classify_arrays,
    eig_branches,
    fold,
    kgrid,
    kgrid_solve,
    mirror_half,
    propagate,
    quasienergies,
    real_form,
    solve_cells,
    sympl_residual,
)
from floqbog.model import (
    CONJUGATION,
    HERMITICITY_TOL,
    I2,
    SX,
    ModelParams,
    bloch_blocks,
    chain_blocks,
    field_matrix,
    nambu_metric,
    static_block,
)
from floqbog.sweep import stability_grid
from floqbog.topology import evaluate_points

from helpers import (
    dop853_monodromy,
    eig_reference,
    expm_monodromy,
    folded_monodromy,
    magnus6_monodromy,
    static_energies,
)

PA = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)
PB = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=6.0, mu=-5.0, omega=5.2)
#: k-dependent static field, so the Bloch blocks are complex
PN = ModelParams(nu0=1.5, nu0p=0.7, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)


def bloch_branches(p: ModelParams, k: float, steps: int):
    """(eps, cnorm, states, defective) of the checked Bloch monodromy at one momentum."""
    prop = propagate(*bloch_blocks(p, np.asarray(k)), p.omega, steps)
    check_cells(floquet._cell_errors(prop, f"k={k}", 0))
    return eig_branches(prop.u, p.omega)


def assert_q_real(u: np.ndarray) -> None:
    """U[..., q[:h]] == conj(U[..., q, :h]) bitwise, q the Nambu swap (Q = S, C = 1)."""
    h = u.shape[-1] // 2
    q = np.roll(np.arange(2 * h), h)
    assert np.array_equal(u[..., q[:h]], u[..., q, :h].conj())


def verdict(eps, cnorm, omega: float) -> int:
    """classify_arrays code (0/1/2 = strong/marginal/unstable) at TOL_IM."""
    return int(classify_arrays(eps, cnorm, omega, TOL_IM))


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

    def test_near_tie_goes_up(self):
        """Within TIE_WINDOW * omega above -omega/2 is a tie; farther is not."""
        w = 5.2
        out = fold(np.array([-2.6 + 1e-15, -2.6 + 4e-12, -2.6 + 1e-11]), w)
        assert out[:2].tolist() == pytest.approx([2.6, 2.6], abs=1e-11)
        assert out[2] == pytest.approx(-2.6 + 1e-11, abs=1e-15)

    def test_zone_edge_pair_matches_direct_integration(self):
        """The pair at Re eps = omega/2 of PN at k = -0.2945 (nk 64), filled
        from +k, reads +omega/2 as a direct integration of k does, not -omega/2."""
        ks, (eps,), _, _, _ = kgrid_solve([PN], 64)
        (i,) = np.nonzero(np.abs(ks + 0.2945) < 1e-4)[0]
        direct = bloch_branches(PN, ks[i], DEFAULT_STEPS)[0]
        assert np.abs(eps[i].real - direct.real).max() < 1e-12
        assert eps[i].real.max() == pytest.approx(PN.omega / 2, abs=1e-12)


class TestMirrorHalf:
    @staticmethod
    def check(values):
        """Every entry is computed or copied from its mirror, to four ulp, and
        the entries left out are exactly the negative ones whose mirror is on
        the axis; returns the number of entries computed."""
        x = np.asarray(values, dtype=float)
        half, take = mirror_half(x)
        tol = 4.0 * np.spacing(np.abs(x).max())
        got = x[half][take]
        own = np.isin(np.arange(x.size), half)
        assert np.array_equal(got[own], x[own])
        assert (np.abs(got[~own] + x[~own]) <= tol).all()
        assert (x[~own] < 0).all() and (got[~own] > 0).all()
        mirrored = (np.abs(x[:, None] + x) <= tol).any(axis=1)
        assert np.array_equal(~own, (x <= -tol) & mirrored)
        return half.size

    @given(n=st.integers(2, 60), offset=st.integers(-60, 0), step=st.floats(1e-3, 10.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_partial_mirrors(self, n, offset, step, seed):
        """Axes of any length and offset, so only part of the negative entries
        have a mirror, in any order."""
        axis = np.linspace(offset * step, (offset + n - 1) * step, n)
        self.check(np.random.default_rng(seed).permutation(axis))

    def test_shipped_axes(self):
        assert self.check(np.linspace(-15.0, 9.0, 41)) == 26
        assert self.check(np.linspace(-12.0, 12.0, 41)) == 21
        for nk in (64, 65, 128, 256):
            assert self.check(kgrid(nk)) == nk // 2 + 1


class TestKgrid:
    def test_small_grid(self):
        assert np.allclose(kgrid(4), [-np.pi / 2, 0.0, np.pi / 2, np.pi])

    def test_symmetric_with_pi(self):
        for nk in (64, 65, 128, 256):
            ks = kgrid(nk)
            assert ks[-1] == np.pi and ks[0] > -np.pi
            assert np.array_equal(ks[:-1], -ks[-2::-1])


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["fig1b", "fig2b", "chain"])
    def test_scale_free(self, monkeypatch, case):
        """U(T) depends on h H alone: scaling H0, H1 and omega by s keeps it to
        1e-14 from s = 1e-300 to 1e300, on the fig1b Bloch blocks at 64 momenta,
        a 7x7 patch of the fig2b plane and the two 20-cell chain sectors."""
        if case == "fig1b":
            h0, h1 = bloch_blocks(PA, kgrid(64))
        elif case == "fig2b":
            x, y = np.meshgrid(np.linspace(-15.0, 9.0, 7), np.linspace(-12.0, 12.0, 7))
            h0, h1 = static_block(-1.5, 0.0, -5.0, 1.0), field_matrix(x.ravel(), y.ravel())
        else:
            seen = []
            monkeypatch.setattr(dynamics, "propagate", lambda *a: seen.append(a) or propagate(*a))
            _chain_propagation(PA, 20, 64)
            (h0, h1, *_), = seen
        ref = propagate(h0, h1, PA.omega, 64).u
        for s in (1e-300, 1e-100, 1e100, 1e300):
            assert np.abs(propagate(s * h0, s * h1, s * PA.omega, 64).u - ref).max() < 1e-14

    def test_pseudo_unitary(self):
        for k in (0.0, 2.2):
            u = propagate(*bloch_blocks(PA, np.asarray(k)), PA.omega, 2048).u
            assert sympl_residual(u) < 1e-8

    def test_step_validation(self):
        """``propagate`` and ``evolve_vacuum``, before its time grid, refuse too
        few steps; zero steps would otherwise divide by zero.  ``propagate``
        checks the steps first, before the snapshots and the blocks."""
        h0, h1 = bloch_blocks(PA, np.asarray(0.0))
        with pytest.raises(ValueError, match=f"at least {MIN_STEPS} integrator steps"):
            propagate(h0, h1, PA.omega, MIN_STEPS - 1)
        with pytest.raises(ValueError, match=f"at least {MIN_STEPS} integrator steps"):
            propagate(h0, np.roll(h1, 1, axis=-1), PA.omega, MIN_STEPS - 1, snapshots=(-1,))
        with pytest.raises(ValueError, match=f"at least {MIN_STEPS} integrator steps"):
            evolve_vacuum(PA, steps_per_period=0)
        propagate(h0, h1, PA.omega, MIN_STEPS)

    @pytest.mark.parametrize("case", ["bloch", "chain"])
    def test_sixth_order_convergence(self, case):
        """The error against DOP853 falls about 64x per step doubling: a Bloch
        block with nu0p != 0 (complex blocks) and the real 8-cell chain."""
        h0, h1 = bloch_blocks(PN, np.asarray(1.1)) if case == "bloch" else chain_blocks(PA, 8)
        ref = dop853_monodromy(h0, h1, PA.omega)
        err64, err128 = (np.abs(propagate(h0, h1, PA.omega, n).u - ref).max() for n in (64, 128))
        assert err64 > 40.0 * err128

    def test_default_steps_fig1b_sample(self):
        """At DEFAULT_STEPS, 16 momenta of the fig1b k-grid stay within 5e-7 of DOP853."""
        ks = kgrid(256)[np.linspace(0, 255, 16).astype(int)]
        h0, h1 = bloch_blocks(PA, ks)
        oracle = np.array([dop853_monodromy(a, b, PA.omega) for a, b in zip(h0, h1)])
        ref, _, _, _ = eig_branches(oracle, PA.omega)
        eps, _, _, _ = eig_branches(propagate(h0, h1, PA.omega, DEFAULT_STEPS).u, PA.omega)
        gap = np.abs(fold(eps.real[:, :, None] - ref.real[:, None, :], PA.omega))
        gap += np.abs(eps.imag[:, :, None] - ref.imag[:, None, :])
        assert gap.min(axis=-1).max() < 5e-7

    @pytest.mark.parametrize("case", ["complex-static-field", "k-batch", "chain", "odd"])
    def test_matches_plain_stepper(self, case):
        """The folded kernel with its hand-expanded Omega equals the scheme
        stepped plainly over the whole period (``magnus6_monodromy``); the
        80x80 site chain's U(T) and snapshots are exactly Q-real."""
        steps, marks = 64, ()
        if case == "complex-static-field":
            hx, hy = np.meshgrid(np.linspace(-9.0, 9.0, 3), np.linspace(-6.0, 6.0, 3))
            h1 = field_matrix(hx, hy).reshape(-1, 4, 4)
            h0 = field_matrix(-1.5, 0.8) + 5.0 * np.eye(4) + np.kron(SX, I2)
        elif case == "k-batch":
            h0, h1 = bloch_blocks(PN, kgrid(16))
        elif case == "chain":
            h0, h1 = chain_blocks(PA, 20)
            marks = (0, 13, 32, 33, 51, 64)
        else:
            steps, marks = 71, (20, 35, 36, 50, 71)
            h0, h1 = bloch_blocks(PN, np.array([0.4, -2.3]))
        prop = propagate(h0, h1, PA.omega, steps, snapshots=marks)
        ref, ref_snaps = magnus6_monodromy(h0, h1, PA.omega, steps, marks)
        assert np.abs(prop.u - ref).max() < 1e-13
        for s in marks:
            assert np.abs(prop.snapshots[s] - ref_snaps[s]).max() < 1e-13
        if case == "chain":
            for u in (prop.u, *prop.snapshots.values()):
                assert_q_real(u)

    def test_snapshots(self):
        """U(s h) is recorded at the requested steps on both sides of the midpoint.

        Second-half snapshots come from the time reflection; odd step counts
        take one middle step.  The tolerance is 1e-6 at 64 steps, scaled by the
        sixth-order error law.
        """
        h0, h1 = bloch_blocks(PA, np.asarray(0.7))
        for steps in (256, 65):
            marks = (0, steps // 4, steps // 2, steps // 2 + 1, 3 * steps // 4, steps)
            prop = propagate(h0, h1, PA.omega, steps, snapshots=marks)
            assert sorted(prop.snapshots) == list(marks)
            assert np.array_equal(prop.snapshots[0], np.eye(4))
            assert np.array_equal(prop.snapshots[steps], prop.u)
            tol = 1e-6 * (64 / steps) ** 6
            for s in marks[1:]:
                ref = dop853_monodromy(h0, h1, PA.omega, fraction=s / steps)
                assert np.abs(prop.snapshots[s] - ref).max() < tol
        with pytest.raises(ValueError, match="snapshot"):
            propagate(h0, h1, PA.omega, 64, snapshots=(65,))

    @pytest.mark.parametrize("case, chunk", [
        ("k-grid", 7), ("k-grid", 1), ("k-grid", 20), ("drive-plane", 7), ("drive-plane", 1),
    ])
    def test_chunks_equal_whole_batch(self, monkeypatch, case, chunk):
        """The eps, cnorm, states and error of every cell are bitwise those of
        one whole-batch chunk, however ``solve_cells`` splits the cells: a
        k-grid of points at two omega with 9 momenta per point (chunks of one
        point when CHUNK is below 9, of two at 20), and a mirrored drive plane
        with a broadcast H0.  One point and one plane column are too coarse."""
        if case == "k-grid":
            points = [PA, replace(PN, omega=6.0), PN, replace(PA, nu1=1e4), replace(PB, omega=6.0)]

            def run():
                return kgrid_solve(points, 16, 64)[1:]
        else:
            def run():
                table = stability_grid((-1.5, 0.0), 5.2, -5.0, 1.0,
                                       np.array([-9.0, -4.0, 0.0, 4.0, 9.0, 1e4]),
                                       np.linspace(-6.0, 6.0, 5), steps=64)
                return table.max_im, table.verdict, table.error

        whole = run()
        monkeypatch.setattr(floquet, "CHUNK", chunk)
        chunked = run()
        for got, want in zip(chunked, whole):
            assert got.shape == want.shape
            assert got.tolist() == want.tolist() if got.dtype == object else (
                got.tobytes() == want.tobytes())
        errors = [e for e in whole[-1] if e is not None]
        assert errors and all("too coarse" in e for e in errors)

    @pytest.mark.parametrize("case", ["k-grid", "drive-plane", "chain"])
    def test_matches_complex_products(self, case):
        """U(T) and every snapshot equal those of the same fold with complex
        products (``folded_monodromy``) to round-off: a two-point k-grid, a
        drive plane with a broadcast H0 at an odd step count, and the chain's
        parity sectors, whose U(T) and snapshots are exactly Q-real."""
        steps = 65 if case == "drive-plane" else 64
        marks = (0, 20, 32, 33, 51, steps)
        if case == "k-grid":
            h0, h1 = (np.stack(b) for b in zip(*(bloch_blocks(p, kgrid(16)) for p in (PA, PN))))
        elif case == "drive-plane":
            x, y = np.meshgrid(np.linspace(-9.0, 9.0, 5), np.linspace(-6.0, 6.0, 4))
            h0, h1 = static_block(1.5, 0.7, -5.0, 1.0), field_matrix(x, y)
        else:
            near, far = _mirror_halves(40)
            h0, h1 = (np.stack([h[np.ix_(near, near)] + sign * h[np.ix_(near, far)]
                                for sign in (1.0, -1.0)]) for h in chain_blocks(PA, 20))
        prop = propagate(h0, h1, PA.omega, steps, snapshots=marks)
        ref, ref_snaps = folded_monodromy(h0, h1, PA.omega, steps, marks)
        assert np.abs(prop.u - ref).max() < 1e-13
        for s in marks:
            assert np.abs(prop.snapshots[s] - ref_snaps[s]).max() < 1e-13
        if case == "chain":
            for u in (prop.u, *prop.snapshots.values()):
                assert_q_real(u)

    @pytest.mark.parametrize("steps", [64, 65])
    @pytest.mark.parametrize("case", ["k-grid", "drive-plane", "chain"])
    def test_no_pairing_keeps_blocks_zero(self, case, steps):
        """At g = 0 particles and holes never mix: the particle-hole blocks of
        U(T) and of every snapshot are exactly 0, and U(0) is exactly 1, also
        for the chain's parity sectors, whose holes come from the particles."""
        marks = (0, 17, steps // 2, steps // 2 + 1, 50, steps)
        p = ModelParams(nu0=1.5, nu0p=0.7, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2, g=0.0)
        if case == "k-grid":
            h0, h1 = bloch_blocks(p, kgrid(16))
        elif case == "drive-plane":
            x, y = np.meshgrid(np.linspace(-9.0, 9.0, 5), np.linspace(-6.0, 6.0, 4))
            h0, h1 = static_block(1.5, 0.7, -5.0, 0.0), field_matrix(x, y)
        else:
            near, far = _mirror_halves(16)
            h0, h1 = (np.stack([h[np.ix_(near, near)] + sign * h[np.ix_(near, far)]
                                for sign in (1.0, -1.0)]) for h in chain_blocks(p, 8))
        prop = propagate(h0, h1, PA.omega, steps, snapshots=marks)
        d = h0.shape[-1]
        m = d // 2
        assert (prop.snapshots[0] == np.eye(d)).all()
        for u in (prop.u, *prop.snapshots.values()):
            assert u[..., :m, :m].any() and u[..., m:, m:].any()
            assert not u[..., :m, m:].any() and not u[..., m:, :m].any()

    def test_requires_conjugation_symmetry(self):
        """A Hermitian batch with neither C = 1 nor C = 1 (x) sx cannot be folded."""
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        h0 = a + np.swapaxes(a.conj(), -1, -2)
        h1 = np.zeros_like(h0)
        with pytest.raises(ValueError, match="C H\\* C = H"):
            propagate(h0, h1, PA.omega, 64)

    def test_requires_nambu_swap_symmetry(self):
        """A batch that keeps C but breaks the Nambu swap S is refused: a 4x4
        batch with one cell's hole block at another mu or the drive acting on
        particles only, and an 8x8 chain whose hole block is shifted.  The
        closed-form Pade step and the particle-column step hold only for
        S H S = H."""
        x, y = np.linspace(-3.0, 3.0, 5), np.full(5, 2.0)
        h0 = np.array([static_block(-1.5, 0.0, -5.0, 1.0)] * 5)
        h1 = field_matrix(x, y)
        propagate(h0, h1, PA.omega, 64)
        hole_mu = h0.copy()
        hole_mu[2, [2, 3], [2, 3]] += 0.3
        particle_drive = h1.copy()
        particle_drive[..., 2:, 2:] = 0.0
        for a, b in ((hole_mu, h1), (h0, particle_drive)):
            assert floquet._invariant(a, b, floquet._conjugation(4), np.conj)
            with pytest.raises(ValueError, match="Nambu swap symmetry S H S = H"):
                propagate(a, b, PA.omega, 64)
        c0, c1 = chain_blocks(PA, 2)
        propagate(c0, c1, PA.omega, 64)
        c0[[4, 5, 6, 7], [4, 5, 6, 7]] += 0.3
        assert floquet._invariant(c0, c1, floquet._conjugation(8), np.conj)
        with pytest.raises(ValueError, match="Nambu swap symmetry S H S = H"):
            propagate(c0, c1, PA.omega, 64)

    def test_coarse_propagator_not_integrated(self):
        """A propagator over the step guard is integrated as zero blocks: its U
        and snapshots are exactly 1, and every other row of the batch is
        bitwise the same row integrated alone."""
        h0, h1 = bloch_blocks(PN, np.linspace(0.0, math.pi, 5))
        h1[2] *= 1e3
        marks = (0, 20, 33, 65)
        prop = propagate(h0, h1, PA.omega, 65, marks)
        assert prop.step_norm[2] > MAX_STEP_NORM > prop.step_norm[[0, 1, 3, 4]].max()
        for u in (prop.u, *prop.snapshots.values()):
            assert (u[2] == np.eye(4)).all()
        for i in (0, 1, 3, 4):
            alone = propagate(h0[i], h1[i], PA.omega, 65, marks)
            assert prop.u[i].tobytes() == alone.u.tobytes()
            for s in marks:
                assert prop.snapshots[s][i].tobytes() == alone.snapshots[s].tobytes()

    def test_coarse_step_flagged(self):
        """Far past the Magnus radius the Pade map stays finite, so the guard must flag."""
        h0, h1 = bloch_blocks(PA, np.array([0.0, 0.0]))
        h1[1] *= 1e3
        prop = propagate(h0, h1, PA.omega, 64)
        assert np.isfinite(prop.u).all()
        assert prop.step_norm[0] < MAX_STEP_NORM < prop.step_norm[1]
        with pytest.raises(IntegrationError, match="too coarse"):
            check_cells(floquet._cell_errors(prop, "test", 0))
        check_cells(floquet._cell_errors(
            prop._replace(u=prop.u[:1], step_norm=prop.step_norm[:1]), "test", 0))


def assert_block_rule(*blocks):
    """C H* C = H with C by block size and type (1 (x) sx for complex 4x4 blocks,
    1 otherwise) and S H S = H, S = sx (x) 1, for every (..., d, d) block, to
    HERMITICITY_TOL."""
    for h in blocks:
        d = h.shape[-1]
        c = CONJUGATION if d == 4 and np.iscomplexobj(h) else np.eye(d)
        s = np.kron(SX, np.eye(d // 2))
        tol = HERMITICITY_TOL * (1.0 + np.abs(h).max())
        assert np.abs(c @ h.conj() @ c - h).max() <= tol
        assert np.abs(s @ h @ s - h).max() <= tol


class TestBlockRule:
    """Every block the model builds has the symmetries ``propagate`` checks,
    with C fixed by the block size and type."""

    def test_bloch_blocks(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            hop = rng.uniform(-20.0, 20.0, 5)
            p = ModelParams(nu0=hop[0], nu0p=hop[1], nu1=hop[2], nu1p=hop[3], mu=hop[4],
                            omega=rng.uniform(0.5, 10.0), g=rng.uniform(0.0, 3.0))
            assert_block_rule(*bloch_blocks(p, rng.uniform(-math.pi, math.pi, 9)))

    def test_drive_plane_cells(self):
        rng = np.random.default_rng(6)
        x, y = rng.uniform(-60.0, 60.0, (2, 30))
        assert_block_rule(static_block(-1.5, 0.0, -5.0, 1.0), static_block(*rng.normal(size=4)),
                          field_matrix(x, y))

    @pytest.mark.parametrize("cells", [2, 9, 20])
    def test_chain_parity_sectors(self, monkeypatch, cells):
        """Both sectors, as ``_chain_propagation`` hands them to ``propagate``:
        real, so C = 1 also for the 4x4 sectors of two cells."""
        seen = []

        def record(h0, h1, *args):
            seen.append((h0, h1))
            return propagate(h0, h1, *args)

        monkeypatch.setattr(dynamics, "propagate", record)
        _chain_propagation(PB, cells, 64)
        (h0, h1), = seen
        assert h0.shape == h1.shape == (2, 2 * cells, 2 * cells)
        assert h0.dtype == h1.dtype == float
        assert_block_rule(h0, h1)


def pade_increment(om: np.ndarray) -> np.ndarray:
    """``floquet._pade_increment`` of a complex (n, 4, 4) Omega, given R(Omega) and Omega^2."""
    r_om = np.stack([om, 1j * om], axis=-2).view(float).reshape(len(om), 8, 8)
    return floquet._pade_increment(om, om @ om, r_om)


def solved_increment(om: np.ndarray) -> np.ndarray:
    """D^-1 (Omega + Omega^3/60) by an LU solve."""
    eye = np.eye(om.shape[-1])
    om2 = om @ om
    om3 = om2 @ om
    return np.linalg.solve(eye - 0.5 * om + 0.1 * om2 - om3 / 120.0, om + om3 / 60.0)


def symmetric_blocks(rng, n: int) -> np.ndarray:
    """n random Hermitian 4x4 blocks with C H* C = H (C = 1 (x) sx) and S H S = H."""
    a = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    h = a + np.swapaxes(a.conj(), -1, -2)
    swap = np.kron(SX, I2)
    h = h + swap @ h @ swap
    return h + CONJUGATION @ h.conj() @ CONJUGATION


class TestPadeIncrement:
    """The closed-form increment of the 4x4 step equals the LU-solved one."""

    def test_random_generators_up_to_step_guard(self):
        """Magnus-like exponents h (A0 + A1/2) + h^2/12 [A0, A1] of random C- and
        S-symmetric blocks, at step norms h (|H0| + |H1|) up to MAX_STEP_NORM."""
        rng = np.random.default_rng(11)
        h0, h1 = symmetric_blocks(rng, 200), symmetric_blocks(rng, 200)
        sz = nambu_metric(4)[:, None]
        a0, a1 = -1j * sz * h0, -1j * sz * h1
        norm = floquet.step_norm(1.0, h0, h1)
        h = (np.geomspace(1e-4, 1.0, 200) * MAX_STEP_NORM / norm)[:, None, None]
        om = h * (a0 + 0.5 * a1) + h * h / 12.0 * (a0 @ a1 - a1 @ a0)
        ref = solved_increment(om)
        err = np.abs(pade_increment(om) - ref).max(axis=(-2, -1))
        assert (err <= 1e-14 * np.abs(ref).max(axis=(-2, -1))).all()

    def test_zero_exponent(self):
        """Omega = 0 gives exactly F = 0."""
        assert not pade_increment(np.zeros((3, 4, 4), dtype=complex)).any()

    @pytest.mark.parametrize("field, mu", [(0.0, -1.0), (1.0, 0.0)])
    def test_nilpotent(self, field, mu):
        """At band energy +-g the static block gives a nilpotent Omega (a = b = 0),
        for which F = Omega."""
        om = -1j * nambu_metric(4)[:, None] * static_block(field, 0.0, mu, 1.0)[None] / 8.0
        assert not (om @ om).any()
        assert np.abs(pade_increment(om) - solved_increment(om)).max() <= 1e-16
        assert (pade_increment(om) == om).all()

    @pytest.mark.parametrize("mu", [-5.0, -0.5])
    def test_double_root(self, mu):
        """With no field both sublattices share eps, so a^2 = 4b: a stable double
        pair +-i E (mu = -5) and an unstable one +-E (mu = -0.5)."""
        om = -1j * nambu_metric(4)[:, None] * static_block(0.0, 0.0, mu, 1.0)[None] / 8.0
        p = (om @ om)[0]
        a, b = -np.trace(p).real / 2.0, (np.trace(p).real ** 2 / 2.0 - np.trace(p @ p).real) / 4.0
        assert a * a == pytest.approx(4.0 * b, rel=1e-14)
        ref = solved_increment(om)
        assert np.abs(pade_increment(om) - ref).max() <= 1e-14 * np.abs(ref).max()


class TestQuasienergies:
    def test_static_oracle(self):
        """Undriven point: eps = +-(sqrt(24) - omega) after folding."""
        p = ModelParams(nu0=0, nu0p=0, nu1=0, nu1p=0, mu=-5.0, omega=5.2, g=1.0)
        ep, _ = static_energies(0.0, p.mu, p.g)
        assert ep.real == pytest.approx(math.sqrt(24))
        target = math.sqrt(24) - 5.2
        eps, cn, _, _ = bloch_branches(p, 0.8, 1024)
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
            eps, _, _, _ = bloch_branches(p, k, 1024)
            got = sorted(np.abs(eps))
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
        ks, (eps,), (cnorm,), (states,), _ = kgrid_solve([PA], 64, steps=512)
        assert eps.shape == (64, 4) and states.shape == (64, 4, 4)
        assert (np.diff(eps.real, axis=-1) >= -1e-15).all()
        ks2, (eps2,), (cnorm2,), (states2,), _ = kgrid_solve([PA], 64, steps=512)
        assert np.array_equal(eps, eps2) and np.array_equal(states, states2)

    @pytest.mark.parametrize("case", ["k-grids", "chain"])
    def test_rows_equal_rows_solved_alone(self, case):
        """Only the rows holding a zero-norm branch are paired and only those
        holding a Re tie are lexsorted, and every row comes out bitwise as it
        does alone: one batch of fig1b momenta (no zero-norm branch), fig1c
        momenta (some paired) and the unstable scan point nu1p = 8.8 at nk 64,
        and the chain's two parity sectors."""
        if case == "chain":
            u = _chain_propagation(PA, 20, DEFAULT_STEPS).u
        else:
            ks = kgrid(64)[mirror_half(kgrid(64))[0]]
            blocks = [bloch_blocks(p, ks) for p in (PA, PB, replace(PA, nu1p=8.8))]
            u = propagate(*map(np.concatenate, zip(*blocks)), PA.omega, DEFAULT_STEPS).u
        batch = eig_branches(u, PA.omega)
        paired = (batch[1] == 0).any(axis=-1)
        if case == "k-grids":
            assert not paired[:33].any() and paired[33:66].any() and not paired[33:66].all()
            assert paired[66:].sum() == 6
        for i in range(len(u)):
            alone = eig_branches(u[i], PA.omega)
            for a, b in zip(batch, alone):
                assert a[i].dtype == b.dtype and a[i].tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", ["fig1c", "chain"])
    def test_pair_order_survives_similarity(self, case):
        """Unstable pairs are exact conjugates ordered by Im, so a matrix similar
        to U by a symmetry, whose eig differs from U's at round-off, gives the
        same branch order: C U C on the fig1c k-batch, P U P (site inversion)
        on the 20-cell chain, whose conjugation C is the identity."""
        if case == "fig1c":
            h0, h1 = bloch_blocks(PB, kgrid(256))
            perm = CONJUGATION.real.argmax(axis=-1)
        else:
            h0, h1 = chain_blocks(PA, 20)
            perm = np.concatenate([np.arange(40)[::-1], np.arange(40, 80)[::-1]])
        u = propagate(h0, h1, PA.omega, 256).u
        eps, cnorm, _, _ = eig_branches(u, PA.omega)
        eps2, cnorm2, _, _ = eig_branches(u[..., perm[:, None], perm], PA.omega)
        zero = cnorm == 0
        assert zero.sum() >= 4
        assert np.array_equal(cnorm, cnorm2)
        assert np.abs(eps - eps2).max() < 1e-14
        for row, mask in zip(np.atleast_2d(eps), np.atleast_2d(zero)):
            pairs = np.sort_complex(row[mask])
            assert np.array_equal(pairs, np.sort_complex(pairs.conj()))

    @pytest.mark.parametrize("params, nk", [(PB, 64), (PN, 64), (PN, 65)])
    def test_half_grid_equals_full_grid(self, params, nk):
        """Momenta k < 0 filled from -k equal an integration of the whole grid,
        row by row: the same branches (eps on the quasienergy circle to 1e-12,
        cnorm) and the same states up to a phase, to 1e-10 since eigenvectors
        are conditioned by the branch separation.  Rows are matched as sets,
        so the comparison does not rest on the branch order."""
        ks, (eps,), (cnorm,), (states,), _ = kgrid_solve([params], nk, 256)
        prop = propagate(*bloch_blocks(params, ks), params.omega, 256)
        eps_f, cnorm_f, states_f, _ = eig_branches(prop.u, params.omega)
        re = np.abs(eps[:, :, None].real - eps_f[:, None, :].real) % params.omega
        gap = np.hypot(np.minimum(re, params.omega - re),
                       eps[:, :, None].imag - eps_f[:, None, :].imag)
        gap[cnorm[:, :, None] != cnorm_f[:, None, :]] = np.inf
        match = gap.argmin(axis=-1)
        assert (np.sort(match, axis=-1) == np.arange(4)).all()
        assert np.take_along_axis(gap, match[..., None], -1).max() < 1e-12
        states_f = np.take_along_axis(states_f, match[..., None], axis=1)
        overlap = np.einsum("kim,kim->ki", states.conj(), states_f)
        phase = overlap / np.abs(overlap)
        assert np.abs(states * phase[..., None] - states_f).max() < 1e-10

    def test_spectrum_k_reflection(self):
        ks, (eps,), _, _, _ = kgrid_solve([PA], 64, steps=1024)
        for i, k in enumerate(ks[:-1]):
            (j,) = np.nonzero(np.abs(ks + k) < 1e-12)
            if j.size:
                assert np.allclose(np.sort(eps[i].real), np.sort(eps[j[0]].real), atol=1e-8)

    def test_rejects_bad_monodromy(self):
        bad = Propagation(2.0 * np.eye(4), {}, np.zeros(()))
        with pytest.raises(IntegrationError, match="pseudo-unitarity"):
            check_cells(floquet._cell_errors(bad, "test", 0))

    def test_states_normalized_to_cnorm(self):
        """Every normalizable branch state has <psi|Sigma_z|psi> = cnorm."""
        _, cnorm, states, _ = bloch_branches(PA, 0.4, 1024)
        sz = nambu_metric(4)
        assert (cnorm != 0).all()
        for c, state in zip(cnorm, states):
            q = float(np.real(np.vdot(state, sz * state)))
            assert q == pytest.approx(c, abs=1e-8)


def monodromies(case: str) -> np.ndarray:
    """U(T) at the recipe steps (64) of the fig1b and fig1c k-grids (nk 256),
    of 64 random cells of the fig2b drive plane and of the fig3a chain's
    (2, 40, 40) parity sectors."""
    if case in ("fig1b", "fig1c"):
        return propagate(*bloch_blocks(PA if case == "fig1b" else PB, kgrid(256)), 5.2, 64).u
    if case == "fig2b":
        rng = np.random.default_rng(2)
        x, y = (rng.choice(np.linspace(lo, hi, 201), 64) for lo, hi in ((-15.0, 9.0), (-12.0, 12.0)))
        return propagate(static_block(-1.5, 0.0, -5.0, 1.0), field_matrix(x, y), 5.2, 64).u
    return _chain_propagation(PA, 20, 64).u


def circle_distance(a, b, omega: float):
    """|a - b| with Re taken on the quasienergy circle of period omega."""
    re = np.abs(a.real - b.real) % omega
    return np.hypot(np.minimum(re, omega - re), a.imag - b.imag)


class TestRealForm:
    def test_rejects_matrix_without_real_form(self):
        """A random complex U has Im(V+ U V) of order |U| for every Q: refused."""
        rng = np.random.default_rng(5)
        for d in (4, 40):
            u = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
            with pytest.raises(np.linalg.LinAlgError, match="no real form"):
                real_form(u)
            with pytest.raises(np.linalg.LinAlgError, match="no real form"):
                eig_branches(u, 5.2)

    def test_cell_without_real_form_fails_alone(self, monkeypatch):
        """One cell of a grid of two-cell chains gets a random pseudo-unitary U,
        diag(V1, V2) with independent random unitaries, which passes the
        integration checks but has no real form: only that cell fails, as an
        eigensolver failure."""
        h0, h1 = chain_blocks(PA, 2)
        h1 = h1 * np.linspace(0.2, 1.0, 5)[:, None, None]
        rng = np.random.default_rng(11)
        blocks = [np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
                  for _ in range(2)]
        unitary = np.kron(np.diag([1.0, 0.0]), blocks[0]) + np.kron(np.diag([0.0, 1.0]), blocks[1])

        def tampered(*args, **kwargs):
            prop = propagate(*args, **kwargs)
            u = prop.u.copy()
            u[2] = unitary
            return prop._replace(u=u)

        monkeypatch.setattr(floquet, "propagate", tampered)
        eps = np.full((5, 8), np.nan, dtype=complex)

        def solve(at, u):
            eps[at] = quasienergies(u, 5.2)

        error = solve_cells(lambda c: (h0, h1[c]), (5,), 5.2, 64, "chains", solve)
        assert [i for i, e in enumerate(error) if e is not None] == [2]
        assert error[2].startswith("eigensolver failed: no real form")
        assert np.isfinite(np.delete(eps, 2, axis=0)).all() and np.isnan(eps[2]).all()

    @pytest.mark.parametrize("case", ["dop853", "site-chain"])
    def test_accepts_oracle_and_site_basis(self, case):
        """The DOP853 monodromy of fig1b momenta and the 80x80 site-basis chain
        U have a real form: V is unitary and V+ U V equals it to round-off."""
        if case == "dop853":
            h0, h1 = bloch_blocks(PA, kgrid(256)[[0, 70, 128, 200, 255]])
            u = np.array([dop853_monodromy(a, b, PA.omega) for a, b in zip(h0, h1)])
        else:
            u = propagate(*chain_blocks(PA, 20), PA.omega, 64).u
        form, v = real_form(u)
        assert form.dtype == float and form.shape == u.shape
        assert np.abs(v.conj().T @ v - np.eye(u.shape[-1])).max() < 1e-15
        assert np.abs(v.conj().T @ u @ v - form).max() < 1e-12 * np.abs(u).max()

    @pytest.mark.parametrize("case", ["fig1b", "fig1c", "fig2b", "chain"])
    def test_eig_branches_match_complex_lapack(self, case):
        """The real eigensolve gives the branches of complex LAPACK on U itself
        (``eig_reference``): the same cnorm and order, eps within 1e-13 on the
        quasienergy circle, and states equal up to a phase, each to 1e-13 of its
        length over its eigenvalue's distance to the nearest other one."""
        u = monodromies(case)
        eps, cnorm, states, _ = eig_branches(u, 5.2)
        ref, ref_cnorm, ref_states = eig_reference(u, 5.2)
        assert np.array_equal(cnorm, ref_cnorm)
        assert circle_distance(eps, ref, 5.2).max() < 1e-13
        overlap = np.einsum("...im,...im->...i", ref_states.conj(), states)
        lam = np.exp(-2j * math.pi * ref / 5.2)
        separation = np.abs(lam[..., :, None] - lam[..., None, :])
        separation[..., np.arange(lam.shape[-1]), np.arange(lam.shape[-1])] = np.inf
        bound = 1e-13 * np.linalg.norm(ref_states, axis=-1) / separation.min(axis=-1)
        diff = np.abs(ref_states * (overlap / np.abs(overlap))[..., None] - states).max(axis=-1)
        assert (diff < bound).all()

    @pytest.mark.parametrize("case", ["fig1b", "fig1c", "fig2b", "chain"])
    def test_quasienergies_match_eigvals(self, case):
        """``quasienergies`` equals the eps of np.linalg.eigvals(U) as a set, to 1e-13."""
        u = monodromies(case)
        eps = quasienergies(u, 5.2)
        lam = np.linalg.eigvals(u)
        ref = -5.2 / (2.0 * math.pi) * (np.angle(lam) - 1j * np.log(np.abs(lam)))
        gap = circle_distance(eps[..., :, None], ref[..., None, :], 5.2)
        match = gap.argmin(axis=-1)
        assert (np.sort(match, axis=-1) == np.arange(u.shape[-1])).all()
        assert gap.min(axis=-1).max() < 1e-13


class TestClassification:
    def test_strongly_stable(self):
        eps, cnorm, _, _ = bloch_branches(PA, 0.8, 1024)
        assert verdict(eps, cnorm, PA.omega) == 0

    def test_marginal_from_fold_tie(self):
        """Opposite-norm branches meeting at the zone edge are marginal."""
        p = ModelParams(nu0=-2.0, nu0p=0, nu1=0, nu1p=0, mu=0.6, omega=5.2, g=0.0)
        eps, cnorm, _, _ = bloch_branches(p, 0.0, 1024)
        edge = np.abs(np.abs(eps.real) - 2.6) < 1e-8
        assert sorted(cnorm[edge]) == [-1, 1]
        assert np.abs(eps.imag).max() < 1e-10
        assert verdict(eps, cnorm, p.omega) == 1

    def test_unstable(self):
        (stable,), (max_im,) = evaluate_points([PB], nk=64, steps=1024)[:2]
        assert not stable and max_im > 1e-3

    def test_globally_stable_point(self):
        (stable,), (max_im,) = evaluate_points([PA], nk=64, steps=1024)[:2]
        assert stable and max_im < 1e-6

    def test_classify_arrays_batched(self):
        eps = np.array([[0.3 + 0j, -0.3, 1.0, -1.0], [0.3 + 1e-3j, 0.3 - 1e-3j, 1.0, -1.0]])
        cn = np.array([[1, -1, 1, -1], [0, 0, 1, -1]])
        codes = classify_arrays(eps, cn, 5.2, 1e-8)
        assert codes.tolist() == [0, 2]
        marginal = classify_arrays(
            np.array([0.3 + 0j, 0.3, 1.0, -1.0]), np.array([1, -1, 1, -1]), 5.2, 1e-8
        )
        assert int(marginal) == 1
