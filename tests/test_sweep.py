import math
import warnings

import numpy as np
import pytest

from floqbog.model import ModelParams
from floqbog.sweep import (
    GridSpec,
    PhaseCell,
    StabilityCell,
    curve_gamma,
    effective_phase_overlay,
    phase_diagram,
    stability_grid,
)
from floqbog.topology import evaluate_point

PA = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)

FIXED = dict(nu0=1.5, nu0p=0.0, nu1=3.0, omega=5.2, g=1.0)
ROW = GridSpec("nu1p", (0.0, 11.0), 12, "mu", (-5.0, -4.95), 2, FIXED)


@pytest.fixture(scope="module")
def cells13():
    grid = GridSpec("hx1", (-15.0, 9.0), 13, "hy1", (-12.0, 12.0), 13)
    return stability_grid((-1.5, 0.0), 5.2, -5.0, 1.0, grid, steps=1024)


@pytest.fixture(scope="module")
def phase_row():
    return phase_diagram(ROW, nk=64, steps=512)


class TestGridSpec:
    def test_values_and_iteration_order(self):
        g = GridSpec("hx1", (0.0, 1.0), 3, "hy1", (10.0, 11.0), 2)
        assert np.allclose(g.values1, [0.0, 0.5, 1.0])
        assert list(g.cells())[:4] == [(0.0, 10.0), (0.5, 10.0), (1.0, 10.0), (0.0, 11.0)]

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n1=1),
            dict(range1=(1.0, 0.0)),
            dict(range2=(2.0, 2.0)),
            dict(axis2="hx1"),
        ],
    )
    def test_validation(self, kw):
        base = dict(axis1="hx1", range1=(0.0, 1.0), n1=3, axis2="hy1",
                    range2=(0.0, 1.0), n2=3)
        with pytest.raises(ValueError):
            GridSpec(**{**base, **kw})


class TestCurveGamma:
    def test_fig_circle(self):
        curve = curve_gamma(PA, nk=256)
        assert curve.shape == (256, 2)
        radii = np.hypot(curve[:, 0] + 3.0, curve[:, 1])
        assert np.abs(radii - 11.0).max() < 1e-12
        k0 = curve[127]  # k = 0 on the 256-point grid
        assert np.allclose(k0, [-14.0, 0.0], atol=1e-12)

    def test_contractible_without_intercell_drive(self):
        p = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=0.0, mu=-5.0, omega=5.2)
        curve = curve_gamma(p, nk=64)
        assert np.allclose(curve, [[-3.0, 0.0]] * 64)


class TestStabilityGrid:
    def test_axis_names_enforced(self):
        grid = GridSpec("nu1", (0.0, 1.0), 3, "hy1", (0.0, 1.0), 3)
        with pytest.raises(ValueError, match="hx1"):
            stability_grid((0.0, 0.0), 5.2, 0.0, 1.0, grid)

    def test_mixed_verdicts_no_errors(self, cells13):
        assert len(cells13) == 169
        n_unstable = sum(c.verdict == "Unstable" for c in cells13)
        assert 0 < n_unstable < 169
        assert all(c.error is None for c in cells13)
        assert all(c.verdict in ("Stable", "Unstable") for c in cells13)

    def test_undriven_cell_stable(self, cells13):
        (cell,) = [c for c in cells13 if c.x == -3.0 and c.y == 0.0]
        assert cell.verdict == "Stable"
        assert cell.max_im < 1e-8

    def test_reflection_symmetry(self, cells13):
        """hy1 -> -hy1 is a symmetry of the standalone cell problem."""
        verdicts = {(c.x, c.y): c.verdict for c in cells13}
        assert all(verdicts[(x, y)] == verdicts[(x, -y)] for x, y in verdicts)

    def test_refinement_consistency(self):
        grid3 = GridSpec("hx1", (-8.0, 0.0), 3, "hy1", (-4.0, 4.0), 3)
        grid5 = GridSpec("hx1", (-8.0, 0.0), 5, "hy1", (-4.0, 4.0), 5)
        coarse = stability_grid((-1.5, 0.0), 5.2, -5.0, 1.0, grid3, steps=1024)
        fine = stability_grid((-1.5, 0.0), 5.2, -5.0, 1.0, grid5, steps=1024)
        fine_map = {(c.x, c.y): c.verdict for c in fine}
        for c in coarse:
            assert fine_map[(c.x, c.y)] == c.verdict

    def test_coarse_cells_masked(self):
        """Cells past the step-size guard carry an error; the rest still classify."""
        grid = GridSpec("hx1", (-1e4, 0.0), 5, "hy1", (-1.0, 1.0), 3)
        cells = stability_grid((-1.5, 0.0), 5.2, -5.0, 1.0, grid, steps=64)
        for c in cells:
            if c.x == 0.0:
                assert c.error is None and c.verdict == "Stable" and c.max_im < 1e-8
            else:
                assert c.verdict == "Unstable" and math.isnan(c.max_im)
                assert "too coarse" in c.error

    def test_eigensolver_failure_isolated_to_its_cell(self, monkeypatch):
        """A failed batched eig is retried per cell; only the bad cell errors."""
        import floqbog.sweep as sweep

        grid = GridSpec("hx1", (-8.0, 0.0), 3, "hy1", (-4.0, 4.0), 3)
        want = stability_grid((-1.5, 0.0), 5.2, -5.0, 1.0, grid, steps=256)
        real = sweep.eig_branches
        single_calls = []

        def flaky(u, omega):
            if np.ndim(u) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            single_calls.append(u)
            if len(single_calls) == 5:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(u, omega)

        monkeypatch.setattr(sweep, "eig_branches", flaky)
        got = stability_grid((-1.5, 0.0), 5.2, -5.0, 1.0, grid, steps=256)
        assert len(single_calls) == 9
        bad = got[4]
        assert (bad.x, bad.y) == (-4.0, 0.0)
        assert bad.verdict == "Unstable" and math.isnan(bad.max_im)
        assert bad.error == "eigensolver failed: Eigenvalues did not converge"
        for g, w in zip(got[:4] + got[5:], want[:4] + want[5:]):
            assert g == w and g.error is None

    def test_gamma_points_match_global_verdict(self):
        """Cells on the drive curve agree with the full-chain stability scan."""
        stable_a, _ = evaluate_point(PA, nk=64, steps=1024)[:2]
        assert stable_a
        curve = curve_gamma(PA, nk=8)
        for hx1, hy1 in curve:
            lo = GridSpec("hx1", (hx1, hx1 + 1.0), 2, "hy1", (hy1, hy1 + 1.0), 2)
            cell = stability_grid((-1.5, 0.0), 5.2, -5.0, 1.0, lo, steps=1024)[0]
            assert (cell.x, cell.y) == (hx1, hy1)
            assert cell.verdict == "Stable"


class TestPhaseDiagram:
    def test_transition_row(self, phase_row):
        at_mu = [c for c in phase_row if c.y == -5.0]
        assert [c.verdict for c in at_mu] == ["Stable"] * 5 + ["Unstable"] * 5 + ["Stable"] * 2
        assert [c.ws for c in at_mu] == [0] * 5 + [None] * 5 + [2] * 2
        assert all(c.max_im > 0.1 for c in at_mu if c.verdict == "Unstable")
        assert all(c.error is None for c in at_mu)

    def test_invariant_change_forces_instability(self, phase_row):
        at_mu = [c for c in phase_row if c.y == -5.0]
        ws = [c.ws for c in at_mu]
        assert 0 in ws and 2 in ws
        lo = next(i for i, c in enumerate(at_mu) if c.ws == 0)
        hi = max(i for i, c in enumerate(at_mu) if c.ws == 2)
        assert any(c.verdict == "Unstable" for c in at_mu[lo:hi])

    def test_cells_equal_evaluate_point(self, phase_row):
        assert [(c.x, c.y) for c in phase_row] == list(ROW.cells())
        for cell in phase_row:
            p = ModelParams(**FIXED, nu1p=cell.x, mu=cell.y)
            stable, max_im, ws, err = evaluate_point(p, nk=64, steps=512)
            verdict = "Stable" if stable else "Unstable"
            assert cell == PhaseCell(cell.x, cell.y, verdict, max_im, ws, err)

    def test_bad_grid_axes(self):
        with pytest.raises(ValueError, match="model parameters"):
            phase_diagram(GridSpec("hx1", (0, 1), 2, "mu", (0, 1), 2, FIXED))
        with pytest.raises(ValueError, match="missing"):
            phase_diagram(GridSpec("nu1p", (0, 1), 2, "mu", (0, 1), 2, {}))
        both = {**FIXED, "nu1p": 3.0}
        with pytest.raises(ValueError, match="axes and fixed"):
            phase_diagram(GridSpec("nu1p", (0, 1), 2, "mu", (0, 1), 2, both))
        junk = {**FIXED, "zeta": 1.0}
        with pytest.raises(ValueError, match="unknown"):
            phase_diagram(GridSpec("nu1p", (0, 1), 2, "mu", (0, 1), 2, junk))


class TestEffectiveOverlay:
    def test_flags_instability_window_near_exact_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ov = effective_phase_overlay(ROW, nk=64, alpha=0, beta=-2)
        at_mu = [c for c in ov if c.y == -5.0]
        exact_unstable = {5.0, 6.0, 7.0, 8.0, 9.0}
        eff_unstable = {c.x for c in at_mu if c.verdict == "Unstable"}
        assert eff_unstable
        assert eff_unstable & exact_unstable
        # rotating-frame estimate may displace each boundary by a cell or so
        assert abs(min(eff_unstable) - min(exact_unstable)) <= 1.5
        assert abs(max(eff_unstable) - max(exact_unstable)) <= 1.5

    def test_returns_stability_cells(self):
        # g below the band-pairing detuning everywhere, so genuinely gapped
        small = GridSpec("nu1p", (0.0, 1.0), 2, "mu", (-0.1, 0.1), 2,
                         dict(nu0=0.5, nu0p=0.2, nu1=0.5, omega=12.0, g=0.05))
        ov = effective_phase_overlay(small, nk=32)
        assert len(ov) == 4
        assert all(isinstance(c, StabilityCell) for c in ov)
        assert all(c.verdict == "Stable" for c in ov)
