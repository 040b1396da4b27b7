import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from floqbog import floquet, sweep
from floqbog.cli import _axis
from floqbog.effective import choose_indices, effective_spectrum
from floqbog.floquet import (
    TOL_IM,
    classify_arrays,
    eig_branches,
    kgrid,
    kgrid_solve,
    mirror_half,
    propagate,
)
from floqbog.model import I2, SX, ModelParams, drive_amplitudes, field_matrix
from floqbog.sweep import effective_phase_overlay, phase_diagram, stability_grid
from floqbog.topology import evaluate_points, scan_path

from helpers import dop853_monodromy

PA = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)

BASE = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=0.0, mu=-5.0, omega=5.2, g=1.0)
ROW = (("nu1p", np.linspace(0.0, 11.0, 12)), ("mu", np.linspace(-5.0, -4.95, 2)))
HEADER = ("hx1", "hy1", "verdict", "max_im", "error")


def plane(hx1, hy1, steps):
    """stability_grid at the benchmark static field, mu and omega."""
    return stability_grid((-1.5, 0.0), 5.2, -5.0, 1.0, hx1, hy1, steps=steps)


def direct(static_field, hx1, hy1, steps):
    """Verdicts and max_im of ``plane`` cells, integrating every cell with
    one batch per hy1 row."""
    static = field_matrix(*static_field) + 5.0 * np.eye(4) + np.kron(SX, I2)
    verdict, max_im = [], []
    for y in hy1:
        prop = propagate(static, field_matrix(hx1, np.full(len(hx1), y)), 5.2, steps)
        eps, cnorm, _, _ = eig_branches(prop.u, 5.2)
        codes = classify_arrays(eps, cnorm, 5.2, TOL_IM)
        verdict += np.where(codes == 2, "Unstable", "Stable").tolist()
        max_im += eps.imag.max(axis=-1).tolist()
    return np.array(verdict), np.array(max_im)


def fifth_cell_fails(monkeypatch, module, name, batch_ndim, chunk=None, retry=5):
    """Make calls of the eigen function ``module.name`` on a batch of cells
    (``batch_ndim`` dimensions) fail, every one or only call number ``chunk``
    (from 1), and its ``retry``-th retry of a single cell too; returns the
    list of cell retries."""
    real = getattr(module, name)
    batch_calls, single_calls = [], []

    def flaky(u, omega):
        if np.ndim(u) == batch_ndim:
            batch_calls.append(u)
            if chunk in (None, len(batch_calls)):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(u, omega)
        single_calls.append(u)
        if len(single_calls) == retry:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(u, omega)

    monkeypatch.setattr(module, name, flaky)
    return single_calls


def eig_oracle(monkeypatch, static_field, hx1, hy1, steps):
    """The plane, and the verdict and max_im of each of its cells from
    ``eig_branches`` and ``classify_arrays`` of the propagator the plane
    integrated for it (its own, or its mirror's when hy0 = 0), from the flat
    batch of integrated cells, hx1 fastest."""
    props = []

    def spy(*args):
        props.append(propagate(*args))
        return props[-1]

    monkeypatch.setattr(floquet, "propagate", spy)
    table = stability_grid(static_field, 5.2, -5.0, 1.0, hx1, hy1, steps=steps)
    (prop,) = props
    eps, cnorm, _, _ = eig_branches(prop.u, 5.2)
    codes = classify_arrays(eps, cnorm, 5.2, TOL_IM)
    if static_field[1] == 0.0:
        (rows, fill_rows), (cols, fill_cols) = mirror_half(hy1), mirror_half(hx1)
        eps, codes = eps.reshape(len(rows), len(cols), 4), codes.reshape(len(rows), len(cols))
        fill = np.ix_(fill_rows, fill_cols)
        codes, eps = codes[fill], eps[fill]
    verdict = np.where(codes == 2, "Unstable", "Stable")
    return table, verdict.ravel(), eps.imag.max(axis=-1).ravel()


@pytest.fixture(scope="module")
def cells13():
    return plane(np.linspace(-15.0, 9.0, 13), np.linspace(-12.0, 12.0, 13), 1024)


@pytest.fixture(scope="module")
def phase_row():
    return phase_diagram(BASE, *ROW, nk=64, steps=512)


class TestGridSpec:
    """A grid is two distinct model axes, each of >= 2 points on min < max."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n1=1),
            dict(range1=(1.0, 0.0)),
            dict(range2=(2.0, 2.0)),
            dict(axis2="nu1p"),
        ],
    )
    def test_validation(self, kw):
        spec = {**dict(axis1="nu1p", range1=(0.0, 1.0), n1=3, axis2="mu",
                       range2=(0.0, 1.0), n2=3), **kw}

        def axis(i):
            (lo, hi), n = spec[f"range{i}"], spec[f"n{i}"]
            values = _axis({"a": {"min": lo, "max": hi, "points": n}}, "a")
            return spec[f"axis{i}"], values

        with pytest.raises(ValueError):
            phase_diagram(BASE, axis(1), axis(2), nk=8, steps=64)


class TestCurveGamma:
    """The drive curve gamma(k) that the chain's momenta trace in the plane."""

    def test_fig_circle(self):
        curve = np.column_stack(drive_amplitudes(PA, kgrid(256)))
        assert curve.shape == (256, 2)
        radii = np.hypot(curve[:, 0] + 3.0, curve[:, 1])
        assert np.abs(radii - 11.0).max() < 1e-12
        k0 = curve[127]  # k = 0 on the 256-point grid
        assert np.allclose(k0, [-14.0, 0.0], atol=1e-12)

    def test_contractible_without_intercell_drive(self):
        p = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=0.0, mu=-5.0, omega=5.2)
        curve = np.column_stack(drive_amplitudes(p, kgrid(64)))
        assert np.allclose(curve, [[-3.0, 0.0]] * 64)


class TestStabilityGrid:
    def test_table_rows_x_fastest(self):
        table = plane(np.array([0.0, 0.5, 1.0]), np.array([10.0, 11.0]), 256)
        assert table.dtype.names == HEADER
        assert len(table) == 6
        assert table.hx1.tolist() == [0.0, 0.5, 1.0] * 2
        assert table.hy1.tolist() == [10.0] * 3 + [11.0] * 3

    def test_mixed_verdicts_no_errors(self, cells13):
        assert len(cells13) == 169
        n_unstable = (cells13.verdict == "Unstable").sum()
        assert 0 < n_unstable < 169
        assert all(e is None for e in cells13.error)
        assert set(cells13.verdict) <= {"Stable", "Unstable"}

    def test_undriven_cell_stable(self, cells13):
        (cell,) = cells13[(cells13.hx1 == -3.0) & (cells13.hy1 == 0.0)]
        assert cell.verdict == "Stable"
        assert cell.max_im < 1e-8

    def test_reflection_symmetry(self, cells13):
        """hy1 -> -hy1 is a symmetry of the standalone cell problem."""
        verdicts = {(c.hx1, c.hy1): c.verdict for c in cells13}
        assert all(verdicts[(x, y)] == verdicts[(x, -y)] for x, y in verdicts)

    def test_mirrored_rows_equal_direct_integration(self, cells13):
        """The rows filled from their mirror equal an integration of those rows."""
        hx1, hy1 = np.linspace(-15.0, 9.0, 13), np.linspace(-12.0, 12.0, 13)
        verdict, max_im = direct((-1.5, 0.0), hx1, hy1[:6], 1024)
        mirrored = cells13[:78]
        assert (mirrored.hy1 < 0).all()
        assert mirrored.verdict.tolist() == verdict.tolist()
        assert np.abs(mirrored.max_im - max_im).max() < 1e-12

    @pytest.mark.parametrize("steps", [64, 65])
    def test_mirrored_columns_equal_direct_integration(self, steps):
        """The hx1 < 0 columns filled from their mirror (hx1 = -9 .. -1) equal
        an integration of those cells, at an even and an odd step count."""
        hx1, hy1 = np.linspace(-15.0, 9.0, 13), np.linspace(-12.0, 12.0, 13)
        table = plane(hx1, hy1, steps)
        verdict, max_im = direct((-1.5, 0.0), hx1, hy1, steps)
        filled = (table.hx1 < -0.5) & (table.hx1 > -9.5)
        assert filled.sum() == 5 * 13
        assert table.verdict[filled].tolist() == verdict[filled].tolist()
        assert np.abs(table.max_im[filled] - max_im[filled]).max() < 1e-12

    def test_mirrored_cells_match_adaptive_reference(self, cells13):
        """Cells filled from a mirror (hx1 < 0 and hy1 < 0), one stable and two
        unstable, against an adaptive DOP853 integration of the cell itself."""
        static = field_matrix(-1.5, 0.0) + 5.0 * np.eye(4) + np.kron(SX, I2)
        for hx1, hy1 in [(-9.0, -6.0), (-3.0, -6.0), (-1.0, -8.0)]:
            (cell,) = cells13[(cells13.hx1 == hx1) & (cells13.hy1 == hy1)]
            ref = dop853_monodromy(static, field_matrix(hx1, hy1), 5.2)
            eps, cnorm, _, _ = eig_branches(ref, 5.2)
            want = "Unstable" if classify_arrays(eps, cnorm, 5.2, TOL_IM) == 2 else "Stable"
            assert cell.verdict == want
            assert abs(cell.max_im - eps.imag.max()) < 1e-9

    @pytest.mark.parametrize(
        "static_field, hy1, shape, symmetric_rows",
        [
            ((-1.5, 0.0), np.linspace(-12.0, 12.0, 13), (7, 6), slice(0, 13)),
            ((-1.5, 0.8), np.linspace(-12.0, 12.0, 13), (13, 9), None),
            ((-1.5, 0.0), np.linspace(-12.0, 10.0, 12), (7, 6), slice(1, 12)),
        ],
        ids=["mirrored", "static-hy0", "asymmetric-axis"],
    )
    def test_integrated_rows_and_fall_back(
        self, monkeypatch, static_field, hy1, shape, symmetric_rows
    ):
        """When hy0 = 0, only hy1 >= 0 and hx1 >= 0 are integrated, plus the
        negative entries with no mirror on their axis (hx1 = -15, -12 and
        hy1 = -12 on the asymmetric axis); with hy0 != 0 the whole plane is.
        Every cell equals a direct integration."""
        hx1 = np.linspace(-15.0, 9.0, 9)
        batches = []

        def spy(h0, h1, *args):
            batches.append(np.shape(h1)[:-2])
            return propagate(h0, h1, *args)

        monkeypatch.setattr(floquet, "propagate", spy)
        table = stability_grid(static_field, 5.2, -5.0, 1.0, hx1, hy1, steps=256)
        assert batches == [(math.prod(shape),)]  # one flat chunk of cells
        verdict, max_im = direct(static_field, hx1, hy1, 256)
        assert table.verdict.tolist() == verdict.tolist()
        assert np.abs(table.max_im - max_im).max() < 1e-12
        grid = table.max_im.reshape(len(hy1), 9)
        if symmetric_rows is None:
            assert not np.array_equal(grid[:6], grid[::-1][:6])
        else:
            quadrants = grid[symmetric_rows, 2:]  # hx1 in [-9, 9], hy1 mirrored
            assert np.array_equal(quadrants, quadrants[::-1])
            assert np.array_equal(quadrants, quadrants[:, ::-1])

    @pytest.mark.parametrize("static_field", [(-1.5, 0.0), (-1.5, 0.8)],
                             ids=["mirrored", "static-hy0"])
    def test_eigenvalues_match_branch_oracle(self, monkeypatch, static_field):
        """Every cell's verdict equals the full eigendecomposition's, and its
        unpaired max_im is within 1e-13 of the paired one."""
        hx1, hy1 = np.linspace(-15.0, 9.0, 13), np.linspace(-12.0, 12.0, 13)
        table, verdict, max_im = eig_oracle(monkeypatch, static_field, hx1, hy1, 1024)
        assert all(e is None for e in table.error)
        assert table.verdict.tolist() == verdict.tolist()
        assert 0 < (verdict == "Unstable").sum() < len(verdict)
        assert np.abs(table.max_im - max_im).max() <= 1e-13

    def test_no_eigenvectors(self, monkeypatch):
        """The plane asks the eigensolver for eigenvalues only."""
        calls = {"eig": 0, "eigvals": 0}
        for name in calls:
            def counted(*args, _real=getattr(np.linalg, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(np.linalg, name, counted)
        plane(np.linspace(-8.0, 0.0, 3), np.linspace(-4.0, 4.0, 3), 256)
        assert calls == {"eig": 0, "eigvals": 1}

    def test_refinement_consistency(self):
        coarse = plane(np.linspace(-8.0, 0.0, 3), np.linspace(-4.0, 4.0, 3), 1024)
        fine = plane(np.linspace(-8.0, 0.0, 5), np.linspace(-4.0, 4.0, 5), 1024)
        fine_map = {(c.hx1, c.hy1): c.verdict for c in fine}
        for c in coarse:
            assert fine_map[(c.hx1, c.hy1)] == c.verdict

    def test_coarse_cells_masked(self):
        """Cells past the step-size guard carry an error; the rest still classify."""
        cells = plane(np.linspace(-1e4, 0.0, 5), np.linspace(-1.0, 1.0, 3), 64)
        for c in cells:
            if c.hx1 == 0.0:
                assert c.error is None and c.verdict == "Stable" and c.max_im < 1e-8
            else:
                assert c.verdict == "Failed" and math.isnan(c.max_im)
                assert "too coarse" in c.error

    @staticmethod
    def _fifth_cell_fails(monkeypatch, axes):
        """The plane with its batched eig failing and the fifth per-cell retry
        failing too; returns (plane without failures, plane, retry count)."""
        want = plane(*axes, 256)
        single_calls = fifth_cell_fails(monkeypatch, sweep, "quasienergies", 3)
        return want, plane(*axes, 256), len(single_calls)

    @staticmethod
    def _only_bad(want, got, bad):
        for i in bad:
            assert got[i].verdict == "Failed" and math.isnan(got[i].max_im)
            assert got[i].error == "eigensolver failed: Eigenvalues did not converge"
        rest = ~np.isin(np.arange(len(got)), bad)
        assert got[rest].tolist() == want[rest].tolist()
        assert all(e is None for e in got.error[rest])

    def test_eigensolver_failure_isolated_to_its_cell(self, monkeypatch):
        """A failed batched eig is retried per cell; only the bad cell errors.

        The hy1 axis has no mirror, so all 9 cells are solved."""
        axes = np.linspace(-8.0, 0.0, 3), np.linspace(-4.0, 6.0, 3)
        want, got, retries = self._fifth_cell_fails(monkeypatch, axes)
        assert retries == 9
        assert (got[4].hx1, got[4].hy1) == (-4.0, 1.0)
        self._only_bad(want, got, [4])

    def test_eigensolver_failure_shared_with_its_mirror(self, monkeypatch):
        """On a symmetric plane only the 6 cells with hy1 >= 0 are solved; the
        fifth, (-4, 4), errors together with its mirror cell (-4, -4)."""
        axes = np.linspace(-8.0, 0.0, 3), np.linspace(-4.0, 4.0, 3)
        want, got, retries = self._fifth_cell_fails(monkeypatch, axes)
        assert retries == 6
        assert [(got[i].hx1, got[i].hy1) for i in (1, 7)] == [(-4.0, -4.0), (-4.0, 4.0)]
        self._only_bad(want, got, [1, 7])

    @pytest.mark.parametrize("hy1, bad", [
        (np.linspace(-4.0, 6.0, 3), [4]),
        (np.linspace(-4.0, 4.0, 3), [1, 7]),
    ], ids=["unmirrored", "mirrored"])
    def test_eigensolver_failure_in_a_later_chunk(self, monkeypatch, hy1, bad):
        """With three cells per chunk the fifth solved cell is the second of
        the second chunk: only that chunk's eig fails and only its three
        cells are retried; the fifth cell (and its mirror) alone errors."""
        axes = np.linspace(-8.0, 0.0, 3), hy1
        want = plane(*axes, 256)
        monkeypatch.setattr(floquet, "CHUNK", 3)
        retries = fifth_cell_fails(monkeypatch, sweep, "quasienergies", 3, chunk=2, retry=2)
        got = plane(*axes, 256)
        assert len(retries) == 3
        self._only_bad(want, got, bad)

    def test_gamma_points_match_global_verdict(self):
        """Cells on the drive curve agree with the full-chain stability scan."""
        (stable_a,), _ = evaluate_points([PA], nk=64, steps=1024)[:2]
        assert stable_a
        for hx1, hy1 in zip(*drive_amplitudes(PA, kgrid(8))):
            lo = plane(np.linspace(hx1, hx1 + 1.0, 2), np.linspace(hy1, hy1 + 1.0, 2), 1024)
            cell = lo[0]
            assert (cell.hx1, cell.hy1) == (hx1, hy1)
            assert cell.verdict == "Stable"


class TestPhaseDiagram:
    def test_transition_row(self, phase_row):
        assert phase_row.dtype.names == ("nu1p", "mu", "verdict", "max_im", "ws", "error")
        at_mu = phase_row[phase_row.mu == -5.0]
        assert [c.verdict for c in at_mu] == ["Stable"] * 5 + ["Unstable"] * 5 + ["Stable"] * 2
        assert [c.ws for c in at_mu] == [0] * 5 + [None] * 5 + [2] * 2
        assert all(c.max_im > 0.1 for c in at_mu if c.verdict == "Unstable")
        assert all(c.error is None for c in at_mu)

    def test_invariant_change_forces_instability(self, phase_row):
        at_mu = phase_row[phase_row.mu == -5.0]
        ws = list(at_mu.ws)
        assert 0 in ws and 2 in ws
        lo = next(i for i, c in enumerate(at_mu) if c.ws == 0)
        hi = max(i for i, c in enumerate(at_mu) if c.ws == 2)
        assert any(c.verdict == "Unstable" for c in at_mu[lo:hi])

    def test_cells_equal_evaluate_point(self, phase_row):
        (_, nu1p), (_, mu) = ROW
        assert phase_row.nu1p.tolist() == nu1p.tolist() * len(mu)
        assert phase_row.mu.tolist() == np.repeat(mu, len(nu1p)).tolist()
        for cell in phase_row:
            p = replace(BASE, nu1p=cell.nu1p, mu=cell.mu)
            (stable,), (max_im,), (ws,), (err,) = evaluate_points([p], nk=64, steps=512)
            verdict = "Stable" if stable else "Unstable"
            assert cell.tolist() == (cell.nu1p, cell.mu, verdict, max_im, ws, err)

    def test_bad_grid_axes(self):
        axis = np.linspace(0.0, 1.0, 2)
        with pytest.raises(ValueError, match="model parameters"):
            phase_diagram(BASE, ("hx1", axis), ("mu", axis))
        with pytest.raises(ValueError, match="must differ"):
            phase_diagram(BASE, ("mu", axis), ("mu", axis))
        with pytest.raises(ValueError, match="must differ"):
            effective_phase_overlay(BASE, ("nu1p", axis), ("nu1p", axis))


class TestBatchedPoints:
    """scan_path and phase_diagram solve all their points in one batch, and
    one point's failure stays in that point's row."""

    TRIVIAL = replace(PA, nu1p=0.0)
    AXES = (("nu1p", np.linspace(9.0, 11.0, 3)), ("mu", np.linspace(-5.05, -4.95, 3)))
    DRIVERS = {
        "scan": lambda: scan_path(PA, TestBatchedPoints.TRIVIAL, 16, nk=64, steps=64),
        "phase": lambda: phase_diagram(PA, *TestBatchedPoints.AXES, nk=64, steps=64),
    }

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_one_propagate_call(self, monkeypatch, driver):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(floquet, "propagate", counted)
        self.DRIVERS[driver]()
        assert len(calls) == 1

    def test_one_call_per_omega(self, monkeypatch):
        """Points are grouped by drive frequency, and each row equals the
        point solved alone."""
        other = replace(PA, omega=6.0)
        points = [PA, other, replace(PA, nu1p=6.0), replace(other, mu=-4.9)]
        alone = [[c[0] for c in evaluate_points([p], nk=64, steps=64)] for p in points]
        calls = []

        def counted(h0, h1, omega, steps):
            calls.append(omega)
            return propagate(h0, h1, omega, steps)

        monkeypatch.setattr(floquet, "propagate", counted)
        batched = evaluate_points(points, nk=64, steps=64)
        assert calls == [5.2, 6.0]
        assert [list(row) for row in zip(*batched)] == alone

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_eigensolver_failure_isolated_to_its_point(self, monkeypatch, driver):
        """The batched eig fails, each point is retried alone, and only the
        fifth point, whose retry fails too, carries the error."""
        want = self.DRIVERS[driver]()
        retries = fifth_cell_fails(monkeypatch, floquet, "eig_branches", 4)
        got = self.DRIVERS[driver]()
        assert len(retries) == len(got)
        self._only_fifth(want, got)

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_eigensolver_failure_in_a_later_chunk(self, monkeypatch, driver):
        """With two points (2 x 33 momenta) per chunk the fifth point opens
        the third chunk: only that chunk's eig fails and only its two points
        are retried; the fifth point alone errors."""
        want = self.DRIVERS[driver]()
        monkeypatch.setattr(floquet, "CHUNK", 66)
        retries = fifth_cell_fails(monkeypatch, floquet, "eig_branches", 4, chunk=3, retry=1)
        got = self.DRIVERS[driver]()
        assert len(retries) == 2
        self._only_fifth(want, got)

    @staticmethod
    def _only_fifth(want, got):
        bad = got[4]
        assert bad.error == "eigensolver failed: Eigenvalues did not converge"
        assert math.isnan(bad.max_im) and bad.ws is None
        assert bad.verdict == "Failed" if "verdict" in got.dtype.names else not bad.stable
        rest = np.arange(len(got)) != 4
        assert got[rest].tolist() == want[rest].tolist()


class TestChunks:
    """``solve_cells`` hands each stage at most CHUNK propagators, or one cell's."""

    RUNS = {  # the run and the propagators of one of its cells
        "plane": (lambda: plane(np.linspace(-15.0, 9.0, 25), np.linspace(-12.0, 12.0, 25), 64), 1),
        "k-grid": (lambda: kgrid_solve([PA, replace(PA, omega=6.0), replace(PA, mu=-4.9),
                                        replace(PA, nu1p=6.0)], 64, 64), 33),
        "scan": (TestBatchedPoints.DRIVERS["scan"], 33),
    }

    @pytest.mark.parametrize("chunk", [20, 70])
    @pytest.mark.parametrize("run", RUNS)
    def test_no_call_exceeds_a_chunk(self, monkeypatch, run, chunk):
        """No call of ``propagate``, ``eig_branches`` or ``quasienergies``
        gets more propagators than CHUNK, or than one cell has when that is
        more (33 momenta of a k-grid point at nk 64)."""
        sizes = []

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                blocks = args[:2] if name == "propagate" else args[:1]
                sizes.append((name, math.prod(np.broadcast_shapes(*map(np.shape, blocks))[:-2])))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in [(floquet, "propagate"), (floquet, "eig_branches"),
                             (sweep, "quasienergies")]:
            spy(module, name)
        monkeypatch.setattr(floquet, "CHUNK", chunk)
        run, members = self.RUNS[run]
        run()
        assert max(n for _, n in sizes) <= max(chunk, members)
        assert sum(name == "propagate" for name, _ in sizes) > 1


class TestEffectiveOverlay:
    def test_flags_instability_window_near_exact_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ov = effective_phase_overlay(BASE, *ROW, nk=64)
        at_mu = ov[ov.mu == -5.0]
        exact_unstable = {5.0, 6.0, 7.0, 8.0, 9.0}
        eff_unstable = set(at_mu.nu1p[at_mu.verdict == "Unstable"].tolist())
        assert eff_unstable
        assert eff_unstable & exact_unstable
        # rotating-frame estimate may displace each boundary by a cell or so
        assert abs(min(eff_unstable) - min(exact_unstable)) <= 1.5
        assert abs(max(eff_unstable) - max(exact_unstable)) <= 1.5

    def test_returns_stability_cells(self):
        # g below the band-pairing detuning everywhere, so genuinely gapped
        small = ModelParams(nu0=0.5, nu0p=0.2, nu1=0.5, nu1p=0.0, mu=0.0, omega=12.0, g=0.05)
        ov = effective_phase_overlay(small, ("nu1p", np.linspace(0.0, 1.0, 2)),
                                     ("mu", np.linspace(-0.1, 0.1, 2)), nk=32)
        assert len(ov) == 4
        assert ov.dtype.names == ("nu1p", "mu", "verdict", "max_im")
        assert (ov.verdict == "Stable").all()

    def test_default_indices_chosen_at_grid_center(self):
        """On the 23-point nu1p row, the center cell (nu1p = 5.5, mu = -4.95)
        picks (0, -2), and every cell is evaluated in that one frame."""
        row = (("nu1p", np.linspace(0.0, 11.0, 23)), ("mu", np.linspace(-5.0, -4.95, 2)))
        assert choose_indices(replace(BASE, nu1p=5.5, mu=-4.95)) == (0, -2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            overlay = effective_phase_overlay(BASE, *row, nk=64)
            for cell in overlay:
                p = replace(BASE, nu1p=cell.nu1p, mu=cell.mu)
                ep, em, _, verdict = effective_spectrum(p, 64, 0, -2)
                max_im = max(np.abs(ep.imag).max(), np.abs(em.imag).max())
                assert (cell.verdict, cell.max_im) == (verdict, max_im)
