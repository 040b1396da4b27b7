import math
from dataclasses import replace
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import linear_sum_assignment

from floqbog import topology
from floqbog.floquet import TOL_IM, IntegrationError, classify_arrays, kgrid, kgrid_solve
from floqbog.model import ModelParams
from floqbog.topology import (
    InvariantUndefinedError,
    TrackedBands,
    TrackingError,
    _band_phase,
    _best_matching,
    _track,
    _winding_from_tracked,
    evaluate_points,
    interpolate,
    scan_path,
    select_band_set,
    symplectic_winding,
    winding_undriven,
)

from helpers import track_loop, wilson_loop

PA = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)
PB = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=6.0, mu=-5.0, omega=5.2)


class TestUndrivenWinding:
    def test_ssh_anchors(self):
        trivial = ModelParams(nu0=2.0, nu0p=1.0, nu1=0, nu1p=0, mu=0, omega=5.2, g=0)
        topo = ModelParams(nu0=1.0, nu0p=2.0, nu1=0, nu1p=0, mu=0, omega=5.2, g=0)
        assert winding_undriven(trivial) == 0
        assert winding_undriven(topo) == 1

    def test_sign_convention(self):
        # winding counts |nu0p| > |nu0| regardless of signs
        assert winding_undriven(ModelParams(nu0=-1.0, nu0p=-2.0, nu1=0, nu1p=0,
                                            mu=0, omega=5.2, g=0)) == 1

    def test_static_fig_point_is_trivial(self):
        assert winding_undriven(PA) == 0

    def test_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            nu0, nu0p = rng.uniform(-3, 3, size=2)
            if abs(abs(nu0) - abs(nu0p)) < 0.05:
                continue
            p = ModelParams(nu0=nu0, nu0p=nu0p, nu1=0, nu1p=0, mu=0, omega=5.2, g=0)
            assert winding_undriven(p) == (1 if abs(nu0p) > abs(nu0) else 0)

    def test_degenerate_rejected(self):
        p = ModelParams(nu0=1.0, nu0p=1.0, nu1=0, nu1p=0, mu=0, omega=5.2, g=0)
        with pytest.raises(InvariantUndefinedError, match="degeneracy"):
            winding_undriven(p)


class TestBandTracking:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=3).map(
        lambda lead: (*lead, 4, 4)), elements=st.floats(0.0, 1.0)))
    def test_best_matching_equals_assignment_solver(self, stack):
        """Every slice of a stack of overlaps: the single-matrix call, and the
        assignment solver's optimum."""
        rows = np.arange(4)
        cols = _best_matching(stack)
        assert cols.shape == stack.shape[:-1]
        for index in np.ndindex(stack.shape[:-2]):
            ov, col = stack[index], cols[index]
            assert col.tolist() == _best_matching(ov).tolist()
            _, want = linear_sum_assignment(ov, maximize=True)
            assert sorted(col) == [0, 1, 2, 3]
            assert ov[rows, col].sum() == pytest.approx(ov[rows, want].sum(), abs=1e-12)
            totals = sorted(ov[rows, list(p)].sum() for p in permutations(range(4)))
            if totals[-1] - totals[-2] > 1e-9:  # unique optimum: the same matching
                assert list(col) == list(want)

    def test_tracked_shapes_and_closure(self):
        tr = track_pa()
        assert tr.eps.shape == (128, 4) and tr.states.shape == (128, 4, 4)
        assert tr.closure.shape == (4,)
        assert tr.closure.min() > 0.99
        assert (tr.cnorm[tr.cnorm != 0] ** 2 == 1).all()

    def test_band_set_selection(self):
        tr = track_pa()
        sel = select_band_set(tr)
        assert len(sel) == 1
        (band,) = sel
        assert (tr.cnorm[:, band] == 1).all()
        assert (tr.eps[:, band].real > 0).all()
        assert (tr.eps[:, band].real < PA.omega / 2).all()

    def test_gauge_invariance(self):
        """Random per-k phases on the section leave the loop phase unchanged."""
        tr = track_pa()
        (band,) = select_band_set(tr)
        states = tr.states[:, band]
        base = _band_phase(states)[0]
        rng = np.random.default_rng(42)
        for _ in range(5):
            phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=states.shape[0]))
            assert _band_phase(states * phases[:, None])[0] == pytest.approx(base, abs=1e-9)


def track_one(ks, eps, cnorm, states, omega):
    """``_track`` of one point (P = 1): its bands, or its message raised as TrackingError."""
    tracked, (message,) = _track(ks, eps[None], cnorm[None], states[None], np.array([omega]))
    if message is not None:
        raise TrackingError(message)
    return TrackedBands(tracked.eps[0], tracked.cnorm[0], tracked.states[0], tracked.closure[0],
                        omega)


def track_pa():
    """The tracked bands of the fig1b point at nk 128 and 1024 steps."""
    ks, (eps,), (cnorm,), (states,), _ = kgrid_solve([PA], 128, 1024)
    return track_one(ks, eps, cnorm, states, PA.omega)


def assert_tracks_like_oracle(ks, eps, cnorm, states, omega):
    """``_track`` gives the oracle's eps, cnorm, states and closure bitwise."""
    tracked = track_one(ks, eps, cnorm, states, omega)
    got = (tracked.eps, tracked.cnorm, tracked.states, tracked.closure)
    for a, b in zip(got, track_loop(ks, eps, cnorm, states)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTrackingOracle:
    """The batched matching against the one-momentum-at-a-time oracle."""

    #: four strongly stable branches, identical at every k of the synthetic grids
    EPS = np.array([0.5, 1.0, -0.5, -1.0], dtype=complex)
    CNORM = np.array([1, 1, -1, -1])

    def test_fig1b_point(self):
        ks, (eps,), (cnorm,), (states,), _ = kgrid_solve([PA], 256)
        assert_tracks_like_oracle(ks, eps, cnorm, states, PA.omega)

    @pytest.mark.parametrize("grid", ["scan", "phase"])
    def test_every_stable_point(self, grid):
        """The 16-point scan from the fig1b point to nu1p = 0 and the 3x3
        nu1p x mu grid around it, at nk 64."""
        if grid == "scan":
            end = replace(PA, nu1p=0.0)
            points = [interpolate(PA, end, float(f)) for f in np.linspace(0.0, 1.0, 16)]
        else:
            points = [replace(PA, nu1p=a, mu=b) for a in np.linspace(9.0, 11.0, 3)
                      for b in np.linspace(-5.05, -4.95, 3)]
        ks, eps, cnorm, states, error = kgrid_solve(points, 64)
        strong = [i for i, p in enumerate(points) if error[i] is None
                  and (classify_arrays(eps[i], cnorm[i], p.omega, TOL_IM) == 0).all()]
        assert len(strong) >= 3
        for i in strong:
            assert_tracks_like_oracle(ks, eps[i], cnorm[i], states[i], points[i].omega)

    def test_winding_like_band_loop(self):
        """All strongly stable points of the scan and the 3x3 grid, tracked by
        one ``_track`` and wound by one ``_winding_from_tracked``: each point's
        raw W^S is bitwise that of the one-band-at-a-time loop."""
        end = replace(PA, nu1p=0.0)
        points = [interpolate(PA, end, float(f)) for f in np.linspace(0.0, 1.0, 16)]
        points += [replace(PA, nu1p=a, mu=b) for a in np.linspace(9.0, 11.0, 3)
                   for b in np.linspace(-5.05, -4.95, 3)]
        ks, eps, cnorm, states, _ = kgrid_solve(points, 64)
        omega = np.array([p.omega for p in points])
        strong = np.flatnonzero((classify_arrays(eps, cnorm, omega[:, None], TOL_IM) == 0)
                                .all(axis=1))
        assert len(strong) >= 10
        tracked, error = _track(ks, eps[strong], cnorm[strong], states[strong], omega[strong])
        results, failed = _winding_from_tracked(tracked)
        assert list(error) == failed == [None] * len(strong)
        for i, result in enumerate(results):
            raw = wilson_loop(tracked.eps[i], tracked.cnorm[i], tracked.states[i], omega[i])
            assert result.raw == raw and result.ws == round(raw)
            assert result.bandset_size == len(select_band_set(TrackedBands(
                tracked.eps[i], tracked.cnorm[i], tracked.states[i], None, omega[i])))

    def failure(self, breaks):
        """(oracle, batched) TrackingError messages of a 12-point grid of unit
        states with states[j] replaced by m for each (j, m) in ``breaks``.

        With unit vectors on both sides, pair (j - 1, j) has the overlaps
        |m|^T and pair (j, j + 1) has |m|.
        """
        nk = 12
        ks = kgrid(nk)
        states = np.tile(np.eye(4, dtype=complex), (nk, 1, 1))
        for j, m in breaks:
            states[j] = m
        eps, cnorm = np.tile(self.EPS, (nk, 1)), np.tile(self.CNORM, (nk, 1))
        with pytest.raises(TrackingError) as oracle:
            track_loop(ks, eps, cnorm, states)
        with pytest.raises(TrackingError) as batched:
            track_one(ks, eps, cnorm, states, PA.omega)
        return str(oracle.value), str(batched.value), ks

    #: band 0 keeps only overlap 0.4, with no runner-up near it: lost
    LOST = np.diag([0.4, 0.9, 0.9, 0.9]) + 0.1 * (1.0 - np.eye(4))
    #: band 0 overlaps bands 0 and 1 within 5e-4, band 1 overlaps band 1 by
    #: far the most: ambiguous in row 0 of |m| only, so at the pair (j, j + 1)
    AMBIGUOUS = np.array([[0.9, 0.8995, 0, 0], [0, 0.99, 0, 0], [0, 0, 0.9, 0], [0, 0, 0, 0.9]])
    #: every overlap 0.5: lost and ambiguous at once
    BOTH = 0.5 * np.ones((4, 4))
    #: where a break at j is reported: a lost band at the pair (j - 1, j)
    START = {"lost": ("band continuation lost", 0), "both": ("band continuation lost", 0),
             "ambiguous": ("ambiguous band matching", 1)}

    @pytest.mark.parametrize("kind", ["lost", "ambiguous", "both"])
    def test_failure_at_one_k(self, kind):
        m = {"lost": self.LOST, "ambiguous": self.AMBIGUOUS, "both": self.BOTH}[kind]
        oracle, batched, ks = self.failure([(5, m)])
        assert batched == oracle
        start, shift = self.START[kind]
        assert batched.startswith(f"{start} at k={ks[5 + shift]:+.4f} ")

    @pytest.mark.parametrize("first, second", [("lost", "ambiguous"), ("ambiguous", "lost")])
    def test_first_failing_k_wins(self, first, second):
        m = {"lost": self.LOST, "ambiguous": self.AMBIGUOUS}
        oracle, batched, ks = self.failure([(3, m[first]), (8, m[second])])
        assert batched == oracle
        start, shift = self.START[first]
        assert batched.startswith(f"{start} at k={ks[3 + shift]:+.4f} ")

    def test_shuffled_branches(self):
        """Branches put in a random order at every k are tracked like the
        oracle, into the bands tracked from the sorted order."""
        ks, (eps,), (cnorm,), (states,), _ = kgrid_solve([PA], 64)
        order = np.random.default_rng(3).permuted(np.tile(np.arange(4), (64, 1)), axis=1)
        shuffled = (np.take_along_axis(eps, order, 1), np.take_along_axis(cnorm, order, 1),
                    np.take_along_axis(states, order[..., None], 1))
        assert_tracks_like_oracle(ks, *shuffled, PA.omega)
        tracked = track_one(ks, *shuffled, PA.omega)
        sorted_ = track_one(ks, eps, cnorm, states, PA.omega)
        first = order[0]
        assert np.array_equal(tracked.eps, sorted_.eps[:, first])
        assert np.array_equal(tracked.states, sorted_.states[:, first])


class TestSymplecticWinding:
    def test_fig_point_is_two(self):
        res = symplectic_winding(PA, nk=128, steps=1024)
        assert res.ws == 2
        assert res.raw == pytest.approx(2.0, abs=1e-9)
        assert res.residual < 1e-9
        assert res.bandset_size == 1

    @pytest.mark.parametrize("nk", [128, 256])
    def test_grid_invariance(self, nk):
        assert symplectic_winding(PA, nk=nk, steps=1024).ws == 2

    def test_trivial_drive(self):
        p = ModelParams(nu0=1.5, nu0p=0.2, nu1=3.0, nu1p=0.0, mu=-5.0, omega=5.2)
        res = symplectic_winding(p, nk=128, steps=1024)
        assert res.ws == 0
        assert abs(res.raw) < 1e-6

    def test_weak_drive_still_trivial(self):
        p = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=2.0, mu=-5.0, omega=5.2)
        assert symplectic_winding(p, nk=128, steps=1024).ws == 0

    def test_consistent_across_pocket(self):
        for mu in (-5.04, -5.0, -4.96):
            p = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=mu, omega=5.2)
            assert symplectic_winding(p, nk=128, steps=1024).ws == 2

    def test_refuses_unstable(self):
        with pytest.raises(InvariantUndefinedError, match="strongly stable"):
            symplectic_winding(PB, nk=64, steps=1024)


class TestScanPath:
    def test_interpolate_endpoints_and_midpoint(self):
        mid = interpolate(PA, PB, 0.5)
        assert mid.nu1p == pytest.approx(8.5)
        assert mid.mu == pytest.approx(-5.0)
        assert interpolate(PA, PB, 0.0) == PA
        assert interpolate(PA, PB, 1.0) == PB
        for f in np.linspace(0.0, 1.0, 16):
            assert interpolate(PA, PB, float(f)) == replace(PA, nu1p=(1 - f) * 11.0 + f * 6.0)

    def test_rejects_short_paths(self):
        with pytest.raises(ValueError):
            scan_path(PA, PB, n_points=9)

    def test_topological_to_trivial_crosses_instability(self):
        trivial = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=0.0, mu=-5.0, omega=5.2)
        pts = scan_path(PA, trivial, n_points=17, nk=64, steps=1024)
        assert pts.dtype.names == ("fraction", "nu0", "nu0p", "nu1", "nu1p", "mu", "omega", "g",
                                   "stable", "max_im", "ws", "error")
        assert len(pts) == 17
        assert pts[0].stable and pts[0].ws == 2
        assert pts[-1].stable and pts[-1].ws == 0
        interior = pts[1:-1]
        assert any(not p.stable for p in interior)
        for p in pts:
            if not p.stable:
                assert p.ws is None and p.max_im > 1e-8
        assert pts.fraction.tolist() == pytest.approx(np.linspace(0, 1, 17).tolist())
        assert pts.nu1p.tolist() == pytest.approx(np.linspace(11.0, 0.0, 17).tolist())


class TestEvaluatePoint:
    """A point's numerical failure is recorded in its row, with the message the
    point raises when it is solved alone, and never raised for the batch."""

    #: far past the step-size guard at the default 64 steps
    COARSE = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=2e3, mu=-5.0, omega=5.2)
    #: g = 0 and mu = 0: each particle band is degenerate with an opposite-norm
    #: hole band at every k, so the point is marginal and W^S undefined
    MARGINAL = ModelParams(nu0=1.0, nu0p=0.5, nu1=0.0, nu1p=0.0, mu=0.0, omega=5.2, g=0.0)

    @pytest.mark.parametrize("error", [IntegrationError, TrackingError, InvariantUndefinedError])
    def test_numerical_failure_is_recorded(self, monkeypatch, error):
        """The point's message lands in its row only: the fig1b point after it
        keeps its W^S.  The batched ``_track`` returns a tracking failure per
        point; here it fails the first point it tracks."""
        if error is TrackingError:
            track = topology._track

            def fail(*args):
                tracked, messages = track(*args)
                messages[0] = "boom"
                return tracked, messages

            monkeypatch.setattr(topology, "_track", fail)
        point = {IntegrationError: self.COARSE, TrackingError: PA,
                 InvariantUndefinedError: self.MARGINAL}[error]
        with pytest.raises(error) as alone:
            symplectic_winding(point, nk=64)
        rows = list(zip(*evaluate_points([PB, point, PA], nk=64)))
        stable, max_im, ws, err = rows[1]
        assert ws is None and err == str(alone.value)
        assert rows[2][2:] == (2, None) and rows[0][0] == False  # noqa: E712
        if error is IntegrationError:
            assert not stable and math.isnan(max_im)
        elif error is TrackingError:
            assert stable and max_im < 1e-6 and err == "boom"
        else:
            assert stable and err == "not strongly stable: W^S undefined"

    @pytest.mark.parametrize("passes", [1, 3])
    def test_mixed_batch(self, monkeypatch, passes):
        """One batch holds a lost match, an ambiguous match, a Wilson failure (a
        band whose anchor component vanishes), a marginal point and good
        points: every row equals the point evaluated alone, and carries the
        oracles' message or W^S, also when CHUNK splits the points into passes."""
        nk = 64
        monkeypatch.setattr(topology, "CHUNK", 6 * nk // passes)
        ks, eps, cnorm, states, error = kgrid_solve([PA, self.MARGINAL, replace(PA, mu=-4.96)], nk)
        unit = np.tile(np.eye(4, dtype=complex), (nk, 1, 1))
        synthetic = {"lost": unit.copy(), "ambiguous": unit.copy(), "anchor": unit}
        synthetic["lost"][20] = TestTrackingOracle.LOST
        synthetic["ambiguous"][40] = TestTrackingOracle.AMBIGUOUS
        for x in synthetic.values():
            eps = np.concatenate([eps, np.tile(TestTrackingOracle.EPS, (1, nk, 1))])
            cnorm = np.concatenate([cnorm, np.tile(TestTrackingOracle.CNORM, (1, nk, 1))])
            states = np.concatenate([states, x[None]])
        error = np.concatenate([error, [None] * 3])
        names = ["good", "marginal", "good", "lost", "ambiguous", "anchor"]
        want = {0: symplectic_winding(PA, nk=nk).ws,
                2: symplectic_winding(replace(PA, mu=-4.96), nk=nk).ws}

        def solve(points, nk, steps):
            rows = [p.row for p in points]
            return ks, eps[rows], cnorm[rows], states[rows], error[rows].copy()

        monkeypatch.setattr(topology, "kgrid_solve", solve)
        points = [SimpleNamespace(row=i, omega=PA.omega) for i in (3, 0, 4, 1, 5, 2)]
        batch = list(zip(*evaluate_points(points, nk)))
        for point, row in zip(points, batch):
            assert row == next(zip(*evaluate_points([point], nk)))
            stable, _, ws, err = row
            name, i = names[point.row], point.row
            assert stable
            if name == "good":
                assert (ws, err) == (want[i], None)
            elif name == "marginal":
                assert (ws, err) == (None, "not strongly stable: W^S undefined")
            else:
                with pytest.raises(TrackingError) as oracle:
                    wilson_loop(*track_loop(ks, eps[i], cnorm[i], states[i])[:3], PA.omega)
                assert (ws, err) == (None, str(oracle.value))
                assert err.startswith({"lost": "band continuation lost", "anchor": "gauge anchor",
                                       "ambiguous": "ambiguous band matching"}[name])

    def test_defect_propagates(self, monkeypatch):
        """A programming error is not a cell error: it must surface."""
        def broken(*args):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(topology, "_track", broken)
        with pytest.raises(TypeError, match="not a numerical failure"):
            evaluate_points([PB, PA], nk=64)
