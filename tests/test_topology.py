import math

import numpy as np
import pytest

from floqbog import topology
from floqbog.floquet import DEFAULT_STEPS, IntegrationError
from floqbog.model import ModelParams
from floqbog.topology import (
    InvariantUndefinedError,
    TrackingError,
    _band_phase,
    evaluate_point,
    interpolate,
    scan_path,
    select_band_set,
    symplectic_winding,
    track_bands,
    winding_undriven,
)

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
    def test_tracked_shapes_and_closure(self):
        tr = track_bands(PA, nk=128, steps=1024)
        assert tr.eps.shape == (128, 4) and tr.states.shape == (128, 4, 4)
        assert tr.closure.shape == (4,)
        assert tr.closure.min() > 0.99
        assert (tr.cnorm[tr.cnorm != 0] ** 2 == 1).all()

    def test_band_set_selection(self):
        tr = track_bands(PA, nk=128, steps=1024)
        sel = select_band_set(tr)
        assert len(sel) == 1
        (band,) = sel
        assert (tr.cnorm[:, band] == 1).all()
        assert (tr.eps[:, band].real > 0).all()
        assert (tr.eps[:, band].real < PA.omega / 2).all()

    def test_unstable_point_refused(self):
        with pytest.raises(InvariantUndefinedError, match="strongly stable"):
            track_bands(PB, nk=64, steps=1024)

    def test_gauge_invariance(self):
        """Random per-k phases on the section leave the loop phase unchanged."""
        tr = track_bands(PA, nk=128, steps=1024)
        (band,) = select_band_set(tr)
        states = tr.states[:, band]
        base = _band_phase(states)
        rng = np.random.default_rng(42)
        for _ in range(5):
            phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=states.shape[0]))
            assert _band_phase(states * phases[:, None]) == pytest.approx(base, abs=1e-9)


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

    def test_rejects_short_paths(self):
        with pytest.raises(ValueError):
            scan_path(PA, PB, n_points=9)

    def test_topological_to_trivial_crosses_instability(self):
        trivial = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=0.0, mu=-5.0, omega=5.2)
        pts = scan_path(PA, trivial, n_points=17, nk=64, steps=1024)
        assert len(pts) == 17
        assert pts[0].stable and pts[0].ws == 2
        assert pts[-1].stable and pts[-1].ws == 0
        interior = pts[1:-1]
        assert any(not p.stable for p in interior)
        for p in pts:
            if not p.stable:
                assert p.ws is None and p.max_im > 1e-8
        fr = [p.fraction for p in pts]
        assert fr == pytest.approx(np.linspace(0, 1, 17).tolist())


class TestEvaluatePoint:
    @pytest.mark.parametrize("error", [IntegrationError, TrackingError, InvariantUndefinedError])
    def test_numerical_failure_is_recorded(self, monkeypatch, error):
        def fail(*args):
            raise error("boom")

        monkeypatch.setattr(topology, "kgrid_solve", fail)
        stable, max_im, ws, err = evaluate_point(PA, nk=64)
        assert not stable and math.isnan(max_im) and ws is None and err == "boom"

    def test_defect_propagates(self, monkeypatch):
        """A programming error is not a cell error: it must surface."""
        def broken(*args):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(topology, "kgrid_solve", broken)
        with pytest.raises(TypeError, match="not a numerical failure"):
            evaluate_point(PA, nk=64)
