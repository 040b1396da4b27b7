"""A change of units changes no result.

Scaling every energy and omega by s leaves the physics as it is: eps, the
bulk gap and the growth rates scale by s, and every verdict, count and
winding stays.  So a result that moves under such a scaling is decided by
round-off, for instance by an absolute threshold or by a float comparison
with a sample that sits exactly on a bound.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from floqbog.dynamics import chain_spectrum, detect_midgap, evolve_vacuum, growth_rate_fit
from floqbog.floquet import IntegrationError
from floqbog.model import ModelParams
from floqbog.sweep import stability_grid
from floqbog.topology import (
    InvariantUndefinedError,
    evaluate_points,
    symplectic_winding,
    winding_undriven,
)

PA = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)
PC = replace(PA, nu1p=6.0)


def scaled(s: float):
    """The fig1b and fig1c points in units scaled by s, and their 41x41 fig2b plane."""
    a, c = (ModelParams(**{f.name: s * getattr(p, f.name) for f in fields(p)}) for p in (PA, PC))
    plane = stability_grid((-a.nu0, 0.0), a.omega, a.mu, a.g, np.linspace(-15.0, 9.0, 41) * s,
                           np.linspace(-12.0, 12.0, 41) * s, steps=64)
    return a, c, plane


def results(s: float) -> dict:
    """fig3a, fig3b, fig1b/fig1c and a 41x41 fig2b plane in units scaled by s."""
    a, c, plane = scaled(s)
    spec = chain_spectrum(a, 20, 64, 128)
    midgap, sides = detect_midgap(spec)
    stable, max_im, _, _ = evaluate_points([a, c], nk=256, steps=64)
    return {
        "midgap": len(midgap),
        "sides": sides,
        "bulk_gap": spec.bulk_gap / s,
        "rate": growth_rate_fit(evolve_vacuum(a, 20, 25.0, 101, 64)) / s,
        "ws": symplectic_winding(a, 256, 64).ws,
        "stable": stable.tolist(),
        "max_im_fig1c": max_im[1] / s,
        "unstable_cells": int((plane.verdict == "Unstable").sum()),
    }


@pytest.fixture(scope="module")
def unscaled():
    return results(1.0)


@pytest.mark.parametrize("s", [0.1, 0.2, 0.3, 3.0, 10.0, 1e6])
def test_scale_covariance(unscaled, s):
    got = results(s)
    assert unscaled["midgap"] == 4 and unscaled["sides"] == (2, 2)
    assert unscaled["ws"] == 2 and unscaled["stable"] == [True, False]
    assert unscaled["unstable_cells"] == 134
    for key in ("midgap", "sides", "ws", "stable", "unstable_cells"):
        assert got[key] == unscaled[key], key
    assert got["rate"] == pytest.approx(unscaled["rate"], rel=1e-9, abs=0.0)
    for key in ("bulk_gap", "max_im_fig1c"):
        assert got[key] == pytest.approx(unscaled[key], rel=1e-12, abs=0.0), key


def test_unresolved_scale_fails():
    """At s = 1e7 the default tol_im lies below the quasienergy resolution
    RESOLUTION omega (2.9e-8 at omega 5.2e7), so round-off would decide the
    verdicts: W^S raises, and every point and cell fails with that message
    instead of reading Unstable."""
    a, c, plane = scaled(1e7)
    with pytest.raises(IntegrationError, match="quasienergy resolution"):
        symplectic_winding(a, 256, 64)
    stable, _, ws, error = evaluate_points([a, c], nk=256, steps=64)
    assert not stable.any() and ws.tolist() == [None, None]
    assert all("quasienergy resolution" in e for e in error)
    assert (plane.verdict == "Unstable").sum() == 0 and (plane.verdict == "Failed").sum() == 1681
    assert all("quasienergy resolution" in e for e in plane.error)
    assert np.isfinite(plane.max_im).all()


def test_undriven_winding_at_small_scale():
    """A W = 1 static chain keeps its winding with every energy scaled by
    1e-10: the vanishing-field floor is relative to max |h|.  A field that
    is zero everywhere is still refused."""
    topo = ModelParams(nu0=1.0, nu0p=2.0, nu1=0.0, nu1p=0.0, mu=0.0, omega=5.2, g=0.0)
    tiny = ModelParams(**{f.name: 1e-10 * getattr(topo, f.name) for f in fields(topo)})
    assert winding_undriven(topo) == winding_undriven(tiny) == 1
    with pytest.raises(InvariantUndefinedError, match="static field vanishes"):
        winding_undriven(replace(topo, nu0=0.0, nu0p=0.0))
