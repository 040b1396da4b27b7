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
from floqbog.model import ModelParams
from floqbog.sweep import stability_grid
from floqbog.topology import evaluate_points, symplectic_winding

PA = ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2)
PC = replace(PA, nu1p=6.0)


def results(s: float) -> dict:
    """fig3a, fig3b, fig1b/fig1c and a 41x41 fig2b plane in units scaled by s."""
    a, c = (ModelParams(**{f.name: s * getattr(p, f.name) for f in fields(p)}) for p in (PA, PC))
    spec = chain_spectrum(a, 20, 64, 128)
    midgap, sides = detect_midgap(spec)
    stable, max_im, _, _ = evaluate_points([a, c], nk=256, steps=64)
    plane = stability_grid((-a.nu0, 0.0), a.omega, a.mu, a.g, np.linspace(-15.0, 9.0, 41) * s,
                           np.linspace(-12.0, 12.0, 41) * s, steps=64)
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


@pytest.mark.parametrize("s", [0.1, 0.2, 0.3, 3.0, 10.0])
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
