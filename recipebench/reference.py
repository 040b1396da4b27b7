"""Host-speed reference: a fixed piece of numpy work that does not use floqbog.

The shared host's speed drifts by 15-20 % over tens of seconds to minutes,
the same for every process on it, so raw pass times of one workload spread
that much from run to run.  ``run.py`` times one reference chunk after every
recipe invocation and reports the pass time in units of the chunk's median
time (``wall_ref``), which cancels the drift.  The chunk mimics the three
shapes the workloads integrate: a small batch of 4x4 RK4 steps (interpreter
bound, like one k-grid), a large batch (memory bound, like the drive plane)
and dense 80x80 products (BLAS bound, like the open chain).  It never
changes with the program, so a slower floqbog still reads as slower.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20151223)
_SMALL = 0.5 * (_RNG.standard_normal((64, 4, 4)) + 1j * _RNG.standard_normal((64, 4, 4)))
_LARGE = 0.5 * (_RNG.standard_normal((4096, 4, 4)) + 1j * _RNG.standard_normal((4096, 4, 4)))
_DENSE = (_RNG.standard_normal((2, 80, 80)) + 1j * _RNG.standard_normal((2, 80, 80))) / 80
#: work per chunk, chosen for about 0.07 s per part on a 2-vCPU Xeon host
SMALL_STEPS, LARGE_STEPS, DENSE_PRODUCTS = 400, 7, 1000


def _rk4(a: np.ndarray, steps: int) -> np.ndarray:
    u = np.broadcast_to(np.eye(4, dtype=complex), a.shape).copy()
    dt = 1e-3
    for _ in range(steps):
        k1 = a @ u
        k2 = a @ (u + (0.5 * dt) * k1)
        k3 = a @ (u + (0.5 * dt) * k2)
        k4 = a @ (u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def chunk_seconds() -> float:
    """Wall time of one reference chunk."""
    t0 = time.perf_counter()
    _rk4(_SMALL, SMALL_STEPS)
    _rk4(_LARGE, LARGE_STEPS)
    a, b = _DENSE
    for _ in range(DENSE_PRODUCTS):
        a @ b
    return time.perf_counter() - t0
