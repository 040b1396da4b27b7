"""Span tracer that wraps floqbog functions from outside the package.

Names are imported across floqbog modules (``rk4_cosine`` is bound in
``floquet``, ``sweep`` and ``dynamics``), so patching the defining module
alone misses calls.  The tracer rebinds every attribute of every loaded
floqbog module that is the same function object as a probed function, and
restores them on exit.  A probed name that no longer exists is reported as
absent; the run goes on and its time lands in the caller's self time.

Spans (role, function, start, end, parent) are kept in memory for the
traced pass and written out by the caller.  Self time is a span's duration
minus the time its direct children cover.  Spans nest by a plain stack,
which holds because the CLI recipes call floqbog from one thread.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from checks import UNDEFINED


def _batch(*arrays) -> int:
    shape = np.broadcast_shapes(*(np.shape(a)[:-2] for a in arrays))
    return math.prod(shape)


def _rk4(a, _):
    n = _batch(a["h0"], a["h1"])
    return {"propagators": n, "matrix_steps": n * a["steps"]}


def _single(a, _):
    return {"propagators": 1, "matrix_steps": a["steps"]}


def _point(a, result):
    _, _, ws, err = result
    return {"errors": int(err is not None and not err.startswith(UNDEFINED)),
            "ws_defined": int(ws is not None)}


def _written(a, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


@dataclass(frozen=True)
class Probe:
    """One probed function: the layer role it serves and its work counts."""

    role: str
    module: str
    name: str
    count: Callable | None = None


PROBES = (
    Probe("floquet.integrate", "floqbog.floquet", "rk4_cosine", _rk4),
    Probe("floquet.integrate", "floqbog.floquet", "monodromy", _single),
    Probe("floquet.integrate", "floqbog.dynamics", "_propagate_period", _single),
    Probe("floquet.eig", "floqbog.floquet", "eig_branches",
          lambda a, _: {"matrices": _batch(a["u"])}),
    Probe("floquet.classify", "floqbog.floquet", "classify_arrays"),
    Probe("floquet.kgrid_solve", "floqbog.floquet", "kgrid_solve",
          lambda a, _: {"k_points": a["nk"]}),
    Probe("model.blocks", "floqbog.model", "bloch_blocks"),
    Probe("model.blocks", "floqbog.model", "chain_blocks"),
    Probe("model.blocks", "floqbog.model", "field_matrix"),
    Probe("topology.track", "floqbog.topology", "_track"),
    Probe("topology.wilson", "floqbog.topology", "_winding_from_tracked"),
    Probe("topology.evaluate_point", "floqbog.topology", "evaluate_point", _point),
    Probe("effective.spectrum", "floqbog.effective", "effective_spectrum"),
    Probe("effective.choose_indices", "floqbog.effective", "choose_indices"),
    Probe("dynamics.chain_spectrum", "floqbog.dynamics", "chain_spectrum"),
    Probe("dynamics.bulk_gap", "floqbog.dynamics", "_bulk_gap"),
    Probe("dynamics.evolve", "floqbog.dynamics", "evolve_vacuum",
          lambda a, r: {"samples": len(r.times)}),
    Probe("dynamics.detect_midgap", "floqbog.dynamics", "detect_midgap"),
    Probe("sweep.stability_grid", "floqbog.sweep", "stability_grid",
          lambda a, r: {"cells": len(r)}),
    Probe("sweep.phase_diagram", "floqbog.sweep", "phase_diagram",
          lambda a, r: {"cells": len(r)}),
    Probe("sweep.overlay", "floqbog.sweep", "effective_phase_overlay"),
    Probe("cli.resolve_config", "floqbog.cli", "resolve_config"),
    Probe("cli.write_outputs", "floqbog.cli", "write_outputs", _written),
)


@dataclass
class Span:
    role: str
    function: str
    start: float
    end: float = math.nan
    parent: int | None = None
    failed: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Context manager that probes the loaded floqbog modules for one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, probe: Probe, fn):
        signature = inspect.signature(fn)
        label = f"{probe.module}.{probe.name}"

        def traced(*args, **kwargs):
            span = Span(probe.role, label, 0.0,
                        parent=self._stack[-1] if self._stack else None)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe.count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = probe.count(bound.arguments, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "floqbog" or name.startswith("floqbog.")]
        for probe in PROBES:
            fn = getattr(sys.modules.get(probe.module), probe.name, None)
            if fn is None:
                self.absent.append(f"{probe.module}.{probe.name}")
                continue
            wrapper = self._wrap(probe, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()
        return False

    def layers(self, wall: float) -> dict[str, float]:
        """Per-role aggregates of one traced pass of ``wall`` seconds.

        ``<role>.self_s`` sums self time; ``<role>.s`` and ``<role>.calls``
        count only the outermost call when a role calls itself (as
        ``bloch_blocks`` calls ``field_matrix``); work counts add over every
        span.  ``trace.uncovered_s`` is the pass time outside any top-level
        span.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for probe in PROBES:
            add(f"{probe.role}.self_s", 0.0)
            add(f"{probe.role}.s", 0.0)
            add(f"{probe.role}.calls", 0)
        for i, span in enumerate(self.spans):
            duration = span.end - span.start
            add(f"{span.role}.self_s", duration - child[i])
            if not self._nested_in_role(span):
                add(f"{span.role}.s", duration)
                add(f"{span.role}.calls", 1)
            add(f"{span.role}.failed", int(span.failed))
            for key, value in span.counts.items():
                add(f"{span.role}.{key}", value)
        calls = out.get("topology.evaluate_point.calls", 0)
        out["topology.evaluate_point.ws_defined_ratio"] = (
            out.get("topology.evaluate_point.ws_defined", 0) / calls if calls else 0.0
        )
        top = sum(s.end - s.start for s in self.spans if s.parent is None)
        out["trace.uncovered_s"] = wall - top
        out["trace.absent"] = len(self.absent)
        return out

    def _nested_in_role(self, span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].role == span.role:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self) -> list[dict]:
        return [
            {"role": s.role, "function": s.function, "start": s.start, "end": s.end,
             "parent": s.parent, "failed": s.failed, "counts": s.counts}
            for s in self.spans
        ]
