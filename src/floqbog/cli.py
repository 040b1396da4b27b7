"""Command-line front end with declarative JSON configs and flat CSV output.

Each command maps to one figure-level computation.  Configuration comes
from an optional shipped recipe, an optional JSON file, and repeatable
--set dotted-path overrides, merged in that order (flags win).  Outputs
are a CSV table plus a JSON metadata sidecar carrying the configuration
with its model, numerics and output blocks filled with their defaults;
the task block holds only the keys given, and the defaults a command
applies to the others (``cells``, ``t_max``, ``points``, ...) are not
recorded.  Exit codes: 0 success, 2 invalid input, 3 numerical failure,
4 invariant undefined.

Every command is a function ``(params, cfg) -> (table, meta, summary)``;
``main`` alone builds the validated ``ModelParams``, writes the outputs and
prints the summary line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import MISSING, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .effective import effective_spectrum, resolve_indices
from .dynamics import (
    chain_spectrum,
    detect_midgap,
    edge_weight,
    evolve_vacuum,
    growth_rate_fit,
)
from .floquet import DEFAULT_STEPS, MIN_STEPS, IntegrationError, TOL_IM, check_cells, kgrid_solve
from .model import ModelParams
from .sweep import effective_phase_overlay, phase_diagram, stability_grid
from .topology import (
    InvariantUndefinedError,
    TrackingError,
    scan_path,
    symplectic_winding,
    winding_undriven,
)


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


#: table rows ``write_outputs`` formats at a time, which bounds the strings it holds
WRITE_ROWS = 8192
NUMERICS_DEFAULTS = {"steps": DEFAULT_STEPS, "nk": 256, "tol_im": TOL_IM}

# A schema maps each key to its kind: int, float (a finite number; an int is
# accepted, a bool never is), bool, str, dict (any object), a tuple of kinds
# (a list of that length) or a nested schema, whose keys are all required
# except in an end model.
MODEL = {f.name: float for f in fields(ModelParams)}
MODEL_DEFAULTS = {f.name: f.default for f in fields(ModelParams) if f.default is not MISSING}
NUMERICS = {"steps": int, "nk": int, "tol_im": float}
AXIS = {"min": float, "max": float, "points": int}
NAMED_AXIS = {"name": str, **AXIS}
TASK_SCHEMAS = {
    "spectrum": {"effective_overlay": bool, "alpha": int, "beta": int},
    "stability-grid": {"static_field": (float, float), "hx1": AXIS, "hy1": AXIS},
    "phase-diagram": {"axis1": NAMED_AXIS, "axis2": NAMED_AXIS, "overlay": bool,
                      "overlay_nk": int},
    "winding": {},
    "ws": {},
    "chain": {"cells": int, "fraction": float, "edge_threshold": float, "window": float},
    "evolve": {"cells": int, "t_max": float, "samples": int},
    "scan-path": {"end_model": MODEL, "points": int},
}
#: task keys a command cannot run without
REQUIRED = {"stability-grid": ("hx1", "hy1"), "phase-diagram": ("axis1", "axis2"),
            "scan-path": ("end_model",)}
CONFIG = {"command": str, "model": dict, "numerics": dict, "task": dict, "output": dict}
_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
          dict: "an object", (float, float): "a list of two numbers"}


def _fits(value, kind) -> bool:
    if isinstance(kind, tuple):
        return isinstance(value, list) and len(value) == len(kind) and all(map(_fits, value, kind))
    if isinstance(value, bool):
        return kind is bool
    if kind is float:  # json reads Infinity and NaN as floats
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, kind)


def _check(block, schema: dict, path: str, required=()) -> None:
    """Reject a non-object block, then unknown keys, mistyped values and
    missing required keys, naming the dotted path of the first offender."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path} must be an object, got {block!r}")
    for key in block:
        if key not in schema:
            raise ConfigError(f"unknown key {path}.{key!r}")
    for key, value in block.items():
        kind = schema[key]
        if isinstance(kind, dict):
            _check(value, kind, f"{path}.{key}", () if kind is MODEL else kind)
        elif not _fits(value, kind):
            raise ConfigError(f"{path}.{key} must be {_KINDS[kind]}, got {value!r}")
    missing = set(required) - set(block)
    if missing:
        raise ConfigError(f"{path} missing {sorted(missing)}")


def validate_config(cfg: dict, command: str) -> dict:
    """Fill defaults and reject malformed input, reporting dotted field paths."""
    _check(cfg, CONFIG, "config")
    if cfg.get("command", command) != command:
        raise ConfigError(f"config is for command {cfg['command']!r}, invoked as {command!r}")
    model = {**MODEL_DEFAULTS, **cfg.get("model", {})}
    _check(model, MODEL, "model", MODEL)
    numerics = {**NUMERICS_DEFAULTS, **cfg.get("numerics", {})}
    _check(numerics, NUMERICS, "numerics")
    for key, lo in (("steps", MIN_STEPS), ("nk", 64)):
        if numerics[key] < lo:
            raise ConfigError(f"numerics.{key} must be an integer >= {lo}, got {numerics[key]!r}")
    if numerics["tol_im"] <= 0:
        raise ConfigError(f"numerics.tol_im must be a positive number, got {numerics['tol_im']!r}")
    task = dict(cfg.get("task", {}))
    _check(task, TASK_SCHEMAS[command], "task", REQUIRED.get(command, ()))
    for key, fine, want in (("overlay_nk", lambda v: v >= 1, "an integer >= 1"),
                            ("window", lambda v: v > 0, "a positive number"),
                            ("edge_threshold", lambda v: 0 < v < 1, "a number in (0, 1)")):
        if key in task and not fine(task[key]):
            raise ConfigError(f"task.{key} must be {want}, got {task[key]!r}")
    if "end_model" in task:
        task["end_model"] = {**model, **task["end_model"]}
    output = {"path": command.replace("-", "_"), **cfg.get("output", {})}
    _check(output, {"path": str}, "output")
    return {"command": command, "model": model, "numerics": numerics, "task": task,
            "output": output}


def _deep_update(base: dict, extra: dict) -> None:
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val


def _apply_set(cfg: dict, assignment: str):
    if "=" not in assignment:
        raise ConfigError(f"--set expects path=value, got {assignment!r}")
    path, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    keys = path.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {path!r} crosses a non-object value")
    node[keys[-1]] = value


def load_recipe(name: str) -> dict:
    ref = resources.files("floqbog").joinpath(f"recipes/{name}.json")
    if not ref.is_file():
        available = sorted(
            p.name[:-5]
            for p in resources.files("floqbog").joinpath("recipes").iterdir()
            if p.name.endswith(".json")
        )
        raise ConfigError(f"unknown recipe {name!r}; available: {', '.join(available)}")
    return json.loads(ref.read_text())


def resolve_config(args, command: str) -> dict:
    cfg: dict = {}
    if args.recipe:
        recipe = load_recipe(args.recipe)
        if recipe.get("command") != command:
            # reusing another command's parameter set: keep only the
            # command-agnostic blocks
            recipe = {k: v for k, v in recipe.items() if k in ("model", "numerics")}
        _deep_update(cfg, recipe)
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc.strerror}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        _check(loaded, CONFIG, "config")
        _deep_update(cfg, loaded)
    for assignment in args.set or []:
        _apply_set(cfg, assignment)
    if args.output:
        cfg.setdefault("output", {})["path"] = args.output
    return validate_config(cfg, command)


def _fmt(value) -> str:
    """CSV text of a non-float cell (floats take the bit-pattern path of ``write_outputs``)."""
    return "" if value is None else str(value)


def _table(columns: dict) -> np.recarray:
    """One-row-per-entry table whose field names are the CSV header."""
    return np.rec.fromarrays(list(columns.values()), names=list(columns))


def _axis(task: dict, key: str) -> np.ndarray:
    """Values of the grid axis block ``task[key]``."""
    lo, hi, n = task[key]["min"], task[key]["max"], task[key]["points"]
    if n < 2:
        raise ConfigError(f"task.{key} needs at least 2 points, got {n}")
    if not lo < hi:
        raise ConfigError(f"task.{key} range must satisfy min < max, got [{lo}, {hi}]")
    return np.linspace(lo, hi, n)


def _csv_text(strings: list, cache: dict, alone: bool) -> list:
    """Each string as ``csv.writer`` writes it as a field (QUOTE_MINIMAL), and
    each distinct one formatted once into ``cache``; ``alone`` when a row has a
    single field, where an empty one is written as ""."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for text in set(strings).difference(cache):
        buf.seek(0)
        buf.truncate()
        writer.writerow((text,) if alone else (text, ""))
        cache[text] = buf.getvalue()[:-1 if alone else -2]
    return [cache[text] for text in strings]


def write_outputs(cfg: dict, table: np.recarray, meta: dict):
    """Write ``table`` as ``<prefix>.csv`` and the config plus ``meta`` as
    ``<prefix>.meta.json`` in the existing directory of the prefix; returns both paths.

    The CSV is the bytes of ``csv.writer`` (lineterminator "\n"), written as
    one string per block of WRITE_ROWS rows joined with "," and "\n": each
    distinct bit pattern of a float column is formatted once by ``repr``,
    which never needs quoting, and each distinct string of the other
    columns is quoted once, as ``csv.writer`` quotes it (``_csv_text``).
    """
    prefix = Path(cfg["output"]["path"])
    csv_path = prefix.with_suffix(".csv")
    names = table.dtype.names
    floats = [n for n in names if table.dtype[n] == np.float64]
    alone = len(names) == 1
    cache: dict = {}
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(_csv_text(list(names), cache, alone)) + "\n")
        for start in range(0, len(table), WRITE_ROWS):
            block = table[start:start + WRITE_ROWS]
            columns = {n: _csv_text(list(map(_fmt, block[n].tolist())), cache, alone)
                       for n in names if n not in floats}
            # each distinct float bit pattern (-0.0 is not 0.0) is formatted once
            bits = np.array([block[n] for n in floats]).reshape(len(floats), len(block))
            unique, inverse = np.unique(bits.view(np.int64), return_inverse=True)
            text = np.array([repr(v) for v in unique.view(np.float64).tolist()], dtype=object)
            columns.update(zip(floats, text[inverse.reshape(bits.shape)].tolist()))
            fh.write("\n".join(map(",".join, zip(*(columns[n] for n in names)))) + "\n")
    sidecar = {"config": cfg, "version": __version__, "result": meta}
    meta_path = prefix.with_suffix(".meta.json")
    meta_path.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return csv_path, meta_path


def cmd_spectrum(params: ModelParams, cfg: dict):
    nk, steps = cfg["numerics"]["nk"], cfg["numerics"]["steps"]
    ks, (eps,), (cnorm,), _, error = kgrid_solve([params], nk, steps)
    check_cells(error)
    nb = eps.shape[1]
    columns = {"k": ks}
    for label, values in (("re_eps", eps.real), ("im_eps", eps.imag), ("cnorm", cnorm)):
        columns.update({f"{label}_{i + 1}": values[:, i] for i in range(nb)})
    meta: dict = {"max_im": float(eps.imag.max())}
    if cfg["task"].get("effective_overlay", True):
        alpha, beta = resolve_indices(params, cfg["task"].get("alpha"), cfg["task"].get("beta"))
        _, ep, em, verdict = effective_spectrum(params, nk, alpha, beta, cfg["numerics"]["tol_im"])
        columns.update(eff_re_plus=ep.real, eff_im_plus=ep.imag,
                       eff_re_minus=em.real, eff_im_minus=em.imag)
        meta.update(effective_verdict=verdict, alpha=alpha, beta=beta)
    return _table(columns), meta, f"spectrum: {nk} momenta, max Im eps = {meta['max_im']:.3e}"


def cmd_stability_grid(params: ModelParams, cfg: dict):
    task = cfg["task"]
    if "static_field" in task:
        hx0, hy0 = (float(v) for v in task["static_field"])
    elif params.nu0p == 0.0:
        hx0, hy0 = -params.nu0, 0.0
    else:
        raise ConfigError(
            "task.static_field is required when nu0p != 0 (static field is k-dependent)"
        )
    table = stability_grid(
        (hx0, hy0), params.omega, params.mu, params.g, _axis(task, "hx1"), _axis(task, "hy1"),
        steps=cfg["numerics"]["steps"], tol_im=cfg["numerics"]["tol_im"],
    )
    unstable = int((table.verdict == "Unstable").sum())
    meta = {"static_field": [hx0, hy0], "unstable_cells": unstable, "total_cells": len(table)}
    return table, meta, f"stability-grid: {unstable}/{len(table)} unstable cells"


def cmd_phase_diagram(params: ModelParams, cfg: dict):
    task = cfg["task"]
    axes = [(task[key]["name"], _axis(task, key)) for key in ("axis1", "axis2")]
    table = phase_diagram(params, *axes, **cfg["numerics"])
    if task.get("overlay"):
        overlay = effective_phase_overlay(params, *axes, nk=task.get("overlay_nk", 64),
                                          tol_im=cfg["numerics"]["tol_im"])
        columns = {name: table[name] for name in table.dtype.names}
        table = _table({**columns, "eff_verdict": overlay.verdict, "eff_max_im": overlay.max_im})
    unstable = int((table.verdict == "Unstable").sum())
    meta = {"unstable_cells": unstable, "total_cells": len(table)}
    return table, meta, f"phase-diagram: {unstable}/{len(table)} unstable cells"


def cmd_winding(params: ModelParams, cfg: dict):
    w = winding_undriven(params, cfg["numerics"]["nk"])
    return _table({"w": [w], "nk": [cfg["numerics"]["nk"]]}), {"w": w}, f"winding: W = {w}"


def cmd_ws(params: ModelParams, cfg: dict):
    result = symplectic_winding(params, **cfg["numerics"])
    table = _table({"ws": [result.ws], "raw": [result.raw], "residual": [result.residual],
                    "bandset_size": [result.bandset_size], "nk": [cfg["numerics"]["nk"]]})
    return (table, {"ws": result.ws, "residual": result.residual},
            f"ws: W^S = {result.ws} (residual {result.residual:.2e})")


def cmd_chain(params: ModelParams, cfg: dict):
    task = cfg["task"]
    spec = chain_spectrum(params, task.get("cells", 20), cfg["numerics"]["steps"],
                          cfg["numerics"]["nk"])
    if "fraction" in task:
        spec = replace(spec, edge_weights=edge_weight(spec.states, task["fraction"]))
    idx, (left, right) = detect_midgap(spec, task.get("window"), task.get("edge_threshold", 0.5))
    index = np.arange(len(spec.eps))
    table = _table({"index": index, "re_eps": spec.eps.real, "im_eps": spec.eps.imag,
                    "cnorm": spec.cnorm, "edge_weight": spec.edge_weights,
                    "midgap": np.isin(index, idx).astype(int)})
    max_midgap_im = float(spec.eps.imag[list(idx)].max()) if idx else None
    meta = {"midgap": list(idx), "left": left, "right": right, "bulk_gap": spec.bulk_gap,
            "max_midgap_im": max_midgap_im}
    return table, meta, f"chain: {len(idx)} midgap states ({left} left, {right} right)"


def cmd_evolve(params: ModelParams, cfg: dict):
    task = cfg["task"]
    trace = evolve_vacuum(params, task.get("cells", 20), task.get("t_max", 25.0),
                          task.get("samples", 101), cfg["numerics"]["steps"])
    occ = trace.occupations
    table = _table({"t": trace.times, **{f"n_{j + 1}": occ[:, j] for j in range(occ.shape[1])},
                    "sympl_residual": trace.sympl_residual})
    meta = {"truncated": trace.truncated, "final_n1": float(occ[-1, 0]),
            "growth_rate": growth_rate_fit(trace)}
    return table, meta, (f"evolve: {len(trace.times)} samples, n_1(end) = {occ[-1, 0]:.3e}"
                         f"{' (truncated)' if trace.truncated else ''}")


def cmd_scan_path(params: ModelParams, cfg: dict):
    end = ModelParams(**cfg["task"]["end_model"])
    table = scan_path(params, end, cfg["task"].get("points", 17), **cfg["numerics"])
    n_unstable = int((~table.stable).sum())
    return (table, {"unstable_points": n_unstable},
            f"scan-path: {n_unstable}/{len(table)} unstable points")


COMMANDS = {
    "spectrum": cmd_spectrum,
    "stability-grid": cmd_stability_grid,
    "phase-diagram": cmd_phase_diagram,
    "winding": cmd_winding,
    "ws": cmd_ws,
    "chain": cmd_chain,
    "evolve": cmd_evolve,
    "scan-path": cmd_scan_path,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floqbog",
        description="Floquet-Bogoliubov spectra, stability, and topology of the driven chain",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("command", choices=COMMANDS, help="the computation to run")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--recipe", help="name of a shipped recipe (e.g. fig1b)")
    parser.add_argument("--set", action="append", metavar="PATH=VALUE",
                        help="override a config entry, e.g. --set model.mu=-4.9")
    parser.add_argument("--output", help="output path prefix (overrides output.path)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = resolve_config(args, args.command)
    parent = Path(cfg["output"]["path"]).parent
    try:
        parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {parent}: {exc.strerror}") from None
    table, meta, summary = COMMANDS[args.command](ModelParams(**cfg["model"]), cfg)
    csv_path, _ = write_outputs(cfg, table, meta)
    print(f"{summary} -> {csv_path}")
    return 0


def entry(argv=None) -> int:
    """Run ``main`` (which raises) and map its failures to exit codes 2-4: any
    ValueError but LinAlgError is bad input, from the CLI or a library check."""
    try:
        return main(argv)
    except (np.linalg.LinAlgError, IntegrationError, TrackingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InvariantUndefinedError as exc:
        print(f"invariant undefined: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
