"""Command-line front end with declarative JSON configs and flat CSV output.

Each subcommand maps to one figure-level computation.  Configuration comes
from an optional JSON file, an optional shipped recipe, and repeatable
--set dotted-path overrides, merged in that order (flags win).  Outputs
are a CSV table plus a JSON metadata sidecar carrying the fully resolved
configuration, so every file can be regenerated from its sidecar alone.
Exit codes: 0 success, 2 invalid input, 3 numerical failure,
4 invariant undefined.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .effective import choose_indices, effective_spectrum
from .dynamics import chain_spectrum, detect_midgap, edge_weight, evolve_vacuum
from .floquet import DEFAULT_STEPS, IntegrationError, TOL_IM, kgrid_solve
from .model import ModelParams
from .sweep import GridSpec, effective_phase_overlay, phase_diagram, stability_grid
from .topology import (
    InvariantUndefinedError,
    TrackingError,
    scan_path,
    symplectic_winding,
    winding_undriven,
)


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


NUMERICS_DEFAULTS = {"steps": DEFAULT_STEPS, "nk": 256, "tol_im": TOL_IM}

# A schema maps each key to its kind: int, float (an int is accepted, a bool
# never is), bool, str, dict (any object), a tuple of kinds (a list of that length)
# or a nested schema, whose keys are all required except in an end model.
MODEL = {f.name: float for f in fields(ModelParams)}
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
    return isinstance(value, (int, float) if kind is float else kind)


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
    model = {"g": 1.0, **cfg.get("model", {})}
    _check(model, MODEL, "model", MODEL)
    numerics = {**NUMERICS_DEFAULTS, **cfg.get("numerics", {})}
    _check(numerics, NUMERICS, "numerics")
    for key, lo in (("steps", 64), ("nk", 64)):
        if numerics[key] < lo:
            raise ConfigError(f"numerics.{key} must be an integer >= {lo}, got {numerics[key]!r}")
    if numerics["tol_im"] <= 0:
        raise ConfigError(f"numerics.tol_im must be a positive number, got {numerics['tol_im']!r}")
    task = dict(cfg.get("task", {}))
    _check(task, TASK_SCHEMAS[command], "task", REQUIRED.get(command, ()))
    if task.get("overlay_nk", 1) < 1:
        raise ConfigError(f"task.overlay_nk must be an integer >= 1, got {task['overlay_nk']!r}")
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
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_outputs(cfg: dict, header: list[str], rows: list[list], extra_meta: dict | None = None):
    prefix = Path(cfg["output"]["path"])
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_suffix(".csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    meta = {"config": cfg, "version": __version__}
    if extra_meta:
        meta["result"] = extra_meta
    meta_path = prefix.with_suffix(".meta.json")
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return csv_path, meta_path


def cmd_spectrum(cfg: dict) -> int:
    params = ModelParams(**cfg["model"])
    nk, steps = cfg["numerics"]["nk"], cfg["numerics"]["steps"]
    ks, eps, cnorm, _ = kgrid_solve(params, nk, steps)
    nb = eps.shape[1]
    header = (
        ["k"]
        + [f"re_eps_{i + 1}" for i in range(nb)]
        + [f"im_eps_{i + 1}" for i in range(nb)]
        + [f"cnorm_{i + 1}" for i in range(nb)]
    )
    columns = [ks] + [eps.real[:, i] for i in range(nb)] + [eps.imag[:, i] for i in range(nb)]
    columns += [cnorm[:, i] for i in range(nb)]
    meta: dict = {"max_im": float(eps.imag.max())}
    if cfg["task"].get("effective_overlay", True):
        alpha = cfg["task"].get("alpha")
        beta = cfg["task"].get("beta")
        _, ep, em, verdict = effective_spectrum(params, nk, alpha, beta)
        header += ["eff_re_plus", "eff_im_plus", "eff_re_minus", "eff_im_minus"]
        columns += [ep.real, ep.imag, em.real, em.imag]
        chosen = choose_indices(params)
        meta["effective_verdict"] = verdict
        meta["alpha"] = alpha if alpha is not None else chosen[0]
        meta["beta"] = beta if beta is not None else chosen[1]
    rows = [[col[j] for col in columns] for j in range(nk)]
    paths = write_outputs(cfg, header, rows, meta)
    print(f"spectrum: {nk} momenta, max Im eps = {meta['max_im']:.3e} -> {paths[0]}")
    return 0


def cmd_stability_grid(cfg: dict) -> int:
    m = cfg["model"]
    task = cfg["task"]
    if "static_field" in task:
        hx0, hy0 = (float(v) for v in task["static_field"])
    elif m["nu0p"] == 0.0:
        hx0, hy0 = -m["nu0"], 0.0
    else:
        raise ConfigError(
            "task.static_field is required when nu0p != 0 (static field is k-dependent)"
        )
    grid = GridSpec(
        "hx1", (task["hx1"]["min"], task["hx1"]["max"]), task["hx1"]["points"],
        "hy1", (task["hy1"]["min"], task["hy1"]["max"]), task["hy1"]["points"],
    )
    cells = stability_grid(
        (hx0, hy0), m["omega"], m["mu"], m["g"], grid,
        steps=cfg["numerics"]["steps"], tol_im=cfg["numerics"]["tol_im"],
    )
    rows = [[c.x, c.y, c.verdict, c.max_im, c.error] for c in cells]
    unstable = sum(c.verdict == "Unstable" for c in cells)
    paths = write_outputs(
        cfg, ["hx1", "hy1", "verdict", "max_im", "error"], rows,
        {"static_field": [hx0, hy0], "unstable_cells": unstable, "total_cells": len(cells)},
    )
    print(f"stability-grid: {unstable}/{len(cells)} unstable cells -> {paths[0]}")
    return 0


def cmd_phase_diagram(cfg: dict) -> int:
    m = cfg["model"]
    task = cfg["task"]
    ax1, ax2 = task["axis1"], task["axis2"]
    fixed = {k: v for k, v in m.items() if k not in (ax1["name"], ax2["name"])}
    grid = GridSpec(
        ax1["name"], (ax1["min"], ax1["max"]), ax1["points"],
        ax2["name"], (ax2["min"], ax2["max"]), ax2["points"],
        fixed=fixed,
    )
    cells = phase_diagram(grid, nk=cfg["numerics"]["nk"], steps=cfg["numerics"]["steps"])
    header = [ax1["name"], ax2["name"], "verdict", "max_im", "ws", "error"]
    rows = [[c.x, c.y, c.verdict, c.max_im, c.ws, c.error] for c in cells]
    if task.get("overlay"):
        overlay = effective_phase_overlay(grid, nk=task.get("overlay_nk", 64))
        header += ["eff_verdict", "eff_max_im"]
        for row, oc in zip(rows, overlay):
            row += [oc.verdict, oc.max_im]
    unstable = sum(c.verdict == "Unstable" for c in cells)
    paths = write_outputs(cfg, header, rows,
                          {"unstable_cells": unstable, "total_cells": len(cells)})
    print(f"phase-diagram: {unstable}/{len(cells)} unstable cells -> {paths[0]}")
    return 0


def cmd_winding(cfg: dict) -> int:
    params = ModelParams(**cfg["model"])
    w = winding_undriven(params, cfg["numerics"]["nk"])
    paths = write_outputs(cfg, ["w", "nk"], [[w, cfg["numerics"]["nk"]]], {"w": w})
    print(f"winding: W = {w} -> {paths[0]}")
    return 0


def cmd_ws(cfg: dict) -> int:
    params = ModelParams(**cfg["model"])
    result = symplectic_winding(params, cfg["numerics"]["nk"], cfg["numerics"]["steps"])
    paths = write_outputs(
        cfg,
        ["ws", "raw", "residual", "bandset_size", "nk"],
        [[result.ws, result.raw, result.residual, result.bandset_size, cfg["numerics"]["nk"]]],
        {"ws": result.ws, "residual": result.residual},
    )
    print(f"ws: W^S = {result.ws} (residual {result.residual:.2e}) -> {paths[0]}")
    return 0


def cmd_chain(cfg: dict) -> int:
    params = ModelParams(**cfg["model"])
    task = cfg["task"]
    spec = chain_spectrum(params, task.get("cells", 20), cfg["numerics"]["steps"])
    if "fraction" in task:
        weights = np.array([edge_weight(state, task["fraction"]) for state in spec.states])
        spec = replace(spec, edge_weights=weights)
    idx, (left, right) = detect_midgap(
        spec, task.get("window"), task.get("edge_threshold", 0.5)
    )
    flagged = set(idx)
    rows = [
        [i, e.real, e.imag, c, spec.edge_weights[i], int(i in flagged)]
        for i, (e, c) in enumerate(zip(spec.eps, spec.cnorm))
    ]
    paths = write_outputs(
        cfg,
        ["index", "re_eps", "im_eps", "cnorm", "edge_weight", "midgap"],
        rows,
        {"midgap": list(idx), "left": left, "right": right, "bulk_gap": spec.bulk_gap},
    )
    print(f"chain: {len(idx)} midgap states ({left} left, {right} right) -> {paths[0]}")
    return 0


def cmd_evolve(cfg: dict) -> int:
    params = ModelParams(**cfg["model"])
    task = cfg["task"]
    trace = evolve_vacuum(
        params,
        task.get("cells", 20),
        task.get("t_max", 25.0),
        task.get("samples", 101),
        cfg["numerics"]["steps"],
    )
    nsites = trace.occupations.shape[1]
    header = ["t"] + [f"n_{j + 1}" for j in range(nsites)] + ["sympl_residual"]
    rows = [
        [trace.times[s], *trace.occupations[s], trace.sympl_residual[s]]
        for s in range(len(trace.times))
    ]
    paths = write_outputs(
        cfg, header, rows,
        {"truncated": trace.truncated, "final_n1": float(trace.occupations[-1, 0])},
    )
    print(
        f"evolve: {len(trace.times)} samples, n_1(end) = {trace.occupations[-1, 0]:.3e}"
        f"{' (truncated)' if trace.truncated else ''} -> {paths[0]}"
    )
    return 0


def cmd_scan_path(cfg: dict) -> int:
    start = ModelParams(**cfg["model"])
    end = ModelParams(**cfg["task"]["end_model"])
    points = scan_path(
        start, end, cfg["task"].get("points", 17),
        cfg["numerics"]["nk"], cfg["numerics"]["steps"],
    )
    model_keys = [f.name for f in fields(ModelParams)]
    header = ["fraction", *model_keys, "stable", "max_im", "ws", "error"]
    rows = [
        [
            pt.fraction,
            *[getattr(pt.params, f) for f in model_keys],
            pt.stable,
            pt.max_im,
            pt.ws,
            pt.error,
        ]
        for pt in points
    ]
    n_unstable = sum(not pt.stable for pt in points)
    paths = write_outputs(cfg, header, rows, {"unstable_points": n_unstable})
    print(f"scan-path: {n_unstable}/{len(points)} unstable points -> {paths[0]}")
    return 0


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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} computation")
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--recipe", help="name of a shipped recipe (e.g. fig1b)")
        p.add_argument(
            "--set",
            action="append",
            metavar="PATH=VALUE",
            help="override a config entry, e.g. --set model.mu=-4.9",
        )
        p.add_argument("--output", help="output path prefix (overrides output.path)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](resolve_config(args, args.command))


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
