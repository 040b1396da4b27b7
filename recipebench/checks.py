"""Physics checks on the CSV and ``.meta.json`` outputs of a workload.

Everything here reads the files the CLI wrote; nothing is timed.  The
tolerances are the ones the test suite already asserts (named beside each
constant), so a speed-up that moves a verdict, a W^S value or an
acceptance number fails the benchmark run instead of improving it.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import PHASE_AXES

TOL_IM = 1e-8  # numerics.tol_im default of the CLI, the Stable/Unstable line
STABLE_MAX_IM = 1e-6  # acceptance 1 / test_cli: fig1b max Im eps
UNSTABLE_MIN_IM = 1e-3  # acceptance 2: fig1c max Im eps
WS_RESIDUAL = 1e-6  # issue contract for `ws --recipe fig1b`
MIDGAP_MIN_IM = 1e-4  # test_dynamics: every midgap mode grows
GROWTH_REL = 0.10  # acceptance 5: site-1 rate vs 2 max Im eps
SYMPL_MAX = 1e-6  # test_dynamics: evolve pseudo-unitarity residual
RESONANCE = 1e-6  # resonance window as a fraction of omega (floquet default)
#: the oracle decides a cell only when its |Im eps| is this factor clear of TOL_IM
ORACLE_MARGIN = 100.0
#: oracle cells sampled per verdict class on the drive plane
ORACLE_CELLS = 8
#: scan/phase error text that is a physics outcome, not a failure
UNDEFINED = "not strongly stable"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_meta(path: Path) -> dict:
    return json.loads(path.read_text())


def _ws(text: str):
    return int(text) if text else None


def op_outcome(command: str, prefix: Path) -> tuple[int, int]:
    """(operations, failed operations) inside one successful invocation.

    Grid cells and scan points are operations of their own.  A cell or
    point whose error is anything but "W^S undefined" is a failure.
    """
    if command not in ("stability-grid", "scan-path", "phase-diagram"):
        return 0, 0
    rows = read_csv(prefix.with_suffix(".csv"))
    bad = sum(bool(r["error"]) and not r["error"].startswith(UNDEFINED) for r in rows)
    return len(rows), bad


def _classify_rows(rows: list[dict], omega: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-k (unstable, marginal) flags and |Im eps| from a spectrum CSV."""
    nb = sum(key.startswith("re_eps_") for key in rows[0])
    re = np.array([[float(r[f"re_eps_{i + 1}"]) for i in range(nb)] for r in rows])
    im = np.array([[float(r[f"im_eps_{i + 1}"]) for i in range(nb)] for r in rows])
    cn = np.array([[int(r[f"cnorm_{i + 1}"]) for i in range(nb)] for r in rows])
    unstable = (np.abs(im) > TOL_IM).any(axis=1)
    dist = np.abs(re[:, :, None] - re[:, None, :]) % omega
    dist = np.minimum(dist, omega - dist)
    opposite = cn[:, :, None] * cn[:, None, :] == -1
    marginal = (opposite & (dist < RESONANCE * omega)).any(axis=(1, 2)) | (cn == 0).any(axis=1)
    return unstable, marginal, np.abs(im)


def _separated(points: list[tuple[bool, int | None]]) -> bool:
    """Any two stable points with different W^S have an unstable point between."""
    last_ws, unstable_since = None, False
    for stable, ws in points:
        if not stable:
            unstable_since = True
        elif ws is not None:
            if last_ws is not None and ws != last_ws and not unstable_since:
                return False
            last_ws, unstable_since = ws, False
    return True


def _load_oracle(root: Path):
    spec = importlib.util.spec_from_file_location("floqbog_test_helpers", root / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dop853_monodromy


def _field(hx: float, hy: float) -> np.ndarray:
    block = np.array([[0.0, hx - 1j * hy], [hx + 1j * hy, 0.0]])
    return np.kron(np.eye(2), block)


def drive_plane(out: Path, root: Path, seed: int) -> tuple[list[Check], dict]:
    meta = read_meta(out / "fig2b.meta.json")
    rows = read_csv(out / "fig2b.csv")
    model, task = meta["config"]["model"], meta["config"]["task"]
    n1, n2 = task["hx1"]["points"], task["hy1"]["points"]
    stable = np.array([r["verdict"] == "Stable" for r in rows]).reshape(n2, n1)
    checks = [Check(
        "hy1 mirror symmetry",
        bool((stable == stable[::-1]).all()),
        f"{int((stable != stable[::-1]).sum())} mismatched cells of {n1 * n2}",
    )]

    omega, mu, g = model["omega"], model["mu"], model["g"]
    hx0, hy0 = meta["result"]["static_field"]
    h0 = _field(hx0, hy0) - mu * np.eye(4) + g * np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
    dop853 = _load_oracle(root)
    rng = np.random.default_rng([seed, 7])
    flat = stable.ravel()
    agree = compared = 0
    for want in (True, False):
        taken = 0
        for i in rng.permutation(np.flatnonzero(flat == want)):
            if taken == ORACLE_CELLS:
                break
            r = rows[int(i)]
            u = dop853(h0, _field(float(r["hx1"]), float(r["hy1"])), omega)
            im = omega / (2.0 * math.pi) * np.abs(np.log(np.abs(np.linalg.eigvals(u)))).max()
            if TOL_IM / ORACLE_MARGIN < im < TOL_IM * ORACLE_MARGIN:
                continue
            taken += 1
            compared += 1
            agree += (im <= TOL_IM) == want
    checks.append(Check(
        "verdicts match DOP853 oracle",
        compared > 0 and agree == compared,
        f"{agree}/{compared} sampled cells agree",
    ))

    checks.append(Check("plane has stable and unstable cells", 0 < flat.sum() < flat.size,
                        f"{int(flat.sum())} of {flat.size} cells stable"))
    floor = max(abs(float(r["max_im"])) for r in rows if r["verdict"] == "Stable")
    return checks, {"im_floor_log10": math.log10(floor)}


def bulk_topology(out: Path, root: Path, seed: int) -> tuple[list[Check], dict]:
    checks = []
    meta_b = read_meta(out / "fig1b.meta.json")
    unstable, marginal, im = _classify_rows(read_csv(out / "fig1b.csv"),
                                            meta_b["config"]["model"]["omega"])
    checks.append(Check(
        "fig1b strongly stable",
        not unstable.any() and not marginal.any() and meta_b["result"]["max_im"] < STABLE_MAX_IM,
        f"{int(unstable.sum())} unstable / {int(marginal.sum())} marginal k, "
        f"max Im eps {meta_b['result']['max_im']:.2e}",
    ))
    floor = float(im[~unstable].max())

    meta_c = read_meta(out / "fig1c.meta.json")
    unstable_c, _, _ = _classify_rows(read_csv(out / "fig1c.csv"),
                                      meta_c["config"]["model"]["omega"])
    checks.append(Check(
        "fig1c unstable",
        unstable_c.any() and meta_c["result"]["max_im"] > UNSTABLE_MIN_IM,
        f"max Im eps {meta_c['result']['max_im']:.2e}",
    ))

    ws = read_meta(out / "ws.meta.json")["result"]
    checks.append(Check(
        "ws = 2",
        ws["ws"] == 2 and ws["residual"] < WS_RESIDUAL,
        f"W^S {ws['ws']}, residual {ws['residual']:.1e}",
    ))

    scan = [(r["stable"] == "True", _ws(r["ws"])) for r in read_csv(out / "scan.csv")]
    checks.append(Check(
        "scan endpoints W^S 2 -> 0",
        scan[0] == (True, 2) and scan[-1] == (True, 0),
        f"start {scan[0]}, end {scan[-1]}",
    ))
    checks.append(Check("scan crosses instability", _separated(scan),
                        "".join("U" if not s else str(w) if w is not None else "?"
                                for s, w in scan)))

    phase = read_csv(out / "phase.csv")
    ax1, ax2 = (axis["name"] for axis in PHASE_AXES)
    by_row: dict[float, list] = {}
    for r in phase:
        by_row.setdefault(float(r[ax2]), []).append(
            (float(r[ax1]), r["verdict"] == "Stable", _ws(r["ws"])))
    rows_ok = [_separated([(s, w) for _, s, w in sorted(row)]) for row in by_row.values()]
    checks.append(Check("phase rows cross instability", all(rows_ok),
                        f"{sum(rows_ok)}/{len(rows_ok)} rows"))
    return checks, {"im_floor_log10": math.log10(floor)}


def open_chain(out: Path, root: Path, seed: int) -> tuple[list[Check], dict]:
    checks = []
    meta = read_meta(out / "fig3a.meta.json")["result"]
    chain = read_csv(out / "fig3a.csv")
    mid_im = [float(r["im_eps"]) for r in chain if r["midgap"] == "1"]
    checks.append(Check(
        "four growing midgap modes, two per edge",
        len(meta["midgap"]) == 4 and (meta["left"], meta["right"]) == (2, 2)
        and len(mid_im) == 4 and min(abs(x) for x in mid_im) > MIDGAP_MIN_IM,
        f"{len(meta['midgap'])} midgap ({meta['left']} left, {meta['right']} right), "
        f"|Im eps| >= {min((abs(x) for x in mid_im), default=0.0):.2e}",
    ))

    evo_meta = read_meta(out / "fig3b.meta.json")["result"]
    checks.append(Check("fig3b not truncated", not evo_meta["truncated"], ""))
    evo = read_csv(out / "fig3b.csv")
    times = np.array([float(r["t"]) for r in evo])
    n1 = np.array([float(r["n_1"]) for r in evo])
    resid = max(float(r["sympl_residual"]) for r in evo)
    mask = (times >= 0.4 * times[-1]) & (n1 > 1e-6)
    target = 2.0 * max(mid_im)
    if mask.sum() >= 8:
        rate = float(np.polyfit(times[mask], np.log(n1[mask]), 1)[0])
        rel = abs(rate - target) / target
    else:
        rate, rel = math.nan, math.inf
    checks.append(Check("site-1 growth = 2 max Im eps", rel < GROWTH_REL,
                        f"fit {rate:.4f} vs {target:.4f} ({100 * rel:.2f}%)"))
    checks.append(Check("evolve pseudo-unitarity", resid < SYMPL_MAX, f"residual {resid:.1e}"))
    return checks, {"sympl_residual_log10": math.log10(resid)}


CHECKS = {
    "drive-plane": drive_plane,
    "bulk-topology": bulk_topology,
    "open-chain": open_chain,
}


def accuracy_digits(values: dict) -> float:
    """-log10 of the noise indicator: the Im eps floor, else the pseudo-unitarity residual."""
    return -values.get("im_floor_log10", values.get("sympl_residual_log10"))
