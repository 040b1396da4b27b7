#!/usr/bin/env python3
"""Recipe benchmark for floqbog: time to a physics-checked result.

Runs the shipped CLI recipes in-process through ``floqbog.cli.main``, one
fresh process per workload run.  Within a run the workload's recipes execute
one after another, and passes repeat while the next one is expected to end
less than half a pass past ``--seconds``: a closed loop with one caller and
the BLAS thread count fixed.  After the
timed passes the CSV and ``.meta.json`` outputs are checked against the
paper's physics (``checks.py``).  With ``--trace 1`` untraced and traced
passes alternate, and the traced ones report per-layer self time and work
counts (``tracer.py``).

Usage (from the repository root):

    python3 recipebench/run.py --workload drive-plane --seed 0 --seconds 36 --trace 0
    python3 recipebench/run.py --workload all --seed 0

``all`` runs every workload in its own process and prints every metric by
name with its unit.  The last stdout line of a single-workload run is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with the environment and the sizes, goes to
``recipebench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# fixed before numpy is first imported (by the sibling modules, inside
# main); recorded in every result file
BLAS_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: set-up is measured this many times per run and reported as the median
SETUP_PROBES = 3
#: least share of each recipe's time spent timing the host-speed reference
#: after it; single chunks spread ~20 %, so wall_ref needs a few dozen a run
REF_SHARE = 0.2


def fail(message: str, code: int = 2):
    print(f"recipebench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "floqbog").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import floqbog
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    commit = None
    if (ROOT / ".git").exists():  # a checkout nested in another repository has no commit of its own
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "floqbog": floqbog.__version__,
        "commit": commit,
        "src_sha256": src_digest(),
    }


def measure_setup(ops) -> list[float]:
    argvs = json.dumps([list(op.argv) for op in ops])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), argvs],
                              capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr}", 3)
    return times


def run_pass(cli, ops, out_dir: Path, host_ref: list[float] | None = None):
    """One pass over the workload's recipes; returns (wall, per-op records).

    With ``host_ref`` given, host-speed reference chunks are timed after
    every recipe, for at least ``REF_SHARE`` of its time, and appended to it;
    the pass time leaves the chunks out.
    """
    from reference import chunk_seconds

    records = []
    for op in ops:
        spent = 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([*op.argv, "--output", str(out_dir / op.name)])
            error = None if rc == 0 else f"exit code {rc}"
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=3)
        records.append({"op": op.name, "seconds": time.perf_counter() - t0, "error": error})
        while host_ref is not None:
            host_ref.append(chunk_seconds())
            spent += host_ref[-1]
            if spent >= REF_SHARE * records[-1]["seconds"]:
                break
    return sum(rec["seconds"] for rec in records), records


def digests(ops, out_dir: Path) -> dict[str, str | None]:
    out = {}
    for op in ops:
        path = (out_dir / op.name).with_suffix(".csv")
        out[op.name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return out


class Ledger:
    """Attempted and failed operations of a run, with the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def note(self, attempted: int, failed: int, reason: str):
        self.attempted += attempted
        self.failed += int(failed)
        if failed:
            self.reasons.append(reason)

    def record_pass(self, checks, ops, records, out_dir, digest, reference, label):
        for op, rec in zip(ops, records):
            self.note(1, rec["error"] is not None, f"{label} {op.name}: {rec['error']}")
            if rec["error"] is not None:
                continue
            n, bad = checks.op_outcome(op.argv[0], out_dir / op.name)
            self.note(n, bad, f"{label} {op.name}: {bad} cells/points with errors")
            if reference is not None and digest[op.name] != reference[op.name]:
                self.note(0, 1, f"{label} {op.name}: CSV differs from the first pass")


def resolved(ops, out_dir: Path) -> tuple[dict, dict]:
    """Sizes (everything but steps) and step counts, read back from each sidecar."""
    sizes, steps = {}, {}
    for op in ops:
        meta = out_dir / f"{op.name}.meta.json"
        if not meta.exists():
            continue
        cfg = json.loads(meta.read_text())["config"]
        task = {k: v for k, v in cfg["task"].items() if k != "end_model"}
        numerics = {k: v for k, v in cfg["numerics"].items() if k != "steps"}
        sizes[op.name] = {"command": cfg["command"], "numerics": numerics, "task": task}
        steps[op.name] = cfg["numerics"]["steps"]
    return sizes, steps


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def run_workload(args, spec: dict) -> int:
    import checks
    from reference import chunk_seconds
    from tracer import PROBES, Tracer
    from workloads import build_ops, jitter

    known = {p.role for p in PROBES} | {"trace"}
    for m in spec["per_layer"]:
        if m["name"].rsplit(".", 1)[0] not in known:
            fail(f"per-layer metric {m['name']} names no probed role")
    if not (SRC / "floqbog" / "cli.py").is_file():
        fail(f"no floqbog sources under {SRC}")
    sys.path.insert(0, str(SRC))
    ops = build_ops(args.workload, args.seed)
    setup = [] if args.trace else measure_setup(ops)

    from floqbog import cli

    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = OUT / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    ledger = Ledger()
    walls, traced_walls, op_times, layer_runs = [], [], {}, []
    chunk_seconds()  # warm-up, untimed
    host_ref = [chunk_seconds()]
    reference = spans = absent = None
    rounds = []
    start = time.perf_counter()
    # stop at the round count whose expected end lies nearest to --seconds, so
    # that every workload is timed over about --seconds whatever its pass length
    while not rounds or time.perf_counter() - start + statistics.median(rounds) / 2 <= args.seconds:
        round_start = time.perf_counter()
        wall, records = run_pass(cli, ops, out_dir, host_ref)
        walls.append(wall)
        digest = digests(ops, out_dir)
        ledger.record_pass(checks, ops, records, out_dir, digest, reference, f"pass {len(walls)}")
        reference = reference or digest
        for rec in records:
            op_times.setdefault(rec["op"], []).append(rec["seconds"])
        if args.trace:
            with Tracer() as tracer:
                wall, records = run_pass(cli, ops, out_dir)
            traced_walls.append(wall)
            digest = digests(ops, out_dir)
            ledger.record_pass(checks, ops, records, out_dir, digest, reference,
                               f"traced pass {len(traced_walls)}")
            layer_runs.append(tracer.layers(wall))
            spans = spans or tracer.dump()
            absent = tracer.absent
        rounds.append(time.perf_counter() - round_start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        results, values = checks.CHECKS[args.workload](out_dir, ROOT, args.seed)
    except Exception:
        results, values = [checks.Check("checks ran", False, traceback.format_exc(limit=3))], {}
    for c in results:
        ledger.note(1, not c.ok, f"check {c.name}: {c.detail}")

    wall_s = statistics.median(walls)
    reference_s = statistics.median(host_ref)
    end_to_end = {
        "wall_ref": wall_s / reference_s,
        "wall_s": wall_s,
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": peak_rss_mb,
        "accuracy_digits": checks.accuracy_digits(values) if values else None,
    }
    if args.trace:
        layers = {}
        for key in layer_runs[0]:
            series = [run[key] for run in layer_runs]
            timed = key.endswith("_s") or key.endswith(".s")
            layers[key] = statistics.median(series) if timed else series[0]
            if not timed and len(set(series)) > 1:
                ledger.note(0, 1, f"work count {key} differs between traced passes: {series}")
        layers["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        (OUT / f"{tag}.spans.json").write_text(json.dumps(spans) + "\n")
    else:
        layers = None
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    correct = ledger.failed == 0
    sizes, steps = resolved(ops, out_dir)
    details = {
        "wall_s": {"median": wall_s, "n": len(walls), "tail": tail(walls), "samples": walls},
        "reference_s": {"median": reference_s, "n": len(host_ref), "samples": host_ref},
        "failed_frac": ledger.failed / ledger.attempted,
        **values,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "jitter": jitter(args.workload, args.seed),
        "environment": env,
        "sizes": sizes,
        "steps": steps,
        "samples": {"passes": len(walls), "traced_passes": len(traced_walls),
                    "setup_probes": len(setup)},
        "setup_s": setup,
        "op_seconds": {k: statistics.median(v) for k, v in op_times.items()},
        "traced_walls": traced_walls,
        "end_to_end": end_to_end,
        "details": details,
        "layers": layers,
        "absent": absent,
        "checks": [{"name": c.name, "ok": bool(c.ok), "detail": c.detail} for c in results],
        "failures": ledger.reasons,
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for c in results:
        print(f"check {'PASS' if c.ok else 'FAIL'}  {c.name}: {c.detail}")
    for reason in ledger.reasons:
        print(f"failure  {reason.splitlines()[-1]}")
    if absent:
        print(f"absent probes: {', '.join(absent)}")
    print(f"wall_s n={len(walls)} tail={tail(walls)}  failed_frac={details['failed_frac']:.4g}  "
          + "  ".join(f"{k}={v:.4g}" for k, v in values.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own fresh process; one table of every metric."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout + done.stderr, file=sys.stderr)
            fail(f"workload {workload} exited with {done.returncode}", 1)
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[f"{workload}.{name}"] = m
            print(f"{workload:14s} {name:40s} {m['value']:>14.6g} {m['unit']}")
        print(f"{workload:14s} {'failed_frac':40s} {result['failed'] / result['attempted']:>14.6g} "
              f"ratio   correct={result['correct']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
