"""The tooling scripts under ``scripts/`` run: their help, and same-tree comparisons."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(script: Path, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script), *args], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_help(script):
    done = run_script(script, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_compare_outputs_same_tree():
    """One invocation, two alternating runs per side: identical outputs and
    each run's peak memory and wall time."""
    done = run_script(ROOT / "scripts" / "compare_outputs.py", "--src", "src", "src",
                      "--runs", "2", "--", "winding", "--recipe", "fig1b")
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    report = json.loads(line)
    assert report["within_tolerance"] is True
    assert report["csv"] and set(report["csv"].values()) == {"identical"}
    assert report["sidecar"] == {}
    for side in report["sides"]:
        assert len(side["peak_mb"]) == len(side["wall_s"]) == 2
        assert all(mb > 0 for mb in side["peak_mb"]) and all(s > 0 for s in side["wall_s"])
        assert min(side["peak_mb"]) <= side["median_peak_mb"] <= max(side["peak_mb"])


def test_layer_time_same_tree():
    """Both sides on one tree, one run of one repeat: every row, the W^S and
    overlay rows included, gives bitwise the same result on both sides, and its
    quartile distance is null below 4 runs."""
    done = run_script(ROOT / "scripts" / "layer_time.py", "--src", "src", "src",
                      "--runs", "1", "--repeats", "1")
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)["rows"]
    assert {"evaluate-scan-16", "evaluate-phase-3x3", "overlay-3x3"} <= set(rows)
    assert {name: row["bitwise_equal"] for name, row in rows.items()} == dict.fromkeys(rows, True)
    assert rows["evaluate-scan-16"]["points"] == 16 and rows["overlay-3x3"]["points"] == 9
    assert all(row["iqr_ms"] == {"src": None, "src#2": None} for row in rows.values())
    spec = importlib.util.spec_from_file_location("layer_time", ROOT / "scripts" / "layer_time.py")
    layer_time = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_time)
    assert layer_time.iqr([4.0, 1.0, 3.0, 2.0]) == 2.5 and layer_time.iqr([1.0, 2.0, 3.0]) is None
