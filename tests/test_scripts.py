"""The tooling scripts under ``scripts/`` run: their help, and one two-tree comparison."""

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
