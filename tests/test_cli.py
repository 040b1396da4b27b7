import csv
import json
from pathlib import Path

import pytest

import floqbog
from floqbog.cli import entry
from floqbog.topology import TrackingError

MODEL_A = {"nu0": 1.5, "nu0p": 0.0, "nu1": 3.0, "nu1p": 11.0, "mu": -5.0, "omega": 5.2}
MODEL_B = {**MODEL_A, "nu1p": 6.0}
FAST = {"steps": 512, "nk": 64}


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_cfg(payload: dict, name: str = "cfg.json") -> str:
    Path(name).write_text(json.dumps(payload))
    return name


def read_csv(path: str):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigHandling:
    def test_missing_config_file(self, capsys):
        assert entry(["winding", "--config", "nope.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, capsys):
        Path("bad.json").write_text("{oops")
        assert entry(["winding", "--config", "bad.json"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_model_key(self, capsys):
        cfg = write_cfg({"model": {**MODEL_A, "bogus": 1.0}})
        assert entry(["winding", "--config", cfg]) == 2
        assert "model.'bogus'" in capsys.readouterr().err

    def test_unknown_numerics_key(self, capsys):
        cfg = write_cfg({"model": MODEL_A, "numerics": {"dt": 0.1}})
        assert entry(["winding", "--config", cfg]) == 2
        assert "numerics.'dt'" in capsys.readouterr().err

    def test_missing_model_fields(self, capsys):
        cfg = write_cfg({"model": {"nu0": 1.0}})
        assert entry(["winding", "--config", cfg]) == 2
        assert "model missing" in capsys.readouterr().err

    def test_numerics_bounds(self, capsys):
        cfg = write_cfg({"model": MODEL_A})
        assert entry(["winding", "--config", cfg, "--set", "numerics.steps=32"]) == 2
        assert "numerics.steps" in capsys.readouterr().err

    def test_command_mismatch(self, capsys):
        cfg = write_cfg({"command": "spectrum", "model": MODEL_A})
        assert entry(["ws", "--config", cfg]) == 2
        assert "invoked as 'ws'" in capsys.readouterr().err

    def test_unknown_recipe(self, capsys):
        assert entry(["ws", "--recipe", "fig9z"]) == 2
        err = capsys.readouterr().err
        assert "available:" in err and "fig1b" in err

    def test_invalid_model_value(self, capsys):
        cfg = write_cfg({"model": {**MODEL_A, "omega": -1.0}})
        assert entry(["winding", "--config", cfg]) == 2
        assert "frequency" in capsys.readouterr().err

    def test_set_requires_assignment(self, capsys):
        cfg = write_cfg({"model": MODEL_A})
        assert entry(["winding", "--config", cfg, "--set", "model.mu"]) == 2


class TestWinding:
    def test_trivial_chain(self):
        cfg = write_cfg({
            "model": {"nu0": 2.0, "nu0p": 1.0, "nu1": 0.0, "nu1p": 0.0, "mu": 0.0,
                      "omega": 5.2, "g": 0.0},
            "numerics": {"nk": 128},
        })
        assert entry(["winding", "--config", cfg]) == 0
        rows = read_csv("winding.csv")
        assert rows == [["w", "nk"], ["0", "128"]]

    def test_topological_chain(self):
        cfg = write_cfg({
            "model": {"nu0": 1.0, "nu0p": 2.0, "nu1": 0.0, "nu1p": 0.0, "mu": 0.0,
                      "omega": 5.2, "g": 0.0},
        })
        assert entry(["winding", "--config", cfg, "--output", "out/w"]) == 0
        assert read_csv("out/w.csv")[1][0] == "1"


class TestWs:
    def test_fig_point(self, capsys):
        cfg = write_cfg({"model": MODEL_A, "numerics": {"nk": 128, "steps": 1024}})
        assert entry(["ws", "--config", cfg]) == 0
        assert "W^S = 2" in capsys.readouterr().out
        header, row = read_csv("ws.csv")
        assert header == ["ws", "raw", "residual", "bandset_size", "nk"]
        assert row[0] == "2" and row[3] == "1" and row[4] == "128"
        meta = json.loads(Path("ws.meta.json").read_text())
        assert meta["result"]["ws"] == 2
        assert meta["version"] == floqbog.__version__
        assert meta["config"]["numerics"]["steps"] == 1024

    def test_unstable_point_exit_code(self, capsys):
        cfg = write_cfg({"model": MODEL_B, "numerics": FAST})
        assert entry(["ws", "--config", cfg]) == 4
        assert "strongly stable" in capsys.readouterr().err

    def test_deterministic_outputs(self):
        cfg = write_cfg({"model": MODEL_A, "numerics": {"nk": 128, "steps": 1024}})
        assert entry(["ws", "--config", cfg, "--output", "a"]) == 0
        assert entry(["ws", "--config", cfg, "--output", "b"]) == 0
        assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()
        meta_a = json.loads(Path("a.meta.json").read_text())
        meta_b = json.loads(Path("b.meta.json").read_text())
        meta_a["config"]["output"] = meta_b["config"]["output"] = None
        assert meta_a == meta_b

    def test_numerical_failure_maps_to_exit_3(self, capsys, monkeypatch):
        import floqbog.cli as cli

        def boom(*a, **kw):
            raise TrackingError("band continuation lost")

        monkeypatch.setattr(cli, "symplectic_winding", boom)
        cfg = write_cfg({"model": MODEL_A, "numerics": FAST})
        assert entry(["ws", "--config", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestSpectrum:
    def test_coarse_step_exit_code(self, capsys):
        cfg = write_cfg({"model": {**MODEL_A, "nu1p": 2e3}, "numerics": {"steps": 64, "nk": 64}})
        assert entry(["spectrum", "--config", cfg]) == 3
        assert "too coarse" in capsys.readouterr().err

    def test_zero_couplings(self):
        cfg = write_cfg({
            "model": {"nu0": 0.0, "nu0p": 0.0, "nu1": 0.0, "nu1p": 0.0, "mu": 0.0,
                      "omega": 5.2, "g": 0.0},
            "numerics": FAST,
            "task": {"effective_overlay": False},
        })
        assert entry(["spectrum", "--config", cfg]) == 0
        rows = read_csv("spectrum.csv")
        assert rows[0] == (
            ["k"] + [f"re_eps_{i}" for i in (1, 2, 3, 4)]
            + [f"im_eps_{i}" for i in (1, 2, 3, 4)] + [f"cnorm_{i}" for i in (1, 2, 3, 4)]
        )
        assert len(rows) == 65
        for row in rows[1:]:
            assert all(abs(float(v)) < 1e-12 for v in row[1:9])

    @pytest.mark.filterwarnings("ignore:effective Hamiltonian")
    def test_overlay_columns_and_indices(self):
        cfg = write_cfg({"model": MODEL_A, "numerics": FAST,
                         "task": {"effective_overlay": True, "alpha": 0}})
        assert entry(["spectrum", "--config", cfg]) == 0
        header = read_csv("spectrum.csv")[0]
        assert header[-4:] == ["eff_re_plus", "eff_im_plus", "eff_re_minus", "eff_im_minus"]
        meta = json.loads(Path("spectrum.meta.json").read_text())
        assert meta["result"]["alpha"] == 0
        assert meta["result"]["beta"] == -2  # resolved, not given
        assert meta["result"]["effective_verdict"] == "Stable"
        assert meta["result"]["max_im"] < 1e-6


class TestRecipes:
    @pytest.mark.filterwarnings("ignore:effective Hamiltonian")
    def test_recipe_with_overrides(self):
        args = ["spectrum", "--recipe", "fig1b", "--set", "numerics.nk=64",
                "--set", "numerics.steps=512", "--set", "model.mu=-4.0",
                "--output", "s"]
        assert entry(args) == 0
        meta = json.loads(Path("s.meta.json").read_text())
        assert meta["config"]["model"]["mu"] == -4.0
        assert meta["config"]["numerics"]["nk"] == 64

    def test_recipe_reused_by_other_command(self):
        # model/numerics carry over; command-specific blocks are dropped
        args = ["ws", "--recipe", "fig1b", "--set", "numerics.nk=128",
                "--set", "numerics.steps=1024"]
        assert entry(args) == 0
        assert Path("ws.csv").exists()
        assert json.loads(Path("ws.meta.json").read_text())["result"]["ws"] == 2

    def test_set_json_values(self):
        cfg = write_cfg({"model": MODEL_A, "numerics": FAST})
        args = ["spectrum", "--config", cfg, "--set", "task.effective_overlay=false"]
        assert entry(args) == 0
        meta = json.loads(Path("spectrum.meta.json").read_text())
        assert meta["config"]["task"]["effective_overlay"] is False
        assert "result" in meta and "alpha" not in meta["result"]


class TestGrids:
    def test_stability_grid_derived_static_field(self):
        cfg = write_cfg({
            "model": MODEL_A,
            "numerics": FAST,
            "task": {"hx1": {"min": -4.0, "max": 0.0, "points": 3},
                     "hy1": {"min": -2.0, "max": 2.0, "points": 3}},
        })
        assert entry(["stability-grid", "--config", cfg]) == 0
        rows = read_csv("stability_grid.csv")
        assert rows[0] == ["hx1", "hy1", "verdict", "max_im", "error"]
        assert len(rows) == 10
        meta = json.loads(Path("stability_grid.meta.json").read_text())
        assert meta["result"]["static_field"] == [-1.5, 0.0]
        assert meta["result"]["total_cells"] == 9

    def test_stability_grid_requires_field_when_k_dependent(self, capsys):
        cfg = write_cfg({
            "model": {**MODEL_A, "nu0p": 0.5},
            "task": {"hx1": {"min": 0.0, "max": 1.0, "points": 2},
                     "hy1": {"min": 0.0, "max": 1.0, "points": 2}},
        })
        assert entry(["stability-grid", "--config", cfg]) == 2
        assert "static_field" in capsys.readouterr().err

    def test_stability_grid_axis_block_validation(self, capsys):
        cfg = write_cfg({
            "model": MODEL_A,
            "task": {"hx1": {"min": 0.0, "max": 1.0},
                     "hy1": {"min": 0.0, "max": 1.0, "points": 2}},
        })
        assert entry(["stability-grid", "--config", cfg]) == 2
        assert "task.hx1 missing" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:effective Hamiltonian")
    def test_phase_diagram_with_overlay(self):
        cfg = write_cfg({
            "model": MODEL_A,
            "numerics": {"nk": 64, "steps": 256},
            "task": {
                "axis1": {"name": "nu1p", "min": 10.5, "max": 11.0, "points": 2},
                "axis2": {"name": "mu", "min": -5.02, "max": -4.98, "points": 2},
                "overlay": True,
                "overlay_nk": 32,
            },
        })
        assert entry(["phase-diagram", "--config", cfg]) == 0
        rows = read_csv("phase_diagram.csv")
        assert rows[0] == ["nu1p", "mu", "verdict", "max_im", "ws", "error",
                           "eff_verdict", "eff_max_im"]
        assert len(rows) == 5
        for row in rows[1:]:
            assert row[2] in ("Stable", "Unstable")

    def test_phase_diagram_axis_cannot_be_drive_plane(self, capsys):
        cfg = write_cfg({
            "model": MODEL_A,
            "numerics": FAST,
            "task": {
                "axis1": {"name": "hx1", "min": 0.0, "max": 1.0, "points": 2},
                "axis2": {"name": "mu", "min": -5.0, "max": -4.9, "points": 2},
            },
        })
        assert entry(["phase-diagram", "--config", cfg]) == 2
        assert "model parameters" in capsys.readouterr().err


class TestChainEvolve:
    def test_chain_output(self, capsys):
        cfg = write_cfg({
            "model": MODEL_A,
            "numerics": {"steps": 512, "nk": 128},
            "task": {"cells": 12},
        })
        assert entry(["chain", "--config", cfg]) == 0
        assert "midgap states" in capsys.readouterr().out
        rows = read_csv("chain.csv")
        assert rows[0] == ["index", "re_eps", "im_eps", "cnorm", "edge_weight", "midgap"]
        assert len(rows) == 49
        meta = json.loads(Path("chain.meta.json").read_text())
        assert len(meta["result"]["midgap"]) == 4
        assert meta["result"]["left"] == 2 and meta["result"]["right"] == 2
        flagged = {int(r[0]) for r in rows[1:] if r[5] == "1"}
        assert flagged == set(meta["result"]["midgap"])

    def test_chain_fraction_controls_edge_window(self):
        # at 10 cells the default outer-10% window is 2 sites per end and
        # misses the midgap localization length; a wider window catches it
        base = {
            "model": MODEL_A,
            "numerics": {"steps": 512, "nk": 128},
        }
        cfg = write_cfg({**base, "task": {"cells": 10}})
        assert entry(["chain", "--config", cfg, "--output", "narrow"]) == 0
        narrow = json.loads(Path("narrow.meta.json").read_text())
        assert narrow["result"]["midgap"] == []
        cfg = write_cfg({**base, "task": {"cells": 10, "fraction": 0.25}})
        assert entry(["chain", "--config", cfg, "--output", "wide"]) == 0
        wide = json.loads(Path("wide.meta.json").read_text())
        assert len(wide["result"]["midgap"]) == 4

    def test_evolve_output(self):
        cfg = write_cfg({
            "model": MODEL_A,
            "numerics": {"steps": 256, "nk": 64},
            "task": {"cells": 8, "t_max": 2.0, "samples": 5},
        })
        assert entry(["evolve", "--config", cfg]) == 0
        rows = read_csv("evolve.csv")
        assert rows[0][0] == "t" and rows[0][-1] == "sympl_residual"
        assert len(rows[0]) == 18
        assert len(rows) == 6
        assert float(rows[1][1]) == 0.0
        meta = json.loads(Path("evolve.meta.json").read_text())
        assert meta["result"]["truncated"] is False


class TestScanPath:
    def test_scan_csv(self):
        cfg = write_cfg({
            "model": MODEL_A,
            "numerics": {"nk": 64, "steps": 512},
            "task": {"end_model": {"nu1p": 0.0}, "points": 16},
        })
        assert entry(["scan-path", "--config", cfg]) == 0
        rows = read_csv("scan_path.csv")
        assert rows[0] == ["fraction", "nu0", "nu0p", "nu1", "nu1p", "mu", "omega", "g",
                           "stable", "max_im", "ws", "error"]
        assert len(rows) == 17
        first, last = rows[1], rows[-1]
        assert first[8] == "True" and first[10] == "2"
        assert last[8] == "True" and last[10] == "0"
        assert any(r[8] == "False" for r in rows[2:-1])
        meta = json.loads(Path("scan_path.meta.json").read_text())
        assert meta["result"]["unstable_points"] >= 1

    def test_end_model_inherits_start(self):
        cfg = write_cfg({
            "model": MODEL_A,
            "numerics": {"nk": 64, "steps": 512},
            "task": {"end_model": {"bad_key": 1.0}},
        })
        assert entry(["scan-path", "--config", cfg]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["--version"])
    assert exc.value.code == 0
    assert floqbog.__version__ in capsys.readouterr().out
