import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import floqbog
from floqbog.cli import entry, main, write_outputs
from floqbog.floquet import MIN_STEPS, kgrid_solve
from floqbog.model import ModelParams
from floqbog.topology import TrackingError

from helpers import write_rows

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

    def test_config_not_an_object(self, capsys):
        Path("list.json").write_text("[1, 2]")
        assert entry(["winding", "--config", "list.json"]) == 2
        assert "config must be an object" in capsys.readouterr().err

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
        assert "numerics.steps must be an integer >= 64, got 32" in capsys.readouterr().err
        assert entry(["winding", "--config", cfg, "--set", f"numerics.steps={MIN_STEPS - 1}"]) == 2
        assert f">= {MIN_STEPS}, got {MIN_STEPS - 1}" in capsys.readouterr().err

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


#: a 2x2 phase diagram on the fig1b model, for the axis checks
PHASE = ["phase-diagram", "--recipe", "fig1b",
         "--set", 'task.axis1={"name": "nu1p", "min": 10.5, "max": 11.0, "points": 2}',
         "--set", 'task.axis2={"name": "mu", "min": -5.02, "max": -4.98, "points": 2}']

#: mistyped or out-of-range values and the key or library check that rejects them
BAD_VALUES = [
    (["chain", "--recipe", "fig3a", "--set", 'task.cells="abc"'], "task.cells must be an integer"),
    (["chain", "--recipe", "fig3a", "--set", "task.cells=4"], "at least 8 unit cells"),
    (["chain", "--recipe", "fig3a", "--set", "task.fraction=true"],
     "task.fraction must be a number"),
    (["chain", "--recipe", "fig3a", "--set", "task.fraction=0.9"], "fraction must lie in (0, 0.5]"),
    (["chain", "--recipe", "fig3a", "--set", 'task.window="x"'], "task.window must be a number"),
    (["chain", "--recipe", "fig3a", "--set", "task.window=-1"], "task.window must be a positive"),
    (["chain", "--recipe", "fig3a", "--set", "task.window=0"], "task.window must be a positive"),
    (["chain", "--recipe", "fig3a", "--set", "task.edge_threshold=1.5"],
     "task.edge_threshold must be a number in (0, 1)"),
    (["chain", "--recipe", "fig3a", "--set", "task.edge_threshold=0"],
     "task.edge_threshold must be a number in (0, 1)"),
    (["evolve", "--recipe", "fig3b", "--set", "task.samples=2.5"],
     "task.samples must be an integer"),
    (["evolve", "--recipe", "fig3b", "--set", "task.samples=1"], "at least 2 samples"),
    (["evolve", "--recipe", "fig3b", "--set", "task.t_max=-1"], "t_max must be positive"),
    (["scan-path", "--recipe", "fig1b", "--set", 'task.end_model={"nu1p": 0.0}',
      "--set", "task.points=8"], "at least 16 scan points"),
    (["stability-grid", "--recipe", "fig2b", "--set", 'task.hx1.points="7"'],
     "task.hx1.points must be an integer"),
    (["stability-grid", "--recipe", "fig2b", "--set", "task.hx1.points=1"], "at least 2 points"),
    (["stability-grid", "--recipe", "fig2b", "--set", "task.hx1.min=10"], "min < max"),
    (["stability-grid", "--recipe", "fig2b", "--set", "task.hy1.min=12"],
     "task.hy1 range must satisfy min < max"),
    ([*PHASE, "--set", "task.axis1.points=1"], "task.axis1 needs at least 2 points"),
    ([*PHASE, "--set", "task.axis2.name=nu1p"], "grid axes must differ"),
    ([*PHASE, "--set", "task.overlay=true", "--set", "task.axis1.max=1e8"],
     "too large against omega for the effective model"),
    (["stability-grid", "--recipe", "fig2b", "--set", 'task.static_field="ab"'],
     "task.static_field must be a list of two numbers"),
    (["stability-grid", "--recipe", "fig2b", "--set", "task.static_field=[1]"],
     "task.static_field must be a list of two numbers"),
    (["stability-grid", "--recipe", "fig2b", "--set", "numerics.tol_im=true"],
     "numerics.tol_im must be a number"),
    (["spectrum", "--recipe", "fig1b", "--set", "task.alpha=0.5"],
     "task.alpha must be an integer"),
    (["stability-grid", "--recipe", "fig2b", "--set", "task.hy1.max=Infinity"],
     "task.hy1.max must be a number, got inf"),
    (["stability-grid", "--recipe", "fig2b", "--set", "numerics.tol_im=Infinity"],
     "numerics.tol_im must be a number, got inf"),
    (["stability-grid", "--recipe", "fig2b", "--set", "task.hx1.min=-Infinity"],
     "task.hx1.min must be a number, got -inf"),
    (["stability-grid", "--recipe", "fig2b", "--set", "task.static_field=[Infinity, 0]"],
     "task.static_field must be a list of two numbers, got [inf, 0]"),
    (["stability-grid", "--recipe", "fig2b", "--set", "model.omega=0"], "got omega=0"),
    (["stability-grid", "--recipe", "fig2b", "--set", "model.omega=-5.2"], "got omega=-5.2"),
    (["stability-grid", "--recipe", "fig2b", "--set", "model.g=-1"], "got g=-1"),
]


#: commands, with a recipe each, that integrate through ``propagate``'s step checks
STEP_RECIPES = [("spectrum", "fig1b"), ("chain", "fig3a"), ("evolve", "fig3b"), ("ws", "fig1b")]


class TestErrorBoundary:
    @pytest.mark.parametrize("argv, named", BAD_VALUES, ids=[a[-1] for a, _ in BAD_VALUES])
    def test_bad_value_exits_2(self, argv, named, capsys):
        assert entry(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error: ") and named in err

    def test_linalg_error_exits_3(self, capsys, monkeypatch):
        import floqbog.cli as cli

        def diverged(*a, **kw):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "kgrid_solve", diverged)
        cfg = write_cfg({"model": MODEL_A, "numerics": FAST})
        assert entry(["spectrum", "--config", cfg]) == 3
        assert "numerical failure: Eigenvalues did not converge" in capsys.readouterr().err

    def test_config_directory_exits_2(self, in_tmp, capsys):
        assert entry(["winding", "--recipe", "fig1b", "--config", str(in_tmp)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error: ") and str(in_tmp) in err

    def test_overlay_nk_checked_before_compute(self, capsys, monkeypatch):
        import floqbog.cli as cli

        def never(*a, **kw):
            raise AssertionError("phase_diagram ran on an invalid config")

        monkeypatch.setattr(cli, "phase_diagram", never)
        cfg = write_cfg({
            "model": MODEL_A,
            "numerics": FAST,
            "task": {
                "axis1": {"name": "nu1p", "min": 10.5, "max": 11.0, "points": 2},
                "axis2": {"name": "mu", "min": -5.02, "max": -4.98, "points": 2},
                "overlay": True,
                "overlay_nk": 0,
            },
        })
        assert entry(["phase-diagram", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error: ") and "task.overlay_nk" in err

    @pytest.mark.parametrize("command, recipe", STEP_RECIPES)
    def test_nonfinite_step_weight_exits_2(self, command, recipe, capsys):
        """At omega = 5e-324 the period and the step h are infinite: ``step_weights``
        refuses them, and evolve does so before it forms its sample times.  No case
        emits a RuntimeWarning."""
        assert self._run_quietly([command, "--recipe", recipe, "--set", "model.omega=5e-324"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error: ") and "omega = 5e-324 and 64 steps" in err

    @pytest.mark.parametrize("command, recipe", STEP_RECIPES)
    def test_coarse_step_exits_3(self, command, recipe, capsys):
        """At omega = 1e-300 h is finite and so is h (|H0| + |H1|) = 2.11e300: the
        step guard refuses it as at any other too coarse step, with no RuntimeWarning."""
        assert self._run_quietly([command, "--recipe", recipe, "--set", "model.omega=1e-300"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "integrator step too coarse" in err
        assert "= 2.11e+300 > 1.0" in err

    @staticmethod
    def _run_quietly(argv) -> int:
        """``entry(argv)``, asserting that it emits no RuntimeWarning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = entry(argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return code

    def test_effective_coefficient_bound_exits_2(self, capsys):
        """An overlay cell at nu0p = -1e300 has effective coefficients near 1e300:
        they are refused before they are squared, so no numpy warning is raised."""
        argv = ["phase-diagram", "--recipe", "fig1b",
                "--set", 'task.axis1={"name":"nu0p","min":-1e300,"max":1.0,"points":2}',
                "--set", 'task.axis2={"name":"nu0","min":1.0,"max":2.0,"points":2}',
                "--set", "task.overlay=true", "--set", "numerics.nk=64"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert entry(argv) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error: effective coefficient 1e+300 exceeds 1e+76")

    def test_unwritable_prefix_checked_before_compute(self, in_tmp, capsys, monkeypatch):
        import floqbog.cli as cli

        def never(*a, **kw):
            raise AssertionError("ws ran with an unwritable output prefix")

        monkeypatch.setitem(cli.COMMANDS, "ws", never)
        Path("taken").write_text("")
        assert entry(["ws", "--recipe", "fig1b", "--output", "taken/x"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error: ") and "taken" in err

    def test_main_raises(self):
        with pytest.raises(ValueError, match="at least 8 unit cells"):
            main(["chain", "--recipe", "fig3a", "--set", "task.cells=4"])


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


class TestWriteOutputs:
    """The CSV is byte for byte that of the row-by-row writer oracle."""

    @staticmethod
    def table():
        tiny = 5e-324  # the smallest subnormal
        return np.rec.fromarrays(
            [
                np.array([-0.0, 0.0, np.nan, np.inf, tiny, 0.1, 0.1, -np.nan, 2.5, 0.1]),
                np.array([0.0, -0.0, 0.1, -np.inf, 1e300, -tiny, np.nan, 1 / 3, 0.0, -1e-7]),
                np.array([True, False, True, True, False, False, True, False, True, True]),
                np.arange(-3, 7),
                np.array(["Stable", "Unstable", "", "a,b", 'q"t', "x ", "x ", " y", "l\nf",
                          "c\rr"]),
                np.array([None, 2, 0.1, -0.0, None, "w", None, 7, None, ""], dtype=object),
            ],
            names=["a", "b", "flag", "n", "verdict", "ws"],
        )

    @pytest.mark.parametrize("rows", [slice(None), slice(0, 0), slice(2, 3)],
                             ids=["all", "empty", "one"])
    def test_bytes_equal_row_writer(self, tmp_path, rows):
        table = self.table()[rows]
        csv_path, _ = write_outputs({"output": {"path": str(tmp_path / "t")}}, table, {})
        write_rows(tmp_path / "want.csv", table)
        assert csv_path.read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("block", [1, 3])
    def test_blocks_equal_row_writer(self, tmp_path, monkeypatch, block):
        """Rows formatted in blocks, a float repeated across blocks included,
        give the bytes of the row-by-row writer."""
        monkeypatch.setattr(floqbog.cli, "WRITE_ROWS", block)
        csv_path, _ = write_outputs({"output": {"path": str(tmp_path / "t")}}, self.table(), {})
        write_rows(tmp_path / "want.csv", self.table())
        assert csv_path.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_single_column_empty_field(self, tmp_path):
        """A row whose only field is empty is written as "", as csv.writer does."""
        table = np.rec.fromarrays([np.array(["", "a", ""])], names=["error"])
        csv_path, _ = write_outputs({"output": {"path": str(tmp_path / "t")}}, table, {})
        write_rows(tmp_path / "want.csv", table)
        want = (tmp_path / "want.csv").read_bytes()
        assert csv_path.read_bytes() == want == b'error\n""\na\n""\n'

    def test_signed_zeros_and_nan_kept(self, tmp_path):
        csv_path, _ = write_outputs({"output": {"path": str(tmp_path / "t")}}, self.table(), {})
        rows = read_csv(csv_path)
        assert [r[0] for r in rows[1:3]] == ["-0.0", "0.0"]
        assert [r[1] for r in rows[1:3]] == ["0.0", "-0.0"]
        assert rows[3][0] == rows[8][0] == rows[7][1] == "nan"


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_coarse_cells_not_integrated(self):
        """At mu = 1e300 every cell is over the step guard: none is integrated,
        so no numpy warning is raised, and each fails as too coarse."""
        assert entry(["stability-grid", "--recipe", "fig2b", "--set", "model.mu=1e300",
                      "--set", "task.hx1.points=3", "--set", "task.hy1.points=3",
                      "--output", "out"]) == 0
        errors = [row[-1] for row in read_csv("out.csv")[1:]]
        assert len(errors) == 9
        assert all(e.startswith("drive plane: integrator step too coarse") for e in errors)

    def test_failed_cells_counted_apart(self, capsys):
        """On the fig2b plane out to |hx1| = 60, 126 of 441 cells are too coarse:
        they read Failed and are counted apart from the 10 unstable ones."""
        assert entry(["stability-grid", "--recipe", "fig2b", "--set", "task.hx1.min=-60",
                      "--set", "task.hx1.max=60", "--set", "task.hx1.points=21",
                      "--set", "task.hy1.points=21", "--output", "out"]) == 0
        assert capsys.readouterr().out.startswith(
            "stability-grid: 10/441 unstable cells, 126 failed -> ")
        meta = json.loads(Path("out.meta.json").read_text())["result"]
        assert (meta["unstable_cells"], meta["failed_cells"], meta["total_cells"]) == (10, 126, 441)
        rows = read_csv("out.csv")[1:]
        assert all((r[2] == "Failed") == ("too coarse" in r[-1]) for r in rows)
        assert sum(r[2] == "Failed" for r in rows) == 126

    def test_unresolved_plane_fails(self, capsys):
        """At omega = 1e9 the default tol_im lies below the quasienergy resolution
        (5.7e-07): every cell fails with that message and keeps its max_im, and
        none reads Unstable on round-off."""
        assert entry(["stability-grid", "--recipe", "fig2b", "--set", "model.omega=1e9",
                      "--set", "task.hx1.points=5", "--set", "task.hy1.points=5",
                      "--output", "out"]) == 0
        assert capsys.readouterr().out.startswith("stability-grid: 0/25 unstable cells, 25 failed")
        rows = read_csv("out.csv")[1:]
        assert {r[-1] for r in rows} == {
            "tol_im 1e-08 is below the quasienergy resolution 5.7e-07 at omega 1e+09"}
        assert all(math.isfinite(float(r[3])) for r in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, key", [
        (["stability-grid", "--recipe", "fig2b", "--set", "task.hx1.points=3",
          "--set", "task.hy1.points=3", "--set", "task.hx1.min=-1.7e308",
          "--set", "task.hx1.max=1.7e308"], "task.hx1"),
        ([*PHASE, "--set", "task.axis1.min=-1.7e308", "--set", "task.axis1.max=1.7e308",
          "--set", "task.axis1.points=3"], "task.axis1"),
    ], ids=["stability-grid", "phase-diagram"])
    def test_axis_span_overflow_exits_2(self, argv, key, capsys):
        """An axis whose max - min overflows is refused before np.linspace, which
        would give NaN values, with a message that names the axis."""
        assert entry(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} span max - min overflows")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_axis_at_float_range_end(self, capsys):
        """An axis on [1e308, 1.7e308] has a finite span, and ``mirror_half`` meets
        sums that overflow: they mark no mirror, with no warning."""
        assert entry(["stability-grid", "--recipe", "fig2b", "--set", "task.hx1.min=1e308",
                      "--set", "task.hx1.max=1.7e308", "--set", "task.hx1.points=3",
                      "--set", "task.hy1.points=3", "--output", "out"]) == 0
        assert "0/9 unstable cells, 9 failed" in capsys.readouterr().out
        assert [float(r[0]) for r in read_csv("out.csv")[1:4]] == [1e308, 1.35e308, 1.7e308]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_bad_omega_column(self):
        """A phase diagram whose omega axis starts at 1e-300 completes: those two
        cells fail alone, as too coarse, and the other rows are those of the grid
        without that column."""
        argv = ["phase-diagram", "--recipe", "fig1b", "--set", "numerics.nk=64",
                "--set", 'task.axis2={"name": "mu", "min": -5.05, "max": -4.95, "points": 2}']
        axis = '--set=task.axis1={"name": "omega", "min": %r, "max": 5.2, "points": %d}'
        assert entry([*argv, axis % (1e-300, 3), "--output", "all"]) == 0
        assert entry([*argv, axis % (2.6, 2), "--output", "rest"]) == 0
        rows, rest = read_csv("all.csv")[1:], read_csv("rest.csv")[1:]
        assert [r[0] for r in rows] == ["1e-300", "2.6", "5.2"] * 2
        bad = rows[::3]
        assert all(r[2] == "Failed" and r[3] == "nan" for r in bad)
        assert all(r[-1].startswith("k-grid: integrator step too coarse") for r in bad)
        assert [r for r in rows if r not in bad] == rest

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

    def test_tol_im_sets_every_verdict(self):
        """A |Im eps| up to numerics.tol_im counts as stable, in the exact and
        the effective verdicts alike."""
        grid = ["--set", 'task.axis1={"name": "nu1p", "min": 9.0, "max": 10.0, "points": 2}',
                "--set", 'task.axis2={"name": "mu", "min": -5.05, "max": -4.95, "points": 2}',
                "--set", "task.overlay=true", "--set", "numerics.nk=64"]
        verdicts = {}
        for name, tol in (("strict", "1e-8"), ("loose", "0.2")):
            argv = ["phase-diagram", "--recipe", "fig1b", *grid, "--set", f"numerics.tol_im={tol}"]
            assert entry([*argv, "--output", name]) == 0
            verdicts[tol] = [(row[2], row[6]) for row in read_csv(f"{name}.csv")[1:]]
        # max_im 0.170, 0.00, 0.293 and 0.098; the overlay's 0.351, 0.060, 0.425 and 0.288
        assert verdicts["1e-8"] == [("Unstable", "Unstable"), ("Stable", "Unstable"),
                                    ("Unstable", "Unstable"), ("Unstable", "Unstable")]
        assert verdicts["0.2"] == [("Stable", "Unstable"), ("Stable", "Stable"),
                                   ("Unstable", "Unstable"), ("Stable", "Unstable")]
        spectrum = ["spectrum", "--recipe", "fig1c", "--set", "numerics.nk=64"]
        assert entry([*spectrum, "--set", "numerics.tol_im=1.0", "--output", "spec"]) == 0
        meta = json.loads(Path("spec.meta.json").read_text())
        assert meta["result"]["effective_verdict"] == "Stable"

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

    @pytest.mark.parametrize("nk", [80, 97])
    def test_chain_bulk_gap_follows_numerics_nk(self, nk):
        # both grids miss the bulk gap's minimum on the 128-point grid
        cfg = write_cfg({"model": MODEL_A, "numerics": {"steps": 256, "nk": nk},
                         "task": {"cells": 8}})
        assert entry(["chain", "--config", cfg]) == 0
        gap = json.loads(Path("chain.meta.json").read_text())["result"]["bulk_gap"]
        _, eps, _, _, _ = kgrid_solve([ModelParams(**MODEL_A)], nk, 256)
        assert gap == 2.0 * float(np.abs(eps.real).min())

    def test_growth_rate_matches_midgap_im(self):
        """Fig. 3b: the site-1 growth rate is twice the largest midgap Im eps."""
        assert entry(["chain", "--recipe", "fig3a"]) == 0
        assert entry(["evolve", "--recipe", "fig3b"]) == 0
        im = json.loads(Path("fig3a.meta.json").read_text())["result"]["max_midgap_im"]
        rate = json.loads(Path("fig3b.meta.json").read_text())["result"]["growth_rate"]
        flagged = [float(r[2]) for r in read_csv("fig3a.csv")[1:] if r[5] == "1"]
        assert im == max(flagged) > 0.0
        assert rate == pytest.approx(2.0 * im, rel=0.10)

    def test_fig3b_time_grid(self):
        """fig3b samples every quarter period (25 periods, 101 samples), which
        lies on the step grid, so t is exactly i T/4, as at any step count
        divisible by 4."""
        assert entry(["evolve", "--recipe", "fig3b"]) == 0
        period = 2.0 * math.pi / MODEL_A["omega"]
        t = [row[0] for row in read_csv("fig3b.csv")[1:]]
        assert t == [repr(float(x)) for x in np.arange(101) * (period / 4.0)]

    def test_stable_chain_has_no_growth_rate(self, capsys):
        # pairing far below the detuning |mu|: the vacuum stays below 1e-6
        cfg = write_cfg({
            "model": {**MODEL_A, "mu": -50.0, "g": 0.01},
            "numerics": {"steps": 256, "nk": 64},
            "task": {"cells": 8, "t_max": 10.0, "samples": 41},
        })
        assert entry(["evolve", "--config", cfg]) == 0
        meta = json.loads(Path("evolve.meta.json").read_text())
        assert meta["result"]["growth_rate"] is None
        assert max(float(v) for r in read_csv("evolve.csv")[1:] for v in r[1:-1]) < 1e-6

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

    def test_failed_points_counted_apart(self, capsys):
        """A path out to nu1p = 100 leaves the step guard at 64 steps: the points
        past it are counted as failed, not as unstable."""
        cfg = write_cfg({
            "model": MODEL_A,
            "numerics": {"nk": 64, "steps": 64},
            "task": {"end_model": {"nu1p": 100.0}, "points": 16},
        })
        assert entry(["scan-path", "--config", cfg]) == 0
        rows = read_csv("scan_path.csv")[1:]
        failed = sum(r[8] == "False" and r[-1] != "" for r in rows)
        unstable = sum(r[8] == "False" and r[-1] == "" for r in rows)
        assert all("too coarse" in r[-1] for r in rows if r[8] == "False" and r[-1])
        assert failed > 0 and unstable > 0
        meta = json.loads(Path("scan_path.meta.json").read_text())["result"]
        assert (meta["unstable_points"], meta["failed_points"]) == (unstable, failed)
        assert f"{unstable}/16 unstable points, {failed} failed" in capsys.readouterr().out


#: model values of the fuzz: zero, the extremes of the float range and ordinary values
FUZZ_VALUES = (0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 1e8, -1.0, 1.0, 3.0, 5.2, 11.0, -5.0)
#: configs per seed of ``test_entry_fuzz``
FUZZ_RUNS = 60


def fuzz_argv(rng) -> list[str]:
    """A random invocation: each model entry a FUZZ_VALUES draw with probability
    0.3, grids of at most 3 x 3 points, scan paths of at most 17, nk <= 128, at
    most 9 chain cells and evolve traces of t_max <= 1e4 with at most 17 samples."""
    base = {**MODEL_A, "g": 1.0}

    def value():
        return float(rng.choice(FUZZ_VALUES))

    def model():
        return {k: value() if rng.random() < 0.3 else v for k, v in base.items()}

    def axis(**name):
        lo, hi = sorted((value(), value()))
        return {**name, "min": lo, "max": hi, "points": int(rng.integers(2, 4))}

    command = str(rng.choice(["spectrum", "stability-grid", "phase-diagram", "winding", "ws",
                              "chain", "evolve", "scan-path"]))
    names = list(base)
    task = {
        "spectrum": lambda: {"effective_overlay": bool(rng.random() < 0.5)},
        "stability-grid": lambda: {"hx1": axis(), "hy1": axis()},
        "phase-diagram": lambda: {"axis1": axis(name=str(rng.choice(names))),
                                  "axis2": axis(name=str(rng.choice(names))),
                                  "overlay": bool(rng.random() < 0.5), "overlay_nk": 64},
        "winding": dict,
        "ws": dict,
        "chain": lambda: {"cells": int(rng.integers(7, 10))},
        "evolve": lambda: {"cells": int(rng.integers(2, 10)),
                           "t_max": float(rng.choice([0.5, 25.0, 1e3, 1e4])),
                           "samples": int(rng.integers(2, 18))},
        "scan-path": lambda: {"end_model": model(), "points": int(rng.integers(16, 18))},
    }[command]()
    numerics = {"nk": int(rng.choice([64, 100, 128])), "steps": MIN_STEPS}
    return [command, "--output", "out", *(f"--set={key}={json.dumps(block)}" for key, block in
                                          (("model", model()), ("numerics", numerics),
                                           ("task", task)))]


def strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, which strict JSON does not have."""
    def reject(constant):
        raise ValueError(f"sidecar holds {constant}")
    return json.loads(text, parse_constant=reject)


def assert_resolved(rows, tol_im: float) -> None:
    """No row without an error reads unstable (verdict Unstable, or stable False)
    with max_im at or below ``tol_im``."""
    header = rows[0]
    for row in map(dict, (zip(header, r) for r in rows[1:])):
        unstable = row["verdict"] == "Unstable" if "verdict" in row else row["stable"] == "False"
        assert not (unstable and row["error"] == "" and float(row["max_im"]) <= tol_im), row


@pytest.mark.filterwarnings("error::RuntimeWarning", "ignore:effective Hamiltonian")
@pytest.mark.parametrize("seed", [0, 1])
def test_entry_fuzz(seed):
    """Random configs with extreme model values end in a documented exit code with
    no RuntimeWarning, and a successful run writes strict JSON, grid and path rows
    whose unstable verdicts lie above tol_im and, for evolve, finite occupations."""
    rng = np.random.default_rng(seed)
    for _ in range(FUZZ_RUNS):
        argv = fuzz_argv(rng)
        code = entry(argv)
        assert code in (0, 2, 3, 4), argv
        if code == 0:
            sidecar = strict_json(Path("out.meta.json").read_text())
            if argv[0] in ("stability-grid", "phase-diagram", "scan-path"):
                assert_resolved(read_csv("out.csv"), sidecar["config"]["numerics"]["tol_im"])
            if argv[0] == "evolve":
                rows = read_csv("out.csv")
                occ = np.array([r[1:-1] for r in rows[1:]], dtype=float)
                assert np.isfinite(occ).all(), argv


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["--version"])
    assert exc.value.code == 0
    assert floqbog.__version__ in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["fig1b"], [], ["--recipe", "fig1b"]],
                         ids=["unknown", "none", "options-only"])
def test_command_required_and_known(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        entry(argv)
    assert exc.value.code == 2
    assert "command" in capsys.readouterr().err
