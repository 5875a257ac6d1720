"""Tests for the command-line interface: subcommand dispatch, exit codes
(0 success, 1 validation error, 2 check FAIL), and artifact side effects."""
from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import linrep.harness as harness_module
from linrep.cli import main


def _config_dict(**overrides) -> dict:
    cfg = {
        "env": {"d": 6, "k": 2, "head_mean": 0.0, "head_scale": 1.0, "noise_std": 0.0},
        "hp": {
            "algo": "FO_ANIL",
            "mode": "POPULATION",
            "alpha": 0.1,
            "beta": 0.3,
            "n": 3,
            "iters": 30,
        },
        "init": {"scheme": "SPEC"},
        "run": {"trials": 2, "master_seed": 7, "record_every": 10},
        "checks": {},
    }
    for dotted, value in overrides.items():
        block, field = dotted.split(".")
        cfg[block][field] = value
    return cfg


def _write_config(tmp_path: Path, name: str = "cfg.json", **overrides) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(_config_dict(**overrides)))
    return path


class TestRunCommand:
    def test_success_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "mean.csv").exists()
        assert (out / "summary.json").exists()
        stdout = capsys.readouterr().out
        assert "summary.json" in stdout
        assert "final_dist_mean" in stdout

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        assert main(["run", str(cfg), "--out", str(out_a), "--seed", "123"]) == 0
        assert main(["run", str(cfg), "--out", str(out_b), "--seed", "123"]) == 0
        assert main(["run", str(cfg), "--out", str(out_c)]) == 0
        text_a = (out_a / "trajectory.csv").read_text()
        assert text_a == (out_b / "trajectory.csv").read_text()
        assert text_a != (out_c / "trajectory.csv").read_text()

    def test_default_out_dir_comes_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _write_config(tmp_path, **{"run.output_dir": "from_config"})
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "from_config" / "summary.json").exists()

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 1
        assert "absent.json" in capsys.readouterr().err

    def test_out_naming_a_file_exits_one(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", str(cfg), "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "taken" in err

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_validation_error_exits_one_and_names_field(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, **{"hp.alpha": -1.0})
        assert main(["run", str(cfg)]) == 1
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("hp.alpha", float("inf")), ("env.head_scale", float("inf")),
         ("env.head_mean", [0.0, float("nan")])],
    )
    def test_non_finite_number_exits_one_and_names_field(self, tmp_path, capsys, field, value):
        cfg = _write_config(tmp_path, **{field: value})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert field in err
        assert "finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "overrides",
        [{"env.head_scale": 0.0, "env.head_mean": 0.0}, {"hp.iters": 0}],
        ids=["zero-heads", "zero-iters"],
    )
    def test_unresolvable_auto_alpha_exits_one_naming_field(self, tmp_path, capsys, overrides):
        cfg = _write_config(tmp_path, **{"hp.alpha": "auto", **overrides})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "hp.alpha" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_one(self, tmp_path, capsys, jobs):
        cfg = _write_config(tmp_path)
        assert main(["run", str(cfg), "--jobs", jobs, "--out", str(tmp_path / "o")]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_embedded_gradcheck_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        def corrupted(params, env, batch, hp):
            grad_head, grad_rep = real(params, env, batch, hp)
            return grad_head + 1.0, grad_rep

        real = harness_module.meta_gradients
        monkeypatch.setattr(harness_module, "meta_gradients", corrupted)
        cfg = _write_config(tmp_path, **{"checks.gradcheck": True, "hp.iters": 5})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestGradcheckCommand:
    def test_pass_exits_zero(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["gradcheck", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "PASS" in stdout
        assert "rel err" in stdout

    @pytest.mark.parametrize(
        "corrupt_rep",
        [lambda grad: grad + 1e-3, lambda grad: grad * np.nan],
        ids=["offset", "nan"],
    )
    def test_corrupted_gradient_exits_two(self, tmp_path, monkeypatch, capsys, corrupt_rep):
        def corrupted(params, env, batch, hp):
            grad_head, grad_rep = real(params, env, batch, hp)
            return grad_head, corrupt_rep(grad_rep)

        real = harness_module.meta_gradients
        monkeypatch.setattr(harness_module, "meta_gradients", corrupted)
        cfg = _write_config(tmp_path)
        assert main(["gradcheck", str(cfg)]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_dimension_guard_exits_one(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, **{"env.d": 12})
        assert main(["gradcheck", str(cfg)]) == 1
        assert "d <= 10" in capsys.readouterr().err


class TestHypcheckCommand:
    def test_writes_margin_table(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, **{"hp.iters": 20})
        out = tmp_path / "hyp"
        assert main(["hypcheck", str(cfg), "--out", str(out)]) == 0
        lines = (out / "hypotheses.csv").read_text().splitlines()
        assert lines[0] == "t,a1,a2,a3,a4_lower,a4_upper,a5,a6"
        assert len(lines) == 22
        stdout = capsys.readouterr().out
        assert "hypotheses.csv" in stdout
        assert "A1" in stdout


class TestSweepCommand:
    def test_beta_sweep_writes_rows(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, **{"hp.iters": 10})
        out = tmp_path / "sw"
        code = main(
            ["sweep", str(cfg), "--axis", "BETA", "--values", "0.2,0.4", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "axis,value,final_dist_mean,plateau_dist,diverged,error"
        assert len(lines) == 3
        assert "sweep.csv" in capsys.readouterr().out

    def test_sample_axis_requires_finite_mode(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        code = main(["sweep", str(cfg), "--axis", "M_IN", "--values", "10,20"])
        assert code == 1
        assert "FINITE" in capsys.readouterr().err

    def test_non_numeric_values_exit_one(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["sweep", str(cfg), "--axis", "BETA", "--values", "abc"]) == 1
        assert "values" in capsys.readouterr().err

    def test_unknown_axis_exits_one(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["sweep", str(cfg), "--axis", "GAMMA", "--values", "1"]) == 1
        assert "axis" in capsys.readouterr().err.lower()


class TestPlotCommand:
    def test_renders_svg(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        svg = tmp_path / "plot.svg"
        assert main(["plot", str(out / "trajectory.csv"), "-o", str(svg)]) == 0
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")

    def test_bad_header_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        assert main(["plot", str(bad), "-o", str(tmp_path / "p.svg")]) == 1
        assert "header" in capsys.readouterr().err

    def test_missing_csv_exits_one(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path / "absent.csv"), "-o", str(tmp_path / "p.svg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "absent.csv" in err

    @pytest.mark.parametrize("row", ["0,0", "0,0,far,0,0,0,0,0,1"], ids=["short", "non-numeric"])
    def test_malformed_row_exits_one(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{harness_module.TRAJECTORY_HEADER}\n{row}\n")
        assert main(["plot", str(bad), "-o", str(tmp_path / "p.svg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 2" in err


class TestParser:
    @pytest.mark.parametrize(
        "command, flag",
        [("gradcheck", ["--jobs", "2"]), ("gradcheck", ["--out", "x"]), ("hypcheck", ["--jobs", "2"])],
        ids=["gradcheck-jobs", "gradcheck-out", "hypcheck-jobs"],
    )
    def test_flag_the_command_does_not_read_exits_one(self, tmp_path, capsys, command, flag):
        cfg = _write_config(tmp_path)
        assert main([command, str(cfg), *flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: linrep {command} ")
        assert f"unrecognized arguments: {flag[0]}" in err

    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err != ""

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err != ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "run" in capsys.readouterr().out
