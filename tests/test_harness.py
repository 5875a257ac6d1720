"""Tests for the experiment harness: config loading, artifact contracts,
checks, sweeps, and plotting.

Artifact-level numbers (mean.csv, summary.json) are recomputed here from
the raw trajectory.csv text with the stdlib csv/statistics modules, never
with the package's own aggregation code.
"""
from __future__ import annotations

import csv
import json
import math
import statistics
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import linrep.harness as harness_module
from linrep.harness import (
    ConfigError,
    ExperimentConfig,
    SweepAxis,
    dump_config,
    emit_plot,
    gradcheck,
    hypcheck,
    load_config,
    resolve_hyper,
    run_experiment,
    sweep,
)
from linrep.model import Algorithm, InitScheme, Mode, rate_matched_alpha

TRAJECTORY_HEADER = "t,trial,dist,delta_norm,w_norm,psi_min,psi_max,bperp_norm,loss"
SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def _base_dict(**overrides) -> dict:
    cfg = {
        "env": {"d": 6, "k": 2, "head_mean": 0.0, "head_scale": 1.0, "noise_std": 0.0},
        "hp": {
            "algo": "FO_ANIL",
            "mode": "POPULATION",
            "alpha": 0.1,
            "beta": 0.3,
            "n": 3,
            "iters": 100,
        },
        "init": {"scheme": "SPEC"},
        "run": {"trials": 3, "master_seed": 7, "record_every": 10, "output_dir": "out"},
    }
    for key, value in overrides.items():
        block, _, field = key.partition(".")
        if field:
            cfg.setdefault(block, {})[field] = value
        else:
            cfg[block] = value
    return cfg


def _write(tmp_path: Path, cfg: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigLoading:
    def test_minimal_config_applies_defaults(self, tmp_path: Path) -> None:
        path = _write(tmp_path, {"env": {"d": 6, "k": 2}, "hp": _base_dict()["hp"]})
        config = load_config(path)
        assert config.run.record_every == 10
        assert config.run.trials == 5
        assert config.init.scheme is InitScheme.SPEC
        assert config.checks.gradcheck is False
        assert config.checks.hyp_constant_C_A1 == 1.0
        assert config.env.head_mean == 0.0
        assert config.env.noise_std == 0.0

    def test_negative_alpha_rejected_naming_field(self, tmp_path: Path) -> None:
        path = _write(tmp_path, _base_dict(**{"hp.alpha": -1}))
        with pytest.raises(ConfigError, match="alpha"):
            load_config(path)

    def test_unknown_key_rejected_by_name(self, tmp_path: Path) -> None:
        cfg = _base_dict()
        cfg["hp"]["outer_momentum"] = 0.9
        with pytest.raises(ConfigError, match="outer_momentum"):
            load_config(_write(tmp_path, cfg))

    def test_malformed_json_reports_position(self, tmp_path: Path) -> None:
        path = tmp_path / "bad.json"
        path.write_text('{"env": {"d": 6,,}}')
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_missing_file_raises_config_error(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    def test_round_trip_preserves_config(self, tmp_path: Path) -> None:
        original = load_config(_write(tmp_path, _base_dict(**{"env.head_mean": [1.0, 2.0]})))
        text = dump_config(original)
        reparsed_path = tmp_path / "dumped.json"
        reparsed_path.write_text(text)
        assert load_config(reparsed_path) == original

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.stem)
    def test_shipped_config_loads_and_dumps_to_its_own_bytes(self, path: Path) -> None:
        assert dump_config(load_config(path)) == path.read_text()

    def test_configs_are_shipped(self) -> None:
        assert SHIPPED_CONFIGS, "no configs/*.json next to the tests"

    def test_vector_head_mean_length_checked(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigError, match="head_mean"):
            load_config(_write(tmp_path, _base_dict(**{"env.head_mean": [1.0, 2.0, 3.0]})))

    def test_near_truth_requires_band(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigError, match="target_band"):
            load_config(_write(tmp_path, _base_dict(**{"init.scheme": "NEAR_TRUTH"})))
        cfg = _base_dict(**{"init.scheme": "NEAR_TRUTH", "init.target_band": [0.65, 0.7]})
        config = load_config(_write(tmp_path, cfg))
        assert config.init.target_band == (0.65, 0.7)

    def test_finite_mode_requires_sample_sizes(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigError, match="m_in"):
            load_config(_write(tmp_path, _base_dict(**{"hp.mode": "FINITE"})))

    def test_zero_beta_rejected(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigError, match="beta"):
            load_config(_write(tmp_path, _base_dict(**{"hp.beta": 0.0})))

    @pytest.mark.parametrize(
        "field, value",
        [("hp.alpha", math.inf), ("env.head_scale", math.inf),
         ("env.head_mean", [1.0, math.nan]), ("hp.beta", math.nan)],
    )
    def test_non_finite_numbers_rejected_naming_field(self, tmp_path: Path, field, value) -> None:
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            load_config(_write(tmp_path, _base_dict(**{field: value})))

    @pytest.mark.parametrize(
        "value", [True, 3.0, 2.5, "3"], ids=["bool", "integral-float", "fraction", "str"]
    )
    @pytest.mark.parametrize(
        "field",
        ["env.d", "env.k", "hp.n", "hp.m_in", "hp.m_out", "hp.iters", "run.trials",
         "run.master_seed", "run.record_every"],
    )
    def test_non_integer_count_rejected_naming_field(self, tmp_path: Path, field, value) -> None:
        cfg = _base_dict(**{"hp.mode": "FINITE", "hp.m_in": 4, "hp.m_out": 5})
        block, _, name = field.partition(".")
        cfg[block][name] = value
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            load_config(_write(tmp_path, cfg))

    def test_auto_alpha_resolves_to_rate_matched_value(self, tmp_path: Path) -> None:
        cfg = _base_dict(**{"hp.alpha": "auto", "env.head_mean": 2.0})
        cfg["hp"]["alpha_auto_constant"] = 0.3
        config = load_config(_write(tmp_path, cfg))
        hp = resolve_hyper(config)
        l_star = math.sqrt(1.0 + 4.0 * 2)  # scale^2 + ||mean vector||^2, k = 2
        assert hp.alpha == pytest.approx(rate_matched_alpha(2, l_star, 100, 0.3))
        assert hp.algo is Algorithm.FO_ANIL
        assert hp.mode is Mode.POPULATION

    @pytest.mark.parametrize(
        "overrides",
        [{"env.head_scale": 0.0, "env.head_mean": 0.0}, {"hp.iters": 0}],
        ids=["zero-heads", "zero-iters"],
    )
    def test_unresolvable_auto_alpha_rejected_naming_field(self, tmp_path: Path, overrides) -> None:
        path = _write(tmp_path, _base_dict(**{"hp.alpha": "auto", **overrides}))
        with pytest.raises(ConfigError, match=r"hp\.alpha"):
            load_config(path)


class TestCsvRows:
    # Floats whose text is easy to get wrong: non-finite values, a signed
    # zero, the smallest subnormal, a repeating fraction and a value past
    # 2^53; ints of either sign.
    FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1 / 3, 1e16, -2.5e-7, 0.1]
    INTS = [0, 7, -3, 10**6]

    @pytest.mark.parametrize(
        "template, header",
        [
            (harness_module._TRAJECTORY_ROW, harness_module.TRAJECTORY_HEADER),
            (harness_module._MEAN_ROW, harness_module.MEAN_HEADER),
            (harness_module._HYPOTHESES_ROW, harness_module.HYPOTHESES_HEADER),
        ],
        ids=["trajectory", "mean", "hypotheses"],
    )
    def test_row_template_writes_the_text_of_the_cell_path(
        self, tmp_path: Path, template: str, header: str
    ) -> None:
        ints = template.count("%d")
        floats = template.count("%.17g")
        assert ints + floats == len(header.split(","))
        # Every float in every float column, next to every int.
        rows = [
            (*(self.INTS * 2)[i % 4 : i % 4 + ints], *(self.FLOATS * 2)[i : i + floats])
            for i in range(len(self.FLOATS))
        ]
        by_row, by_cell = tmp_path / "row.csv", tmp_path / "cell.csv"
        harness_module._write_csv(by_row, header, rows, template)
        harness_module._write_csv(by_cell, header, rows)
        text = by_row.read_text()
        assert text == by_cell.read_text()
        assert text.splitlines()[1 + self.FLOATS.index(-0.0)].split(",")[ints] == "-0"


class TestRunExperiment:
    def test_zero_iteration_run_writes_single_row(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(
            _base_dict(**{"hp.iters": 0, "run.trials": 1})
        )
        artifacts = run_experiment(cfg, out_dir=tmp_path / "zero")
        lines = artifacts.trajectory_csv.read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        summary = json.loads(artifacts.summary_json.read_text())
        assert set(summary) == {
            "final_dist_mean",
            "final_dist_std",
            "diverged",
            "log_slope",
            "r_squared",
            "hyp_first_violation",
        }
        assert summary["final_dist_mean"] == pytest.approx(float(first[2]))
        assert summary["log_slope"] is None  # too few records for a tail fit
        assert summary["hyp_first_violation"] is None

    def test_row_counts_and_ordering(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict())
        artifacts = run_experiment(cfg, out_dir=tmp_path / "run")
        rows = _read_rows(artifacts.trajectory_csv)
        assert len(rows) == 3 * 11  # trials x records (t = 0,10,...,100)
        keys = [(int(r["trial"]), int(r["t"])) for r in rows]
        assert keys == sorted(keys)
        assert [int(r["t"]) for r in rows[:11]] == list(range(0, 101, 10))

    def test_mean_csv_matches_independent_recompute(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict())
        artifacts = run_experiment(cfg, out_dir=tmp_path / "run")
        by_t: dict[int, list[float]] = {}
        for row in _read_rows(artifacts.trajectory_csv):
            by_t.setdefault(int(row["t"]), []).append(float(row["dist"]))
        mean_rows = _read_rows(artifacts.mean_csv)
        assert [int(r["t"]) for r in mean_rows] == sorted(by_t)
        for row in mean_rows:
            values = by_t[int(row["t"])]
            assert len(values) == 3
            assert float(row["dist_mean"]) == pytest.approx(statistics.fmean(values), abs=1e-9)
            assert float(row["dist_std"]) == pytest.approx(statistics.pstdev(values), abs=1e-9)

    def test_summary_statistics_match_trajectory(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict())
        artifacts = run_experiment(cfg, out_dir=tmp_path / "run")
        rows = _read_rows(artifacts.trajectory_csv)
        finals = [float(r["dist"]) for r in rows if int(r["t"]) == 100]
        summary = json.loads(artifacts.summary_json.read_text())
        assert summary["diverged"] == 0
        assert summary["final_dist_mean"] == pytest.approx(statistics.fmean(finals), abs=1e-12)
        assert summary["final_dist_std"] == pytest.approx(statistics.pstdev(finals), abs=1e-12)
        assert summary["log_slope"] is not None and summary["log_slope"] < 0.0
        assert 0.0 <= summary["r_squared"] <= 1.0

    def test_rerun_is_byte_identical(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict())
        a = run_experiment(cfg, out_dir=tmp_path / "a")
        b = run_experiment(cfg, out_dir=tmp_path / "b")
        for first, second in [
            (a.trajectory_csv, b.trajectory_csv),
            (a.mean_csv, b.mean_csv),
            (a.summary_json, b.summary_json),
        ]:
            assert first.read_bytes() == second.read_bytes()

    def test_parallel_jobs_do_not_change_output(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict())
        serial = run_experiment(cfg, out_dir=tmp_path / "serial", jobs=1)
        parallel = run_experiment(cfg, out_dir=tmp_path / "parallel", jobs=2)
        assert serial.trajectory_csv.read_bytes() == parallel.trajectory_csv.read_bytes()
        assert serial.summary_json.read_bytes() == parallel.summary_json.read_bytes()

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, tmp_path: Path, jobs: int) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict())
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(cfg, out_dir=tmp_path / "o", jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            sweep(cfg, SweepAxis.BETA, [0.3], out_dir=tmp_path / "sw", jobs=jobs)
        assert not (tmp_path / "o").exists() and not (tmp_path / "sw").exists()

    def test_worker_count_bounded_by_trials_and_cpus(self, monkeypatch) -> None:
        # The CPUs counted are those the process may run on (its affinity
        # mask), not every CPU of the host; cpu_count() is the fallback
        # where the mask cannot be read.
        monkeypatch.setattr(harness_module.os, "sched_getaffinity", lambda pid: {0, 2, 5, 7},
                            raising=False)
        monkeypatch.setattr(harness_module.os, "cpu_count", lambda: 64)
        assert harness_module._worker_count(10**9, 10**9) == 4
        assert harness_module._worker_count(10**9, 3) == 3
        assert harness_module._worker_count(2, 10**9) == 2
        assert harness_module._worker_count(1, 10**9) == 1
        monkeypatch.setattr(harness_module.os, "sched_getaffinity", lambda pid: {0})
        assert harness_module._worker_count(2, 10**9) == 1
        monkeypatch.delattr(harness_module.os, "sched_getaffinity")
        monkeypatch.setattr(harness_module.os, "cpu_count", lambda: 4)
        assert harness_module._worker_count(10**9, 10**9) == 4
        assert harness_module._worker_count(10**9, 3) == 3
        monkeypatch.setattr(harness_module.os, "cpu_count", lambda: None)
        assert harness_module._worker_count(10**9, 10**9) == 1

    def test_seed_changes_output(self, tmp_path: Path) -> None:
        base = ExperimentConfig.model_validate(_base_dict())
        other = ExperimentConfig.model_validate(_base_dict(**{"run.master_seed": 8}))
        a = run_experiment(base, out_dir=tmp_path / "a")
        b = run_experiment(other, out_dir=tmp_path / "b")
        assert a.trajectory_csv.read_bytes() != b.trajectory_csv.read_bytes()

    def test_diverged_trials_reported_and_excluded_from_means(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(
            _base_dict(
                **{
                    "env.head_mean": 10.0,
                    "hp.algo": "FO_MAML",
                    "hp.alpha": 0.5,
                    "hp.beta": 5.0,
                    "hp.iters": 30,
                    "init.scheme": "RANDOM",
                    "run.trials": 2,
                    "run.record_every": 1,
                }
            )
        )
        artifacts = run_experiment(cfg, out_dir=tmp_path / "div")
        summary = json.loads(artifacts.summary_json.read_text())
        diverged_trials = [i for i, r in enumerate(artifacts.results) if r.diverged]
        assert summary["diverged"] == len(diverged_trials) >= 1
        rows = _read_rows(artifacts.trajectory_csv)
        assert {int(r["trial"]) for r in rows} == {0, 1}  # truncated rows still present
        survivors = [i for i in range(2) if i not in diverged_trials]
        mean_rows = _read_rows(artifacts.mean_csv)
        if survivors:
            by_t: dict[int, list[float]] = {}
            for row in rows:
                if int(row["trial"]) in survivors:
                    by_t.setdefault(int(row["t"]), []).append(float(row["dist"]))
            assert [int(r["t"]) for r in mean_rows] == sorted(by_t)
            for row in mean_rows:
                assert float(row["dist_mean"]) == pytest.approx(
                    statistics.fmean(by_t[int(row["t"])]), abs=1e-9
                )
        else:
            assert mean_rows == []
            assert summary["final_dist_mean"] is None

    @pytest.mark.parametrize("mode", ["POPULATION", "FINITE"])
    def test_overflowing_heads_named_in_either_mode(self, tmp_path: Path, mode: str) -> None:
        # Finite heads whose squares overflow: a FINITE block checks its
        # heads' statistics before drawing data sets, so both modes blame
        # the heads rather than the data statistics they would give.
        cfg = ExperimentConfig.model_validate(
            _base_dict(**{"env.head_mean": 1e200, "env.noise_std": 0.1, "hp.mode": mode,
                          "hp.m_in": 10, "hp.m_out": 10, "hp.iters": 5, "run.trials": 1})
        )
        with pytest.raises(ValueError, match="task heads too large"):
            run_experiment(cfg, out_dir=tmp_path / mode)

    def test_hypothesis_summary_included_when_enabled(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict(checks={"hypcheck": True}))
        artifacts = run_experiment(cfg, out_dir=tmp_path / "hyp")
        summary = json.loads(artifacts.summary_json.read_text())
        assert set(summary["hyp_first_violation"]) == {"A1", "A2", "A3", "A4", "A5", "A6"}


class TestGradCheck:
    def test_exact_maml_population_passes_tightly(self) -> None:
        cfg = ExperimentConfig.model_validate(
            _base_dict(**{"hp.algo": "EXACT_MAML", "hp.iters": 5})
        )
        report = gradcheck(cfg)
        assert report.passed and report.status == "PASS"
        assert report.points == 20
        assert report.max_rel_err_head <= 1e-6
        assert report.max_rel_err_rep <= 1e-6

    def test_exact_anil_finite_passes(self) -> None:
        cfg = ExperimentConfig.model_validate(
            _base_dict(
                **{
                    "hp.algo": "EXACT_ANIL",
                    "hp.mode": "FINITE",
                    "hp.m_in": 9,
                    "hp.m_out": 8,
                    "hp.iters": 5,
                    "env.noise_std": 0.1,
                }
            )
        )
        report = gradcheck(cfg)
        assert report.passed
        assert max(report.max_rel_err_head, report.max_rel_err_rep) <= 1e-5

    @pytest.mark.parametrize("m_in, m_out", [(1, 2), (3, 5)])
    @pytest.mark.parametrize("algo", [a.value for a in Algorithm])
    def test_finite_passes_with_fewer_samples_than_dimensions(
        self, algo: str, m_in: int, m_out: int
    ) -> None:
        # d = 6: every sampled covariance is rank deficient.
        cfg = ExperimentConfig.model_validate(
            _base_dict(
                **{
                    "hp.algo": algo,
                    "hp.mode": "FINITE",
                    "hp.m_in": m_in,
                    "hp.m_out": m_out,
                    "hp.iters": 5,
                    "env.noise_std": 0.1,
                }
            )
        )
        report = gradcheck(cfg)
        assert report.passed
        assert max(report.max_rel_err_head, report.max_rel_err_rep) <= 1e-5

    def test_large_dimension_rejected(self) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict(**{"env.d": 12}))
        with pytest.raises(ConfigError, match="d"):
            gradcheck(cfg)

    def test_corrupted_gradients_fail(self, monkeypatch) -> None:
        import linrep.harness as harness_module

        true_fn = harness_module.meta_gradients

        def corrupted(params, env, batch, hp):
            gw, gB = true_fn(params, env, batch, hp)
            return gw + 1.0, gB

        monkeypatch.setattr(harness_module, "meta_gradients", corrupted)
        cfg = ExperimentConfig.model_validate(_base_dict())
        report = gradcheck(cfg)
        assert not report.passed and report.status == "FAIL"


class TestHypCheck:
    def test_writes_full_resolution_margin_table(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict(**{"hp.iters": 30}))
        result = hypcheck(cfg, out_dir=tmp_path / "hyp")
        lines = result.csv_path.read_text().splitlines()
        assert lines[0] == "t,a1,a2,a3,a4_lower,a4_upper,a5,a6"
        assert len(lines) == 32  # header + t = 0..30 despite record_every = 10
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[2] == "nan"  # a2 not evaluated at the first record
        assert set(result.report.first_violation) == {"A1", "A2", "A3", "A4", "A5", "A6"}

    def test_no_adaptation_baseline_violates_spectrum_condition_immediately(
        self, tmp_path: Path
    ) -> None:
        cfg = ExperimentConfig.model_validate(
            _base_dict(
                **{
                    "hp.algo": "AVG_RISK_MIN",
                    "hp.n": 4,
                    "hp.iters": 10,
                    "init.scheme": "NEAR_TRUTH",
                    "init.target_band": [0.2, 0.25],
                }
            )
        )
        result = hypcheck(cfg, out_dir=tmp_path / "avg")
        assert result.report.first_violation["A4"] == 1

    @pytest.mark.parametrize(
        "name", ["population_zero_mean", "population_mean10_near_truth",
                 "population_mean10_random_init"],
    )
    def test_summary_first_violations_equal_hypchecks(self, tmp_path: Path, name: str) -> None:
        # A2 and A5 bound one step: the summary takes every margin from the
        # every-step run of trial 0 that hypcheck makes, not from the run's
        # records, which are record_every steps apart.
        cfg = json.loads((SHIPPED_CONFIGS[0].parent / f"{name}.json").read_text())
        cfg["run"]["trials"], cfg["hp"]["iters"], cfg["checks"]["hypcheck"] = 1, 2000, True
        config = ExperimentConfig.model_validate(cfg)
        assert config.run.record_every == 10
        summary = run_experiment(config, out_dir=tmp_path / "run").summary
        report = hypcheck(config, out_dir=tmp_path / "hyp").report
        assert summary["hyp_first_violation"] == dict(report.first_violation)


class TestSweep:
    def _finite_cfg(self, **overrides) -> ExperimentConfig:
        base = _base_dict(
            **{
                "hp.mode": "FINITE",
                "hp.m_in": 20,
                "hp.m_out": 20,
                "hp.iters": 30,
                "env.noise_std": 0.1,
                "run.trials": 2,
            }
        )
        for key, value in overrides.items():
            block, _, field = key.partition(".")
            base[block][field] = value
        return ExperimentConfig.model_validate(base)

    def test_rows_written_one_per_value(self, tmp_path: Path) -> None:
        result = sweep(self._finite_cfg(), SweepAxis.M_OUT, [10, 40], out_dir=tmp_path / "sw")
        lines = result.csv_path.read_text().splitlines()
        assert lines[0] == "axis,value,final_dist_mean,plateau_dist,diverged,error"
        assert len(lines) == 3
        rows = _read_rows(result.csv_path)
        assert [r["value"] for r in rows] == ["10", "40"]
        assert all(r["error"] == "" for r in rows)
        assert all(float(r["plateau_dist"]) > 0 for r in rows)

    def test_singleton_matches_run_experiment(self, tmp_path: Path) -> None:
        cfg = self._finite_cfg()
        cell = sweep(cfg, SweepAxis.M_OUT, [20], out_dir=tmp_path / "sw").cells[0]
        direct = run_experiment(cfg, out_dir=tmp_path / "direct")
        direct_summary = json.loads(direct.summary_json.read_text())
        assert cell.final_dist_mean == pytest.approx(
            direct_summary["final_dist_mean"], abs=1e-15
        )

    def test_sample_size_axis_requires_finite_mode(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict())
        with pytest.raises(ConfigError, match="FINITE"):
            sweep(cfg, SweepAxis.M_OUT, [10], out_dir=tmp_path / "sw")

    def test_task_count_axis_allowed_in_population_mode(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict(**{"hp.iters": 20, "run.trials": 2}))
        result = sweep(cfg, SweepAxis.N, [2, 4], out_dir=tmp_path / "sw")
        assert [c.error for c in result.cells] == [None, None]

    def test_integral_float_values_fill_integer_count_fields(self, tmp_path: Path) -> None:
        # The CLI parses ``--values`` as floats; a sample-size cell still
        # validates, since the count fields take integers only.
        result = sweep(self._finite_cfg(**{"hp.iters": 5}), SweepAxis.M_OUT, [10.0, 40.0],
                       out_dir=tmp_path / "sw")
        assert [(c.value, c.error) for c in result.cells] == [("10", None), ("40", None)]

    def test_error_cells_recorded_without_aborting(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict(**{"hp.iters": 20, "run.trials": 2}))
        result = sweep(cfg, SweepAxis.BETA, [0.3, -1.0, 1e6], out_dir=tmp_path / "sw")
        rows = _read_rows(result.csv_path)
        assert len(rows) == 3
        assert rows[0]["error"] == "" and rows[0]["diverged"] == "0"
        assert rows[1]["error"] != ""  # invalid beta recorded, sweep continued
        assert rows[2]["error"] == "" and int(rows[2]["diverged"]) == 2  # blow-up counted
        assert rows[2]["final_dist_mean"] == ""  # no surviving trials

    def test_non_finite_values_become_cell_errors(self, tmp_path: Path) -> None:
        cfg = self._finite_cfg()
        beta = sweep(ExperimentConfig.model_validate(_base_dict(**{"hp.iters": 5})),
                     SweepAxis.BETA, [math.inf, math.nan], out_dir=tmp_path / "beta")
        m_out = sweep(cfg, SweepAxis.M_OUT, [math.inf], out_dir=tmp_path / "m_out")
        for cell in beta.cells + m_out.cells:
            assert cell.error is not None and cell.final_dist_mean is None
        assert "finite" in beta.cells[0].error


class TestEmitPlot:
    def test_experiment_output_renders_well_formed_svg(self, tmp_path: Path) -> None:
        cfg = ExperimentConfig.model_validate(_base_dict())
        artifacts = run_experiment(cfg, out_dir=tmp_path / "run")
        out = tmp_path / "plot.svg"
        emit_plot(artifacts.trajectory_csv, out)
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 4  # three trials plus the mean line
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert any("iteration" in (t or "") for t in texts)

    def test_two_row_csv_gives_single_two_point_polyline(self, tmp_path: Path) -> None:
        path = tmp_path / "mini.csv"
        path.write_text(
            TRAJECTORY_HEADER
            + "\n0,0,0.9,0,0,0,0,0,1\n10,0,0.5,0,0,0,0,0,1\n"
        )
        out = tmp_path / "mini.svg"
        emit_plot(path, out)
        root = ET.parse(out).getroot()
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1
        assert len(polylines[0].attrib["points"].split()) == 2

    def test_zero_distance_clamped(self, tmp_path: Path) -> None:
        path = tmp_path / "zero.csv"
        path.write_text(
            TRAJECTORY_HEADER
            + "\n0,0,1.0,0,0,0,0,0,1\n5,0,0.0,0,0,0,0,0,1\n"
        )
        out = tmp_path / "zero.svg"
        emit_plot(path, out)
        text = out.read_text()
        assert "nan" not in text and "inf" not in text
        assert ET.parse(out).getroot() is not None

    def test_header_mismatch_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "bad.csv"
        path.write_text("t,trial,dist\n0,0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            emit_plot(path, tmp_path / "bad.svg")

    @pytest.mark.parametrize(
        "row",
        ["10,0", "10,0,far,0,0,0,0,0,1", "ten,0,0.5,0,0,0,0,0,1", "10,0,inf,0,0,0,0,0,1",
         "10,0,nan,0,0,0,0,0,1"],
        ids=["short", "non-numeric-dist", "non-integer-t", "infinite-dist", "nan-dist"],
    )
    def test_malformed_row_rejected_naming_file_and_line(self, tmp_path: Path, row) -> None:
        path = tmp_path / "rows.csv"
        path.write_text(TRAJECTORY_HEADER + "\n0,0,0.9,0,0,0,0,0,1\n" + row + "\n")
        with pytest.raises(ValueError, match=r"rows\.csv line 3"):
            emit_plot(path, tmp_path / "rows.svg")
        assert not (tmp_path / "rows.svg").exists()

    def test_empty_data_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "empty.csv"
        path.write_text(TRAJECTORY_HEADER + "\n")
        with pytest.raises(ValueError, match="no data"):
            emit_plot(path, tmp_path / "empty.svg")
