"""Experiment harness: validated JSON configs, seeded multi-trial runs with
CSV/JSON artifacts, gradient and trajectory-condition checkers, sample-size
sweeps, and SVG plotting.

All artifacts are byte-deterministic functions of (config, master seed):
trials derive independent substreams from ``hash(master_seed, trial, role)``,
results are gathered and written by a single writer in trial order, and
floats are printed with 17 significant digits so CSV round-trips exactly.
"""
from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Literal

import numpy as np
from pydantic import BaseModel, ConfigDict, Field, ValidationError, model_validator

from .algorithms import RunResult, _sample_rounds, meta_gradients, run_trajectory
from .env import TaskEnvironment, sample_environment
from .metrics import HypothesisReport, check_hypotheses, fit_log_linear_rate
from .model import (
    Algorithm,
    HyperParams,
    InitScheme,
    Mode,
    ModelParams,
    finite_task_loss,
    fs_grad_B,
    fs_grad_w,
    init_model,
    pop_grad_B,
    pop_grad_w,
    population_task_loss,
    rate_matched_alpha,
)
from .rng import standard_normal, substream

__all__ = [
    "ConfigError",
    "EnvConfig",
    "HpConfig",
    "InitConfig",
    "RunConfig",
    "ChecksConfig",
    "ExperimentConfig",
    "ExperimentArtifacts",
    "GradCheckReport",
    "HypCheckResult",
    "SweepAxis",
    "SweepCell",
    "SweepResult",
    "load_config",
    "dump_config",
    "resolve_hyper",
    "run_experiment",
    "gradcheck",
    "hypcheck",
    "sweep",
    "emit_plot",
]

TRAJECTORY_HEADER = "t,trial,dist,delta_norm,w_norm,psi_min,psi_max,bperp_norm,loss"
MEAN_HEADER = "t,dist_mean,dist_std"
HYPOTHESES_HEADER = "t,a1,a2,a3,a4_lower,a4_upper,a5,a6"
SWEEP_HEADER = "axis,value,final_dist_mean,plateau_dist,diverged,error"

_SUMMARY_KEYS = (
    "final_dist_mean",
    "final_dist_std",
    "diverged",
    "log_slope",
    "r_squared",
    "hyp_first_violation",
)

_DIST_FLOOR = 1e-16
_GRADCHECK_POINTS = 20
_GRADCHECK_TOL = 1e-5
_FD_STEP = 1e-5


class ConfigError(ValueError):
    """Invalid configuration file or configuration-dependent precondition."""


# --------------------------------------------------------------------------
# Configuration schema
# --------------------------------------------------------------------------

class _Block(BaseModel):
    """Config block policy: unknown keys, mutation and non-finite numbers
    are rejected; a count field (``strict=True``) takes an integer only, not a
    bool or a float such as ``3.0``."""

    model_config = ConfigDict(extra="forbid", frozen=True, allow_inf_nan=False)


class EnvConfig(_Block):
    """Task environment block."""

    d: int = Field(ge=2, strict=True)
    k: int = Field(ge=1, strict=True)
    head_mean: float | tuple[float, ...] = 0.0
    head_scale: float = Field(default=1.0, ge=0.0)
    noise_std: float = Field(default=0.0, ge=0.0)

    @model_validator(mode="after")
    def _check(self) -> "EnvConfig":
        if self.k >= self.d:
            raise ValueError(f"k must be smaller than d, got k={self.k}, d={self.d}")
        if isinstance(self.head_mean, tuple) and len(self.head_mean) != self.k:
            raise ValueError(
                f"head_mean vector must have length k={self.k}, got {len(self.head_mean)}"
            )
        return self


class HpConfig(_Block):
    """Algorithm and step-size block; ``alpha`` may be the literal "auto"
    to request the horizon-matched inner step size."""

    algo: Algorithm
    mode: Mode
    alpha: float | Literal["auto"]
    alpha_auto_constant: float = Field(default=0.25, gt=0.0)
    beta: float = Field(gt=0.0)
    n: int = Field(ge=1, strict=True)
    m_in: int = Field(default=0, ge=0, strict=True)
    m_out: int = Field(default=0, ge=0, strict=True)
    iters: int = Field(ge=0, strict=True)

    @model_validator(mode="after")
    def _check(self) -> "HpConfig":
        if self.alpha != "auto" and self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive or 'auto', got {self.alpha}")
        if self.mode is Mode.FINITE and (self.m_in < 1 or self.m_out < 1):
            raise ValueError(
                f"FINITE mode requires m_in >= 1 and m_out >= 1, "
                f"got m_in={self.m_in}, m_out={self.m_out}"
            )
        return self


class InitConfig(_Block):
    """Initialization block."""

    scheme: InitScheme = InitScheme.SPEC
    target_band: tuple[float, float] | None = None

    @model_validator(mode="after")
    def _check(self) -> "InitConfig":
        if self.scheme is InitScheme.NEAR_TRUTH and self.target_band is None:
            raise ValueError("NEAR_TRUTH initialization requires target_band")
        if self.target_band is not None:
            lo, hi = self.target_band
            if not 0.0 < lo < hi < 1.0:
                raise ValueError(f"target_band must satisfy 0 < lo < hi < 1, got {self.target_band}")
        return self


class RunConfig(_Block):
    """Trial-count, seeding, and output block."""

    trials: int = Field(default=5, ge=1, strict=True)
    master_seed: int = Field(default=0, ge=0, strict=True)
    record_every: int = Field(default=10, ge=1, strict=True)
    output_dir: str = "out"


class ChecksConfig(_Block):
    """Optional checks attached to a run."""

    gradcheck: bool = False
    hypcheck: bool = False
    hyp_constant_C_A1: float = Field(default=1.0, gt=0.0)


class ExperimentConfig(_Block):
    """Complete experiment description (the JSON file's top level)."""

    env: EnvConfig
    hp: HpConfig
    init: InitConfig = Field(default_factory=InitConfig)
    run: RunConfig = Field(default_factory=RunConfig)
    checks: ChecksConfig = Field(default_factory=ChecksConfig)

    @model_validator(mode="after")
    def _check(self) -> "ExperimentConfig":
        resolve_hyper(self)  # fails on an alpha='auto' the config leaves undefined
        return self


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and fully validate a JSON experiment config.

    Raises ``ConfigError`` with the JSON line/column for parse errors, or
    with the offending field name for schema violations (unknown keys
    included).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON: {exc.msg} at line {exc.lineno}, "
            f"column {exc.colno}"
        ) from exc
    try:
        return ExperimentConfig.model_validate(data)
    except ValidationError as exc:
        raise ConfigError(f"invalid config {path}:\n{exc}") from exc


def dump_config(config: ExperimentConfig) -> str:
    """Serialize a config to canonical JSON text (round-trips via
    ``load_config``)."""
    return json.dumps(config.model_dump(mode="json"), indent=2, sort_keys=True) + "\n"


def resolve_hyper(config: ExperimentConfig) -> HyperParams:
    """Build concrete hyperparameters, resolving ``alpha = "auto"`` to the
    horizon-matched step size using the configured head-distribution scale;
    a ``ConfigError`` names ``hp.alpha`` where the config leaves it undefined."""
    hp = config.hp
    if hp.alpha == "auto":
        mean = np.asarray(config.env.head_mean, dtype=float)
        mean_sq = float(np.sum(mean**2)) if mean.ndim else float(mean) ** 2 * config.env.k
        l_star = math.sqrt(config.env.head_scale**2 + mean_sq)
        try:
            alpha = rate_matched_alpha(config.env.k, l_star, hp.iters, hp.alpha_auto_constant)
        except ValueError as exc:
            raise ConfigError(f"hp.alpha='auto' needs hp.iters >= 1 and a nonzero head"
                              f" distribution (env.head_scale, env.head_mean): {exc}") from exc
    else:
        alpha = float(hp.alpha)
    return HyperParams(**hp.model_dump(exclude={"alpha", "alpha_auto_constant"}), alpha=alpha)


# --------------------------------------------------------------------------
# Experiment runner
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing analytic outer gradients to finite differences."""

    algo: Algorithm
    mode: Mode
    points: int
    tolerance: float
    max_rel_err_head: float
    max_rel_err_rep: float
    passed: bool

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass(frozen=True)
class ExperimentArtifacts:
    """Paths and in-memory results produced by ``run_experiment``."""

    out_dir: Path
    trajectory_csv: Path
    mean_csv: Path
    summary_json: Path
    results: tuple[RunResult, ...]
    summary: dict
    gradcheck_report: GradCheckReport | None = None


def _build_env(config: ExperimentConfig, trial: int) -> TaskEnvironment:
    e = config.env
    return sample_environment(
        e.d,
        e.k,
        head_mean=np.asarray(e.head_mean, dtype=float),
        head_scale=e.head_scale,
        noise_std=e.noise_std,
        rng=substream(config.run.master_seed, trial, "env"),
    )


def _run_trial(config: ExperimentConfig, trial: int, record_every: int | None = None) -> RunResult:
    """Run one trial; ``record_every`` defaults to the config's schedule."""
    env = _build_env(config, trial)
    hp = resolve_hyper(config)
    init = init_model(
        env,
        hp.alpha,
        config.init.scheme,
        substream(config.run.master_seed, trial, "init"),
        target_band=config.init.target_band,
    )
    return run_trajectory(
        env,
        hp,
        init,
        substream(config.run.master_seed, trial, "tasks"),
        record_every=config.run.record_every if record_every is None else record_every,
    )


def _hypothesis_report(
    config: ExperimentConfig, hp: HyperParams, result: RunResult
) -> HypothesisReport:
    """Trajectory-condition margins of one trial's recorded run."""
    return check_hypotheses(
        result.trajectory,
        hp,
        result.head_stats,
        float(result.trajectory.dist[0]),
        c_a1=config.checks.hyp_constant_C_A1,
    )


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ")
    if isinstance(value, int):
        return str(value)
    return _fmt(value)


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header`` and one comma-joined line of cells per row."""
    lines = [header, *(",".join(_csv_cell(value) for value in row) for row in rows)]
    path.write_text("\n".join(lines) + "\n")


def _survivors(results: tuple[RunResult, ...]) -> list[RunResult]:
    return [result for result in results if not result.diverged]


def _mean_series(results: tuple[RunResult, ...]) -> tuple[list[int], list[float], list[float]]:
    """Per-iteration mean/std of dist over trials that never diverged."""
    alive = _survivors(results)
    if not alive:
        return [], [], []
    ts = alive[0].trajectory.t.tolist()
    stacked = np.array([result.trajectory.dist for result in alive])
    return ts, np.mean(stacked, axis=0).tolist(), np.std(stacked, axis=0).tolist()


def _summarize(config: ExperimentConfig, hp: HyperParams, results: tuple[RunResult, ...]) -> dict:
    alive = _survivors(results)
    finals = [result.trajectory.dist[-1] for result in alive]
    summary: dict = {
        "final_dist_mean": float(np.mean(finals)) if finals else None,
        "final_dist_std": float(np.std(finals)) if finals else None,
        "diverged": len(results) - len(alive),
        "log_slope": None,
        "r_squared": None,
        "hyp_first_violation": None,
    }
    ts, means, _ = _mean_series(results)
    if means:
        clamped = np.maximum(np.asarray(means), _DIST_FLOOR)
        try:
            slope, r_squared = fit_log_linear_rate(clamped, 0.5, iters=ts)
        except ValueError:
            pass
        else:
            summary["log_slope"] = float(slope)
            summary["r_squared"] = float(r_squared)
    if config.checks.hypcheck and results:
        report = _hypothesis_report(config, hp, results[0])
        summary["hyp_first_violation"] = dict(report.first_violation)
    assert tuple(summary) == _SUMMARY_KEYS
    return summary


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _worker_count(jobs: int, trials: int) -> int:
    """Pool size for ``jobs`` requested workers: never more processes than
    trials or CPUs this process may run on, since the pool starts all of its
    workers at once."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(jobs, trials, cpus or 1)


def _out_dir(config: ExperimentConfig, out_dir: str | Path | None) -> Path:
    """``out_dir`` (default: the config's output_dir), created if missing."""
    out = Path(out_dir) if out_dir is not None else Path(config.run.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_experiment(
    config: ExperimentConfig, *, out_dir: str | Path | None = None, jobs: int = 1
) -> ExperimentArtifacts:
    """Run the configured trials and write trajectory.csv, mean.csv, and
    summary.json into ``out_dir`` (default: the config's output_dir).

    Trials use independent substreams of the master seed and may execute in
    a process pool of up to ``jobs`` workers (bounded by the trial and CPU
    counts); files are written by this single writer in trial order, so
    output bytes do not depend on scheduling.  Divergent trials are
    reported in the summary and excluded from mean.csv, but their truncated
    trajectories still appear in trajectory.csv.
    """
    _check_jobs(jobs)
    hp = resolve_hyper(config)  # surfaces alpha='auto' problems before any work
    out = _out_dir(config, out_dir)
    trials = config.run.trials
    workers = _worker_count(jobs, trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(_run_trial, [config] * trials, range(trials)))
    else:
        results = tuple(_run_trial(config, trial) for trial in range(trials))

    trajectory_csv = out / "trajectory.csv"
    mean_csv = out / "mean.csv"
    summary_json = out / "summary.json"
    columns = ["t", *TRAJECTORY_HEADER.split(",")[2:]]  # the header's, without ``trial``
    rows = (
        (t, trial, *diagnostics)
        for trial, result in enumerate(results)
        for t, *diagnostics in result.trajectory[columns].tolist()
    )
    _write_csv(trajectory_csv, TRAJECTORY_HEADER, rows)
    _write_csv(mean_csv, MEAN_HEADER, zip(*_mean_series(results)))
    summary = _summarize(config, hp, results)
    summary_json.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    report = gradcheck(config) if config.checks.gradcheck else None
    return ExperimentArtifacts(
        out_dir=out,
        trajectory_csv=trajectory_csv,
        mean_csv=mean_csv,
        summary_json=summary_json,
        results=results,
        summary=summary,
        gradcheck_report=report,
    )


# --------------------------------------------------------------------------
# Gradient check
# --------------------------------------------------------------------------

def _central_diff(f, x: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(x, dtype=float)
    for idx in np.ndindex(x.shape):
        upper = x.copy()
        lower = x.copy()
        upper[idx] += _FD_STEP
        lower[idx] -= _FD_STEP
        grad[idx] = (f(upper) - f(lower)) / (2.0 * _FD_STEP)
    return grad


def _rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(exact)), 1e-12)
    return float(np.linalg.norm(approx - exact)) / scale


def _task_inner_grads(params: ModelParams, env, batch, i: int, mode: Mode):
    if mode is Mode.POPULATION:
        return (
            pop_grad_w(params, env, batch.heads[i]),
            pop_grad_B(params, env, batch.heads[i]),
        )
    return fs_grad_w(params, batch.inner_sets[i]), fs_grad_B(params, batch.inner_sets[i])


def _fd_meta_gradient(params: ModelParams, env, batch, hp: HyperParams):
    """Finite-difference reference for the averaged outer gradient, built
    from the loss primitives rather than the closed-form updates."""
    n = batch.n
    acc_head = np.zeros_like(params.head)
    acc_rep = np.zeros_like(params.rep)
    for i in range(n):
        if hp.mode is Mode.POPULATION:
            head_true = batch.heads[i]

            def loss(rep, head):
                return population_task_loss(ModelParams(rep=rep, head=head), env, head_true)
        else:
            ds_out = batch.outer_sets[i]

            def loss(rep, head):
                return finite_task_loss(ModelParams(rep=rep, head=head), ds_out)

        if hp.algo is Algorithm.AVG_RISK_MIN:
            objective, point = loss, params
        elif hp.algo in (Algorithm.FO_ANIL, Algorithm.FO_MAML):
            # First-order variants: plain loss differentiated at the
            # (held fixed) adapted point.
            grad_head, grad_rep = _task_inner_grads(params, env, batch, i, hp.mode)
            point = ModelParams(
                rep=params.rep - hp.alpha * grad_rep
                if hp.algo is Algorithm.FO_MAML
                else params.rep,
                head=params.head - hp.alpha * grad_head,
            )
            objective = loss
        elif hp.algo is Algorithm.EXACT_ANIL:
            def objective(rep, head, loss=loss, i=i):
                inner = ModelParams(rep=rep, head=head)
                grad_head, _ = _task_inner_grads(inner, env, batch, i, hp.mode)
                return loss(rep, head - hp.alpha * grad_head)

            point = params
        else:  # EXACT_MAML: differentiate straight through the inner step
            def objective(rep, head, loss=loss, i=i):
                inner = ModelParams(rep=rep, head=head)
                grad_head, grad_rep = _task_inner_grads(inner, env, batch, i, hp.mode)
                return loss(rep - hp.alpha * grad_rep, head - hp.alpha * grad_head)

            point = params
        acc_head += _central_diff(lambda h: objective(point.rep, h), point.head) / n
        acc_rep += _central_diff(lambda r: objective(r, point.head), point.rep) / n
    return acc_head, acc_rep


def gradcheck(config: ExperimentConfig) -> GradCheckReport:
    """Compare the closed-form outer gradients against central finite
    differences of the meta-objective at random points.

    Enforces d <= 10 and k <= 4 (the check costs O(dk) loss evaluations per
    point).  FAIL when any block's relative error exceeds 1e-5 or is not
    finite.
    """
    e = config.env
    if e.d > 10 or e.k > 4:
        raise ConfigError(f"gradcheck requires d <= 10 and k <= 4, got d={e.d}, k={e.k}")
    hp = resolve_hyper(config)
    env = _build_env(config, 0)
    rng = substream(config.run.master_seed, "gradcheck")
    worst_head = 0.0
    worst_rep = 0.0
    for _ in range(_GRADCHECK_POINTS):
        params = ModelParams(
            rep=standard_normal(rng, (e.d, e.k)), head=standard_normal(rng, (e.k,))
        )
        (batch,) = _sample_rounds(env, hp, rng, 1)
        grad_head, grad_rep = meta_gradients(params, env, batch, hp)
        fd_head, fd_rep = _fd_meta_gradient(params, env, batch, hp)
        # np.maximum keeps a NaN error (builtin max drops it); NaN then
        # fails the tolerance comparison below.
        worst_head = float(np.maximum(worst_head, _rel_err(grad_head, fd_head)))
        worst_rep = float(np.maximum(worst_rep, _rel_err(grad_rep, fd_rep)))
    return GradCheckReport(
        algo=hp.algo,
        mode=hp.mode,
        points=_GRADCHECK_POINTS,
        tolerance=_GRADCHECK_TOL,
        max_rel_err_head=worst_head,
        max_rel_err_rep=worst_rep,
        passed=worst_head <= _GRADCHECK_TOL and worst_rep <= _GRADCHECK_TOL,
    )


# --------------------------------------------------------------------------
# Trajectory-condition check
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HypCheckResult:
    """Margin table location and report from a full-resolution run."""

    csv_path: Path
    report: HypothesisReport
    run: RunResult


def hypcheck(config: ExperimentConfig, *, out_dir: str | Path | None = None) -> HypCheckResult:
    """Run trial 0 with per-iteration recording, evaluate the six
    trajectory-condition margins, and write hypotheses.csv."""
    result = _run_trial(config, 0, record_every=1)
    report = _hypothesis_report(config, resolve_hyper(config), result)
    out = _out_dir(config, out_dir)
    csv_path = out / "hypotheses.csv"
    rows = zip(report.iters, report.a1, report.a2, report.a3,
               report.a4_lower, report.a4_upper, report.a5, report.a6)
    _write_csv(csv_path, HYPOTHESES_HEADER, rows)
    return HypCheckResult(csv_path=csv_path, report=report, run=result)


# --------------------------------------------------------------------------
# Sample-size sweep
# --------------------------------------------------------------------------

class SweepAxis(str, Enum):
    M_IN = "M_IN"
    M_OUT = "M_OUT"
    N = "N"
    BETA = "BETA"


@dataclass(frozen=True)
class SweepCell:
    """One row of sweep.csv."""

    axis: SweepAxis
    value: str
    final_dist_mean: float | None
    plateau_dist: float | None
    diverged: int | None
    error: str | None


@dataclass(frozen=True)
class SweepResult:
    csv_path: Path
    cells: tuple[SweepCell, ...]


def _value_label(axis: SweepAxis, value) -> str:
    if axis is SweepAxis.BETA:
        return repr(float(value))
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _cell_config(config: ExperimentConfig, axis: SweepAxis, value) -> ExperimentConfig:
    if axis is not SweepAxis.BETA and not float(value).is_integer():
        raise ConfigError(f"{axis.value} sweep values must be integers, got {value}")
    coerced = float(value) if axis is SweepAxis.BETA else int(value)
    data = config.hp.model_dump()
    data[axis.value.lower()] = coerced  # each axis names its HpConfig field
    try:
        hp = HpConfig.model_validate(data)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    return config.model_copy(update={"hp": hp})


def _plateau(results: tuple[RunResult, ...], iters: int) -> float | None:
    """Mean recorded dist over the last 10% of iterations, pooled over
    trials that never diverged."""
    cutoff = 0.9 * iters
    trajectories = [result.trajectory for result in _survivors(results)]
    values = np.concatenate([np.empty(0), *(traj.dist[traj.t >= cutoff] for traj in trajectories)])
    return float(np.mean(values)) if values.size else None


def sweep(
    config: ExperimentConfig,
    axis: SweepAxis,
    values,
    *,
    out_dir: str | Path | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Run one experiment per value of the swept hyperparameter and write a
    one-row-per-value sweep.csv.

    Sample-size axes (M_IN, M_OUT) require FINITE mode.  A failing cell
    (a non-finite value included) records its error message and the sweep
    continues; cells where every trial diverged report the divergence count
    with empty statistics.
    """
    _check_jobs(jobs)
    axis = SweepAxis(axis)
    if axis in (SweepAxis.M_IN, SweepAxis.M_OUT) and config.hp.mode is not Mode.FINITE:
        raise ConfigError(f"{axis.value} sweep requires FINITE mode")
    out = _out_dir(config, out_dir)
    cells: list[SweepCell] = []
    for value in values:
        label = _value_label(axis, value)
        stats = dict(final_dist_mean=None, plateau_dist=None, diverged=None, error=None)
        try:
            cell_config = _cell_config(config, axis, value)
            artifacts = run_experiment(
                cell_config,
                out_dir=out / f"{axis.value.lower()}_{label}",
                jobs=jobs,
            )
            stats.update(
                final_dist_mean=artifacts.summary["final_dist_mean"],
                plateau_dist=_plateau(artifacts.results, cell_config.hp.iters),
                diverged=artifacts.summary["diverged"],
            )
        except Exception as exc:
            stats["error"] = str(exc) or type(exc).__name__
        cells.append(SweepCell(axis=axis, value=label, **stats))
    csv_path = out / "sweep.csv"
    rows = ((c.axis.value, c.value, c.final_dist_mean, c.plateau_dist, c.diverged, c.error)
            for c in cells)
    _write_csv(csv_path, SWEEP_HEADER, rows)
    return SweepResult(csv_path=csv_path, cells=tuple(cells))


# --------------------------------------------------------------------------
# SVG plotting
# --------------------------------------------------------------------------

_SVG_WIDTH = 800
_SVG_HEIGHT = 500
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 150
_MARGIN_TOP = 20
_MARGIN_BOTTOM = 50
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2")


def emit_plot(csv_path: str | Path, out_path: str | Path) -> Path:
    """Render trajectory.csv as a self-contained SVG.

    x is the iteration, y is dist on a log10 scale clamped below at 1e-16;
    one polyline per trial plus a bold mean line when there are at least
    two trials.  A file that does not start with the trajectory header, or
    a row whose first three fields are not integer ``t,trial`` and a finite
    ``dist``, raises ``ValueError`` naming the file (and the line).
    """
    csv_path = Path(csv_path)
    lines = csv_path.read_text().splitlines()
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise ValueError(
            f"{csv_path} does not start with the trajectory header {TRAJECTORY_HEADER!r}"
        )
    series: dict[int, list[tuple[int, float]]] = {}
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        try:
            t, trial, dist = int(parts[0]), int(parts[1]), float(parts[2])
        except (IndexError, ValueError):
            dist = math.nan
        if not math.isfinite(dist):
            raise ValueError(
                f"{csv_path} line {number}: expected integer t and trial and a finite "
                f"dist, got {line!r}"
            )
        series.setdefault(trial, []).append((t, max(dist, _DIST_FLOOR)))
    if not series:
        raise ValueError(f"{csv_path} contains no data rows")

    all_t = [t for points in series.values() for t, _ in points]
    all_logs = [math.log10(dist) for points in series.values() for _, dist in points]
    x_lo, x_hi = min(all_t), max(all_t)
    if x_lo == x_hi:
        x_hi = x_lo + 1
    y_lo = math.floor(min(all_logs))
    y_hi = math.ceil(max(all_logs))
    if y_lo == y_hi:
        y_lo -= 1
        y_hi += 1

    def sx(t: float) -> float:
        span = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
        return _MARGIN_LEFT + (t - x_lo) / (x_hi - x_lo) * span

    def sy(log_value: float) -> float:
        span = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
        return _MARGIN_TOP + (y_hi - log_value) / (y_hi - y_lo) * span

    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(_SVG_WIDTH),
            "height": str(_SVG_HEIGHT),
            "viewBox": f"0 0 {_SVG_WIDTH} {_SVG_HEIGHT}",
        },
    )
    ET.SubElement(root, "rect", {"x": "0", "y": "0", "width": str(_SVG_WIDTH),
                                 "height": str(_SVG_HEIGHT), "fill": "white"})
    axis_style = {"stroke": "black", "stroke-width": "1"}
    x_axis_y = sy(y_lo)
    ET.SubElement(root, "line", {"x1": f"{sx(x_lo):.2f}", "y1": f"{x_axis_y:.2f}",
                                 "x2": f"{sx(x_hi):.2f}", "y2": f"{x_axis_y:.2f}", **axis_style})
    ET.SubElement(root, "line", {"x1": f"{sx(x_lo):.2f}", "y1": f"{sy(y_hi):.2f}",
                                 "x2": f"{sx(x_lo):.2f}", "y2": f"{x_axis_y:.2f}", **axis_style})

    tick_step = max(1, (y_hi - y_lo) // 8)
    for power in range(y_lo, y_hi + 1, tick_step):
        y = sy(power)
        ET.SubElement(root, "line", {"x1": f"{sx(x_lo) - 5:.2f}", "y1": f"{y:.2f}",
                                     "x2": f"{sx(x_lo):.2f}", "y2": f"{y:.2f}", **axis_style})
        label = ET.SubElement(root, "text", {"x": f"{sx(x_lo) - 8:.2f}", "y": f"{y + 4:.2f}",
                                             "text-anchor": "end", "font-size": "12"})
        label.text = f"1e{power}"
    for tick in sorted({int(round(v)) for v in np.linspace(x_lo, x_hi, 5)}):
        x = sx(tick)
        ET.SubElement(root, "line", {"x1": f"{x:.2f}", "y1": f"{x_axis_y:.2f}",
                                     "x2": f"{x:.2f}", "y2": f"{x_axis_y + 5:.2f}", **axis_style})
        label = ET.SubElement(root, "text", {"x": f"{x:.2f}", "y": f"{x_axis_y + 20:.2f}",
                                             "text-anchor": "middle", "font-size": "12"})
        label.text = str(tick)

    x_label = ET.SubElement(root, "text", {
        "x": f"{(_MARGIN_LEFT + _SVG_WIDTH - _MARGIN_RIGHT) / 2:.2f}",
        "y": f"{_SVG_HEIGHT - 12}", "text-anchor": "middle", "font-size": "14"})
    x_label.text = "iteration"
    y_label = ET.SubElement(root, "text", {
        "x": "18", "y": f"{_SVG_HEIGHT / 2:.2f}", "text-anchor": "middle",
        "font-size": "14", "transform": f"rotate(-90 18 {_SVG_HEIGHT / 2:.2f})"})
    y_label.text = "dist (log10)"

    def polyline(points: list[tuple[int, float]], stroke: str, width: str) -> None:
        coords = " ".join(f"{sx(t):.2f},{sy(math.log10(dist)):.2f}" for t, dist in points)
        ET.SubElement(root, "polyline", {"points": coords, "fill": "none",
                                         "stroke": stroke, "stroke-width": width})

    legend_x = _SVG_WIDTH - _MARGIN_RIGHT + 15
    legend_y = _MARGIN_TOP + 10
    for slot, trial in enumerate(sorted(series)):
        color = _PALETTE[slot % len(_PALETTE)]
        polyline(series[trial], color, "1")
        entry = ET.SubElement(root, "text", {"x": str(legend_x), "y": str(legend_y + 16 * slot),
                                             "font-size": "12", "fill": color})
        entry.text = f"trial {trial}"
    if len(series) >= 2:
        by_t: dict[int, list[float]] = {}
        for points in series.values():
            for t, dist in points:
                by_t.setdefault(t, []).append(dist)
        mean_points = [(t, sum(vals) / len(vals)) for t, vals in sorted(by_t.items())]
        polyline(mean_points, "black", "2.5")
        entry = ET.SubElement(root, "text", {
            "x": str(legend_x), "y": str(legend_y + 16 * len(series)),
            "font-size": "12", "fill": "black"})
        entry.text = "mean"

    out_path = Path(out_path)
    out_path.write_text(ET.tostring(root, encoding="unicode") + "\n")
    return out_path
