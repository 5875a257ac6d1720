"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single ``acceptance criterion N: PASS/FAIL`` line with
the measured quantities before asserting, so the verdict and its evidence
appear together in captured output.

Criterion 1's tail-fit sub-clause is expected to fail: at these step sizes
the mean subspace distance reaches the float64 representable floor
(~1e-15) around iteration 3500 of 10000, so a log-linear fit over the last
half of the run measures rounding noise rather than decay.  The failure
message carries the measured floor-entry iterations and the decay-phase
fit quality; see README.md for the full analysis.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from linrep.algorithms import run_trajectory, step_for
from linrep.env import sample_environment, sample_task_batch
from linrep.harness import (
    ExperimentConfig,
    SweepAxis,
    gradcheck,
    run_experiment,
    sweep,
)
from linrep.metrics import (
    fit_log_linear_rate,
    orth_complement,
    principal_angle_dist,
    qr_orthonormalize,
    spectral_norm,
)
from linrep.model import (
    Algorithm,
    HyperParams,
    InitScheme,
    Mode,
    init_model,
)
from linrep.rng import standard_normal, substream

SEED = 20260823
GBML = ("FO_ANIL", "EXACT_ANIL", "FO_MAML", "EXACT_MAML")
ITERS = 10_000
FLOOR = 1e-12  # mean dist below this counts as numerically floored


def _report(criterion: str, passed: bool, details: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if passed else 'FAIL'} — {details}")


def _population_config(algo: str, **env_overrides) -> ExperimentConfig:
    env = {"d": 20, "k": 3, "head_mean": 0.0, "head_scale": 1.0, "noise_std": 0.0}
    env.update(env_overrides)
    return ExperimentConfig.model_validate(
        {
            "env": env,
            "hp": {
                "algo": algo,
                "mode": "POPULATION",
                "alpha": 0.1,
                "beta": 0.1,
                "n": 3,
                "iters": ITERS,
            },
            "init": {"scheme": "SPEC"},
            "run": {"trials": 5, "master_seed": SEED, "record_every": 10},
        }
    )


def _mean_shifted_config(algo: str, scheme: str) -> ExperimentConfig:
    init = {"scheme": scheme}
    if scheme == "NEAR_TRUTH":
        init["target_band"] = (0.65, 0.70)
    return ExperimentConfig.model_validate(
        {
            "env": {
                "d": 20,
                "k": 3,
                "head_mean": (10.0, 10.0, 10.0),
                "head_scale": 1.0,
                "noise_std": 0.0,
            },
            "hp": {
                "algo": algo,
                "mode": "POPULATION",
                "alpha": 0.05,
                "beta": 0.05,
                "n": 3,
                "iters": ITERS,
            },
            "init": init,
            "run": {"trials": 5, "master_seed": SEED, "record_every": 10},
        }
    )


@pytest.fixture(scope="module")
def population_runs(tmp_path_factory):
    """The five shared population runs (four adaptation algorithms plus the
    no-adaptation baseline), timed together for the runtime clause."""
    root = tmp_path_factory.mktemp("population")
    artifacts = {}
    start = time.perf_counter()
    for algo in GBML + ("AVG_RISK_MIN",):
        artifacts[algo] = run_experiment(
            _population_config(algo), out_dir=root / algo.lower()
        )
    return {"artifacts": artifacts, "runtime": time.perf_counter() - start}


def _mean_dist_series(artifacts) -> tuple[np.ndarray, np.ndarray]:
    """Per-record mean dist over trials (grids align: no divergence)."""
    runs = [res.trajectory for res in artifacts.results]
    ts = np.array([rec.t for rec in runs[0]])
    dists = np.array([[rec.dist for rec in run] for run in runs])
    return ts, dists.mean(axis=0)


def test_criterion_1_population_convergence_tail_fit_and_baseline(population_runs):
    artifacts = population_runs["artifacts"]
    runtime = population_runs["runtime"]
    failures = []

    finals = {a: artifacts[a].summary["final_dist_mean"] for a in GBML}
    for algo, final in finals.items():
        if not final < 1e-3:
            failures.append(f"{algo} final mean dist {final:.3e} >= 1e-3")

    r_squared = {a: artifacts[a].summary["r_squared"] for a in GBML}
    floor_entry = {}
    decay_r2 = {}
    for algo in GBML:
        ts, mean_dist = _mean_dist_series(artifacts[algo])
        floored = ts[mean_dist <= FLOOR]
        floor_entry[algo] = int(floored[0]) if floored.size else None
        decaying = mean_dist > FLOOR
        _, decay_r2[algo] = fit_log_linear_rate(
            np.maximum(mean_dist[decaying], 1e-16), 0.5, iters=ts[decaying]
        )
        if not (r_squared[algo] is not None and r_squared[algo] >= 0.95):
            failures.append(
                f"{algo} tail-fit R^2 {r_squared[algo]:.3f} < 0.95 over t in "
                f"[{ITERS // 2}, {ITERS}] (mean dist floors at ~1e-15 from "
                f"t={floor_entry[algo]}; decay-phase fit R^2 {decay_r2[algo]:.4f})"
            )

    baseline = artifacts["AVG_RISK_MIN"]
    base_final = baseline.summary["final_dist_mean"]
    dist0 = float(np.mean([res.trajectory[0].dist for res in baseline.results]))
    if not base_final > 0.5 * dist0:
        failures.append(
            f"baseline final mean dist {base_final:.3e} <= 0.5*dist0 {0.5 * dist0:.3e}"
        )

    if not runtime <= 60.0:
        failures.append(f"runtime {runtime:.1f}s > 60s")

    detail = (
        f"final dists {', '.join(f'{a}={finals[a]:.2e}' for a in GBML)}; "
        f"baseline {base_final:.4f} vs 0.5*dist0 {0.5 * dist0:.4f}; "
        f"runtime {runtime:.1f}s; "
        f"tail R^2 {', '.join(f'{a}={r_squared[a]:.3f}' for a in GBML)}"
    )
    _report("criterion 1", not failures, detail)
    assert not failures, "; ".join(failures)


def test_criterion_2_rep_contraction_identity_and_monotonicity():
    hp = HyperParams(
        algo=Algorithm.FO_ANIL, mode=Mode.POPULATION, alpha=0.1, beta=0.1, n=3, iters=ITERS
    )
    step = step_for(hp)
    worst_residual = 0.0
    worst_increase = -math.inf
    for trial in range(5):
        env = sample_environment(
            20, 3, head_mean=0.0, head_scale=1.0, noise_std=0.0,
            rng=substream(SEED, trial, "env"),
        )
        perp = orth_complement(env.ground_truth_rep)
        params = init_model(env, hp.alpha, InitScheme.SPEC, substream(SEED, trial, "init"))
        tasks_rng = substream(SEED, trial, "tasks")
        prev_bperp = spectral_norm(perp.T @ params.rep)
        for _ in range(hp.iters):
            batch = sample_task_batch(env, hp.n, tasks_rng)
            outcome = step(params, env, batch, hp)
            heads = outcome.adapted_heads
            psi = heads.T @ heads / heads.shape[0]
            lhs = perp.T @ outcome.params_next.rep
            rhs = (perp.T @ params.rep) @ (np.eye(3) - hp.beta * psi)
            worst_residual = max(worst_residual, float(np.abs(lhs - rhs).max()))
            bperp = spectral_norm(lhs)
            if hp.beta * outcome.psi_max <= 1.0:
                worst_increase = max(worst_increase, bperp - prev_bperp)
            prev_bperp = bperp
            params = outcome.params_next

    identity_ok = worst_residual <= 1e-12
    monotone_ok = worst_increase <= 1e-12
    _report(
        "criterion 2",
        identity_ok and monotone_ok,
        f"max identity residual {worst_residual:.2e} (tol 1e-12); "
        f"max bperp increase {worst_increase:.2e} (tol 1e-12, rounding floor)",
    )
    assert identity_ok, f"identity residual {worst_residual:.3e} > 1e-12"
    assert monotone_ok, f"bperp increased by {worst_increase:.3e} > 1e-12"


def test_criterion_3_contraction_factor_bound_under_margins(population_runs):
    artifacts = population_runs["artifacts"]
    alpha = beta = 0.1
    checked = 0
    violations = []
    worst_slack = -math.inf
    for algo in ("FO_ANIL", "EXACT_ANIL"):
        for res in artifacts[algo].results:
            records = res.trajectory
            stats = res.gt_stats_running
            dist0 = records[0].dist
            e0 = 0.9 - dist0 * dist0
            # The first record precedes any completed round, so its
            # adapted-head spectrum margin is undefined (gate closed).
            for rec, st in list(zip(records, stats))[1:]:
                a3 = 0.1 - rec.delta_norm
                a4_lower = rec.psi_min - 0.9 * alpha * e0 * st.mu_sq
                a4_upper = 1.2 * alpha * st.L_sq - rec.psi_max
                if not (a3 >= 0.0 and a4_lower >= 0.0 and a4_upper >= 0.0):
                    continue
                rho = 1.0 - 0.5 * beta * alpha * e0 * st.mu_sq
                bound = rho ** (rec.t - 1) + 1e-9
                checked += 1
                worst_slack = max(worst_slack, rec.dist - bound)
                if rec.dist > bound:
                    violations.append((algo, rec.t, rec.dist, bound))

    ok = checked > 0 and not violations
    _report(
        "criterion 3",
        ok,
        f"{checked} gated-in records, {len(violations)} violations, "
        f"worst dist-minus-bound {worst_slack:.2e}",
    )
    assert checked > 0, "margin gate never opened; bound was not exercised"
    assert not violations, f"bound violated at {violations[:3]}"


def test_criterion_4_mean_shifted_heads_algorithm_contrast(tmp_path):
    def arm(algo: str, scheme: str):
        artifacts = run_experiment(
            _mean_shifted_config(algo, scheme),
            out_dir=tmp_path / f"{scheme.lower()}_{algo.lower()}",
        )
        stats = []
        for res in artifacts.results:
            records = res.trajectory
            dist0 = records[0].dist
            dist_min = min(rec.dist for rec in records)
            stats.append((dist0, dist_min, res.diverged))
        return stats

    def tally(stats, predicate):
        return sum(predicate(d0, dmin, div) for d0, dmin, div in stats)

    clauses = {}
    for algo in ("FO_ANIL", "EXACT_ANIL"):
        clauses[f"random {algo} reaches 0.1*dist0"] = tally(
            arm(algo, "RANDOM"), lambda d0, dmin, div: dmin <= 0.1 * d0
        )
    clauses["random FO_MAML diverges or stays >= 0.9*dist0"] = tally(
        arm("FO_MAML", "RANDOM"), lambda d0, dmin, div: div or dmin >= 0.9 * d0
    )
    clauses["random EXACT_MAML stays >= 0.5*dist0"] = tally(
        arm("EXACT_MAML", "RANDOM"), lambda d0, dmin, div: dmin >= 0.5 * d0
    )
    clauses["near-truth EXACT_MAML reaches 0.1*dist0"] = tally(
        arm("EXACT_MAML", "NEAR_TRUTH"), lambda d0, dmin, div: dmin <= 0.1 * d0
    )
    clauses["near-truth FO_MAML fails to reach 0.1*dist0"] = tally(
        arm("FO_MAML", "NEAR_TRUTH"), lambda d0, dmin, div: not dmin <= 0.1 * d0
    )

    failures = [name for name, hits in clauses.items() if hits < 3]
    detail = "; ".join(f"{name}: {hits}/5" for name, hits in clauses.items())
    _report("criterion 4", not failures, detail)
    assert not failures, f"majority (>=3/5) not met for: {failures}"


def test_criterion_5_gradient_oracles_all_algorithms():
    start = time.perf_counter()
    results = []
    for algo in GBML + ("AVG_RISK_MIN",):
        for mode in ("POPULATION", "FINITE"):
            hp = {
                "algo": algo,
                "mode": mode,
                "alpha": 0.1,
                "beta": 0.1,
                "n": 3,
                "iters": 10,
            }
            if mode == "FINITE":
                hp.update(m_in=40, m_out=40)
            config = ExperimentConfig.model_validate(
                {
                    "env": {
                        "d": 6,
                        "k": 2,
                        "head_mean": 0.0,
                        "head_scale": 1.0,
                        "noise_std": 0.1 if mode == "FINITE" else 0.0,
                    },
                    "hp": hp,
                    "run": {"trials": 1, "master_seed": SEED},
                }
            )
            report = gradcheck(config)
            tolerance = 1e-6 if mode == "POPULATION" else 1e-5
            error = max(report.max_rel_err_head, report.max_rel_err_rep)
            results.append((algo, mode, error, tolerance))
    runtime = time.perf_counter() - start

    failures = [
        f"{algo}/{mode} rel err {error:.2e} > {tolerance:g}"
        for algo, mode, error, tolerance in results
        if error > tolerance
    ]
    if runtime > 10.0:
        failures.append(f"runtime {runtime:.1f}s > 10s")
    worst_pop = max(e for _, m, e, _ in results if m == "POPULATION")
    worst_fin = max(e for _, m, e, _ in results if m == "FINITE")
    _report(
        "criterion 5",
        not failures,
        f"10 combinations; worst rel err population {worst_pop:.2e} (tol 1e-6), "
        f"finite {worst_fin:.2e} (tol 1e-5); runtime {runtime:.2f}s",
    )
    assert not failures, "; ".join(failures)


def test_criterion_6_distance_identity_and_invariance():
    rng = substream(SEED, "dist-suite")
    worst_identity = 0.0
    worst_invariance = 0.0
    for _ in range(1000):
        d = int(rng.integers(3, 12))
        k = int(rng.integers(1, min(d, 5)))
        truth, _ = qr_orthonormalize(standard_normal(rng, (d, k)))
        perp = orth_complement(truth)
        rep = standard_normal(rng, (d, k))
        dist = principal_angle_dist(rep, perp)
        basis, _ = qr_orthonormalize(rep)
        sigma_min = float(np.linalg.svd(truth.T @ basis, compute_uv=False)[-1])
        worst_identity = max(worst_identity, abs(dist * dist + sigma_min * sigma_min - 1.0))
        rotation, _ = qr_orthonormalize(standard_normal(rng, (k, k)))
        worst_invariance = max(
            worst_invariance, abs(principal_angle_dist(rep @ rotation, perp) - dist)
        )

    ok = worst_identity <= 1e-10 and worst_invariance <= 1e-10
    _report(
        "criterion 6",
        ok,
        f"1000 instances; worst identity defect {worst_identity:.2e}, "
        f"worst rotation-invariance defect {worst_invariance:.2e} (tol 1e-10)",
    )
    assert worst_identity <= 1e-10
    assert worst_invariance <= 1e-10


def test_criterion_7_outer_sample_plateau_monotonicity(tmp_path):
    config = ExperimentConfig.model_validate(
        {
            "env": {"d": 20, "k": 3, "head_mean": 0.0, "head_scale": 1.0, "noise_std": 0.1},
            "hp": {
                "algo": "FO_ANIL",
                "mode": "FINITE",
                "alpha": 0.1,
                "beta": 0.1,
                "n": 10,
                "m_in": 100,
                "m_out": 50,
                "iters": 1500,
            },
            "init": {"scheme": "SPEC"},
            "run": {"trials": 10, "master_seed": SEED, "record_every": 10},
        }
    )
    result = sweep(config, SweepAxis.M_OUT, [50, 200, 800], out_dir=tmp_path / "sweep")
    cells = {cell.value: cell for cell in result.cells}
    plateaus = [cells[v].plateau_dist for v in ("50", "200", "800")]

    failures = []
    for value, cell in cells.items():
        if cell.error is not None:
            failures.append(f"m_out={value} errored: {cell.error}")
        if cell.plateau_dist is None:
            failures.append(f"m_out={value} has no plateau (all trials diverged)")
    if not failures:
        if not plateaus[0] >= plateaus[1] >= plateaus[2]:
            failures.append(f"plateaus not non-increasing: {plateaus}")
        ratio = plateaus[2] / plateaus[0]
        if not ratio <= 0.6:
            failures.append(f"plateau(800)/plateau(50) = {ratio:.3f} > 0.6")
    detail = (
        f"plateaus {', '.join(f'{p:.3e}' for p in plateaus)}; "
        f"ratio {plateaus[2] / plateaus[0]:.3f} (bound 0.6)"
        if None not in plateaus
        else f"plateaus {plateaus}"
    )
    _report("criterion 7", not failures, detail)
    assert not failures, "; ".join(failures)


def test_criterion_8_byte_identical_reruns(population_runs, tmp_path):
    first = population_runs["artifacts"]["FO_ANIL"]
    second = run_experiment(_population_config("FO_ANIL"), out_dir=tmp_path / "rerun")
    mismatched = [
        name
        for name, a, b in (
            ("trajectory.csv", first.trajectory_csv, second.trajectory_csv),
            ("mean.csv", first.mean_csv, second.mean_csv),
            ("summary.json", first.summary_json, second.summary_json),
        )
        if a.read_bytes() != b.read_bytes()
    ]

    small = ExperimentConfig.model_validate(
        {
            "env": {"d": 8, "k": 2, "head_mean": 0.0, "head_scale": 1.0, "noise_std": 0.1},
            "hp": {
                "algo": "EXACT_ANIL",
                "mode": "FINITE",
                "alpha": 0.1,
                "beta": 0.2,
                "n": 4,
                "m_in": 30,
                "m_out": 30,
                "iters": 200,
            },
            "run": {"trials": 3, "master_seed": SEED, "record_every": 5},
        }
    )
    serial = run_experiment(small, out_dir=tmp_path / "serial", jobs=1)
    parallel = run_experiment(small, out_dir=tmp_path / "parallel", jobs=2)
    if serial.trajectory_csv.read_bytes() != parallel.trajectory_csv.read_bytes():
        mismatched.append("trajectory.csv (jobs=1 vs jobs=2)")
    if serial.summary_json.read_bytes() != parallel.summary_json.read_bytes():
        mismatched.append("summary.json (jobs=1 vs jobs=2)")

    _report(
        "criterion 8",
        not mismatched,
        "rerun and worker-count artifacts byte-identical"
        if not mismatched
        else f"mismatched: {mismatched}",
    )
    assert not mismatched, f"artifacts differ: {mismatched}"
