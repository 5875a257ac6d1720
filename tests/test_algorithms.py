"""Tests for meta-learning update rules and trajectory simulation.

The meta-gradient of every algorithm/mode combination is checked against an
independently assembled finite-difference reference: inner adaptation and
outer differentiation are both redone here from first principles, never by
calling the package's own gradient code.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from linrep.algorithms import (
    RunResult,
    StepOutcome,
    meta_gradients,
    run_trajectory,
    step_for,
)
from linrep.env import (
    DataSet,
    TaskBatch,
    sample_dataset,
    sample_environment,
    sample_task_batch,
)
from linrep.metrics import orth_complement, principal_angle_dist
from linrep.model import (
    Algorithm,
    HyperParams,
    InitScheme,
    Mode,
    ModelParams,
    init_model,
)
from linrep.rng import standard_normal, substream
from oracles import central_diff_pair, rel_err

ALL_ALGOS = list(Algorithm)
ADAPTING_ALGOS = [algo for algo in Algorithm if algo is not Algorithm.AVG_RISK_MIN]
FULL_ADAPTATION = (Algorithm.FO_MAML, Algorithm.EXACT_MAML)


def _env(d: int = 6, k: int = 2, seed: int = 0, noise_std: float = 0.0, head_mean: float = 0.0):
    return sample_environment(
        d, k, head_mean=head_mean, head_scale=1.0, noise_std=noise_std,
        rng=substream(seed, 0, "env"),
    )


def _hp(algo: Algorithm, mode: Mode = Mode.POPULATION, **kw: object) -> HyperParams:
    defaults: dict = dict(alpha=0.1, beta=0.05, n=3, iters=10)
    if mode is Mode.FINITE:
        defaults.update(m_in=12, m_out=10)
    defaults.update(kw)
    return HyperParams(algo=algo, mode=mode, **defaults)


def _population_batch(env, n: int, seed: int) -> TaskBatch:
    return sample_task_batch(env, n, substream(seed, 1, "tasks"))


def _finite_batch(env, n: int, m_in: int, m_out: int, seed: int, *, shared: bool = False) -> TaskBatch:
    heads = sample_task_batch(env, n, substream(seed, 1, "tasks")).heads
    rng = substream(seed, 2, "data")
    inner, outer = [], []
    for i in range(n):
        ds_in = sample_dataset(env, heads[i], m_in, rng)
        inner.append(ds_in)
        outer.append(ds_in if shared else sample_dataset(env, heads[i], m_out, rng))
    return TaskBatch(heads=heads, inner_sets=tuple(inner), outer_sets=tuple(outer))


def _random_params(rng, d: int, k: int) -> ModelParams:
    return ModelParams(rep=standard_normal(rng, (d, k)), head=standard_normal(rng, (k,)))


# --- independent reference pipelines -------------------------------------

def _pop_loss(rep, head, env, head_true) -> float:
    r = rep @ head - env.ground_truth_rep @ head_true
    return 0.5 * float(r @ r) + 0.5 * env.noise_std**2


def _emp_loss(rep, head, ds) -> float:
    r = ds.inputs @ (rep @ head) - ds.labels
    return 0.5 * float(r @ r) / ds.inputs.shape[0]


def _pop_inner_grads(rep, head, env, head_true):
    r = rep @ head - env.ground_truth_rep @ head_true
    return rep.T @ r, np.outer(r, head)


def _emp_inner_grads(rep, head, ds):
    m = ds.inputs.shape[0]
    r = ds.inputs @ (rep @ head) - ds.labels
    return (ds.inputs @ rep).T @ r / m, np.outer(ds.inputs.T @ r / m, head)


def _reference_meta_gradient(params, env, batch, hp) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference meta-gradient, averaged over the batch."""
    alpha = hp.alpha
    n = batch.n
    g_w = np.zeros_like(params.head)
    g_B = np.zeros_like(params.rep)
    for i in range(n):
        head_true = batch.heads[i]
        if hp.mode is Mode.POPULATION:
            task_loss = lambda rep, head: _pop_loss(rep, head, env, head_true)
            inner = lambda rep, head: _pop_inner_grads(rep, head, env, head_true)
        else:
            ds_in = batch.inner_sets[i]
            ds_out = batch.outer_sets[i]
            task_loss = lambda rep, head: _emp_loss(rep, head, ds_out)
            inner = lambda rep, head: _emp_inner_grads(rep, head, ds_in)

        if hp.algo is Algorithm.AVG_RISK_MIN:
            gh, gr = central_diff_pair(task_loss, params.rep, params.head)
        elif hp.algo in (Algorithm.FO_ANIL, Algorithm.FO_MAML):
            gw_in, gB_in = inner(params.rep, params.head)
            head_ad = params.head - alpha * gw_in
            rep_ad = params.rep - alpha * gB_in if hp.algo is Algorithm.FO_MAML else params.rep
            gh, gr = central_diff_pair(task_loss, rep_ad, head_ad)
        elif hp.algo is Algorithm.EXACT_ANIL:
            def objective(rep, head):
                gw_in, _ = inner(rep, head)
                return task_loss(rep, head - alpha * gw_in)

            gh, gr = central_diff_pair(objective, params.rep, params.head)
        else:  # EXACT_MAML
            def objective(rep, head):
                gw_in, gB_in = inner(rep, head)
                return task_loss(rep - alpha * gB_in, head - alpha * gw_in)

            gh, gr = central_diff_pair(objective, params.rep, params.head)
        g_w += gh / n
        g_B += gr / n
    return g_w, g_B


class TestAdaptation:
    @pytest.mark.parametrize("algo", ADAPTING_ALGOS, ids=lambda a: a.value)
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_adapted_states_are_one_inner_gradient_step(self, algo: Algorithm, mode: Mode) -> None:
        env = _env(d=7, k=3, seed=1, noise_std=0.2)
        rng = substream(1, 0, "params")
        params = _random_params(rng, 7, 3)
        hp = _hp(algo, mode, n=4, alpha=0.13, m_in=20, m_out=15)
        batch = (
            _population_batch(env, hp.n, seed=1)
            if mode is Mode.POPULATION
            else _finite_batch(env, hp.n, hp.m_in, hp.m_out, seed=1)
        )
        outcome = step_for(hp)(params, env, batch, hp)
        assert (outcome.adapted_reps is not None) == (algo in FULL_ADAPTATION)
        for i in range(hp.n):
            if mode is Mode.POPULATION:
                gw, gB = _pop_inner_grads(params.rep, params.head, env, batch.heads[i])
            else:
                gw, gB = _emp_inner_grads(params.rep, params.head, batch.inner_sets[i])
            np.testing.assert_allclose(
                outcome.adapted_heads[i], params.head - hp.alpha * gw, atol=1e-14
            )
            if outcome.adapted_reps is not None:
                np.testing.assert_allclose(
                    outcome.adapted_reps[i], params.rep - hp.alpha * gB, atol=1e-14
                )

    def test_finite_head_adaptation_approaches_population(self) -> None:
        m = 100_000
        env = _env(d=6, k=2, seed=4)
        basis, _ = np.linalg.qr(standard_normal(substream(4, 0, "params"), (6, 2)))
        params = ModelParams(rep=basis, head=np.array([0.3, -0.2]))
        head_true = np.array([[1.0, 0.5]])
        ds = sample_dataset(env, head_true[0], m, substream(4, 1, "data"))
        hp_fin = _hp(Algorithm.FO_ANIL, Mode.FINITE, n=1, alpha=0.1, m_in=m, m_out=m)
        hp_pop = _hp(Algorithm.FO_ANIL, Mode.POPULATION, n=1, alpha=0.1)
        fin_batch = TaskBatch(heads=head_true, inner_sets=(ds,), outer_sets=(ds,))
        fin = step_for(hp_fin)(params, env, fin_batch, hp_fin)
        pop = step_for(hp_pop)(params, env, TaskBatch(heads=head_true), hp_pop)
        assert np.abs(fin.adapted_heads[0] - pop.adapted_heads[0]).max() <= 5.0 / math.sqrt(m)


class TestMetaGradientsMatchFiniteDifferences:
    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_step_direction_matches_reference(self, algo: Algorithm, mode: Mode) -> None:
        tol = 1e-6 if mode is Mode.POPULATION else 1e-5
        worst = 0.0
        for trial in range(5):
            rng = substream(100 + trial, 0, f"fd-{algo.value}-{mode.value}")
            d = 3 + trial % 6  # d in 3..8
            k = 1 + trial % min(3, d - 1)
            n = 1 + trial % 4
            env = _env(d=d, k=k, seed=300 + trial, noise_std=0.1)
            hp = _hp(algo, mode, n=n, alpha=0.07 + 0.03 * trial, beta=0.4)
            if mode is Mode.POPULATION:
                batch = _population_batch(env, n, seed=500 + trial)
            else:
                shared = algo is Algorithm.EXACT_MAML
                batch = _finite_batch(env, n, hp.m_in, hp.m_out, seed=500 + trial, shared=shared)
            params = _random_params(rng, d, k)

            outcome = step_for(hp)(params, env, batch, hp)
            step_gw = (params.head - outcome.params_next.head) / hp.beta
            step_gB = (params.rep - outcome.params_next.rep) / hp.beta
            ref_gw, ref_gB = _reference_meta_gradient(params, env, batch, hp)
            worst = max(worst, rel_err(step_gw, ref_gw), rel_err(step_gB, ref_gB))

            gw, gB = meta_gradients(params, env, batch, hp)
            np.testing.assert_allclose(gw, step_gw, atol=1e-11, rtol=1e-9)
            np.testing.assert_allclose(gB, step_gB, atol=1e-11, rtol=1e-9)
        assert worst <= tol, f"{algo} {mode}: max relative error {worst:.3e}"


class TestUpdateRearrangementIdentities:
    """Closed-form rearrangements of the update rules, checked exactly."""

    def test_head_only_first_order_misalignment_recursion(self) -> None:
        # Bperp^T B_{t+1} = Bperp^T B_t (I - beta Psi_t) at every step.
        env = _env(d=8, k=3, seed=5)
        hp = _hp(Algorithm.FO_ANIL, n=4, beta=0.2)
        params = init_model(env, hp.alpha, InitScheme.SPEC, substream(5, 0, "init"))
        perp = orth_complement(env.ground_truth_rep)
        rng = substream(5, 0, "tasks")
        for _ in range(20):
            batch = sample_task_batch(env, hp.n, rng)
            outcome = step_for(hp)(params, env, batch, hp)
            adapted = outcome.adapted_heads
            psi = adapted.T @ adapted / hp.n
            lhs = perp.T @ outcome.params_next.rep
            rhs = (perp.T @ params.rep) @ (np.eye(3) - hp.beta * psi)
            assert np.abs(lhs - rhs).max() <= 1e-12
            params = outcome.params_next

    def test_head_only_second_order_head_update_closed_form(self) -> None:
        env = _env(d=7, k=2, seed=6)
        hp = _hp(Algorithm.EXACT_ANIL, n=3, beta=0.3)
        rng = substream(6, 0, "params")
        params = _random_params(rng, 7, 2)
        batch = _population_batch(env, hp.n, seed=6)
        outcome = step_for(hp)(params, env, batch, hp)
        B, w = params.rep, params.head
        delta = np.eye(2) - hp.alpha * B.T @ B
        mean_head = batch.heads.mean(axis=0)
        expected = (np.eye(2) - hp.beta * delta @ B.T @ B @ delta) @ w + hp.beta * (
            delta @ delta @ B.T @ (env.ground_truth_rep @ mean_head)
        )
        assert np.abs(outcome.params_next.head - expected).max() <= 1e-12

    def test_full_first_order_rep_update_expanded_form(self) -> None:
        env = _env(d=9, k=3, seed=7)
        hp = _hp(Algorithm.FO_MAML, n=4, beta=0.25)
        rng = substream(7, 0, "params")
        params = _random_params(rng, 9, 3)
        batch = _population_batch(env, hp.n, seed=7)
        outcome = step_for(hp)(params, env, batch, hp)
        B, w = params.rep, params.head
        Bstar = env.ground_truth_rep
        lam = np.eye(3) - hp.alpha * np.outer(w, w)
        adapted = outcome.adapted_heads
        psi = adapted.T @ adapted / hp.n
        coupling = np.zeros((9, 3))
        for i in range(hp.n):
            weight = 1.0 - hp.alpha * float(w @ adapted[i])
            coupling += weight * np.outer(Bstar @ batch.heads[i], adapted[i]) / hp.n
        expected = B @ (np.eye(3) - lam @ (hp.beta * psi)) + hp.beta * coupling
        assert np.abs(outcome.params_next.rep - expected).max() <= 1e-11

    def test_full_second_order_adaptation_error_factorization(self) -> None:
        # (Dbar - (alpha*omega + alpha^2 a) I)(Bw - B*w*) equals the
        # post-adaptation residual computed from first principles.
        env = _env(d=6, k=2, seed=8)
        rng = substream(8, 0, "params")
        alpha = 0.11
        params = _random_params(rng, 6, 2)
        head_true = standard_normal(rng, (2,))
        B, w = params.rep, params.head
        Bstar = env.ground_truth_rep
        gw, gB = _pop_inner_grads(B, w, env, head_true)
        resid_adapted = (B - alpha * gB) @ (w - alpha * gw) - Bstar @ head_true

        delta = np.eye(2) - alpha * B.T @ B
        omega = float(w @ delta @ w)
        a = float(head_true @ Bstar.T @ B @ w)
        r = B @ w - Bstar @ head_true
        factored = (
            r - alpha * B @ (B.T @ r) - (alpha * omega + alpha**2 * a) * r
        )
        assert np.abs(factored - resid_adapted).max() <= 1e-12


class TestStepStructure:
    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_zero_outer_step_is_identity(self, algo: Algorithm, mode: Mode) -> None:
        env = _env(d=6, k=2, seed=9)
        hp = _hp(algo, mode, beta=0.0)
        batch = (
            _population_batch(env, hp.n, seed=9)
            if mode is Mode.POPULATION
            else _finite_batch(env, hp.n, hp.m_in, hp.m_out, seed=9)
        )
        params = _random_params(substream(9, 0, "params"), 6, 2)
        outcome = step_for(hp)(params, env, batch, hp)
        np.testing.assert_array_equal(outcome.params_next.rep, params.rep)
        np.testing.assert_array_equal(outcome.params_next.head, params.head)

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_outcome_shapes_and_psi_spectrum(self, algo: Algorithm) -> None:
        env = _env(d=6, k=2, seed=10)
        hp = _hp(algo, n=4)
        batch = _population_batch(env, 4, seed=10)
        params = _random_params(substream(10, 0, "params"), 6, 2)
        outcome = step_for(hp)(params, env, batch, hp)
        assert isinstance(outcome, StepOutcome)
        assert outcome.adapted_heads.shape == (4, 2)
        if algo in FULL_ADAPTATION:
            assert outcome.adapted_reps.shape == (4, 6, 2)
        else:
            assert outcome.adapted_reps is None
        assert outcome.psi_min <= outcome.psi_max
        if algo is Algorithm.AVG_RISK_MIN:
            assert outcome.psi_min == pytest.approx(0.0, abs=1e-15)
            assert outcome.psi_max == pytest.approx(float(params.head @ params.head))
        else:
            adapted = outcome.adapted_heads
            psi = adapted.T @ adapted / 4
            eigenvalues = np.linalg.eigvalsh(psi)
            assert outcome.psi_min == pytest.approx(float(eigenvalues[0]), abs=1e-12)
            assert outcome.psi_max == pytest.approx(float(eigenvalues[-1]), abs=1e-12)

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_population_steps_stay_in_combined_column_space(self, algo: Algorithm) -> None:
        # Starting inside col(B*), population updates never leave it.
        env = _env(d=8, k=3, seed=11)
        hp = _hp(algo, n=3)
        batch = _population_batch(env, 3, seed=11)
        rng = substream(11, 0, "params")
        mix = standard_normal(rng, (3, 3))
        params = ModelParams(
            rep=env.ground_truth_rep @ (np.eye(3) + 0.1 * mix),
            head=standard_normal(rng, (3,)),
        )
        perp = orth_complement(env.ground_truth_rep)
        outcome = step_for(hp)(params, env, batch, hp)
        assert np.abs(perp.T @ outcome.params_next.rep).max() <= 1e-10


class TestScalarRecursionOracle:
    def test_two_dimensional_rank_one_recursion_matches_plain_floats(self) -> None:
        # Independent reimplementation of the head-only first-order update
        # with d=2, k=1 using plain Python floats.
        env = _env(d=2, k=1, seed=12)
        hp = _hp(Algorithm.FO_ANIL, n=2, alpha=0.2, beta=0.15)
        params = init_model(env, hp.alpha, InitScheme.SPEC, substream(12, 0, "init"))
        bs = [float(env.ground_truth_rep[0, 0]), float(env.ground_truth_rep[1, 0])]
        b = [float(params.rep[0, 0]), float(params.rep[1, 0])]
        w = float(params.head[0])
        rng = substream(12, 0, "tasks")
        for _ in range(100):
            batch = sample_task_batch(env, hp.n, rng)
            outcome = step_for(hp)(params, env, batch, hp)

            heads = [float(h[0]) for h in batch.heads]
            bb = b[0] * b[0] + b[1] * b[1]
            bbs = b[0] * bs[0] + b[1] * bs[1]
            adapted = [(1.0 - hp.alpha * bb) * w + hp.alpha * bbs * ws for ws in heads]
            grad_w = sum(bb * wa - bbs * ws for wa, ws in zip(adapted, heads)) / hp.n
            psi = sum(wa * wa for wa in adapted) / hp.n
            cross = sum(ws * wa for ws, wa in zip(heads, adapted)) / hp.n
            b_next = [
                b[0] * (1.0 - hp.beta * psi) + hp.beta * bs[0] * cross,
                b[1] * (1.0 - hp.beta * psi) + hp.beta * bs[1] * cross,
            ]
            w_next = w - hp.beta * grad_w

            assert abs(outcome.params_next.head[0] - w_next) <= 1e-12
            assert abs(outcome.params_next.rep[0, 0] - b_next[0]) <= 1e-12
            assert abs(outcome.params_next.rep[1, 0] - b_next[1]) <= 1e-12
            params = outcome.params_next
            b, w = b_next, w_next


class TestFiniteMatchesPopulationAtLargeSamples:
    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_one_noiseless_step_with_many_samples(self, algo: Algorithm) -> None:
        m = 100_000
        env = _env(d=6, k=2, seed=13)
        hp_pop = _hp(algo, Mode.POPULATION, n=3, alpha=0.1, beta=0.1)
        hp_fin = _hp(algo, Mode.FINITE, n=3, alpha=0.1, beta=0.1, m_in=m, m_out=m)
        params = init_model(env, hp_pop.alpha, InitScheme.SPEC, substream(13, 0, "init"))
        heads = sample_task_batch(env, 3, substream(13, 1, "tasks")).heads
        rng = substream(13, 2, "data")
        inner = tuple(sample_dataset(env, heads[i], m, rng) for i in range(3))
        outer = tuple(sample_dataset(env, heads[i], m, rng) for i in range(3))
        pop_batch = TaskBatch(heads=heads)
        fin_batch = TaskBatch(heads=heads, inner_sets=inner, outer_sets=outer)

        pop = step_for(hp_pop)(params, env, pop_batch, hp_pop)
        fin = step_for(hp_fin)(params, env, fin_batch, hp_fin)
        tol = 10.0 / math.sqrt(m)
        assert np.abs(fin.params_next.rep - pop.params_next.rep).max() <= tol
        assert np.abs(fin.params_next.head - pop.params_next.head).max() <= tol


class TestRunTrajectory:
    def test_zero_iterations_records_initial_state_once(self) -> None:
        env = _env(d=6, k=2, seed=14)
        hp = _hp(Algorithm.FO_ANIL, iters=0)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(14, 0, "init"))
        result = run_trajectory(env, hp, init, substream(14, 0, "tasks"), record_every=10)
        assert isinstance(result, RunResult)
        assert len(result.trajectory) == 1
        record = result.trajectory[0]
        assert record.t == 0
        perp = orth_complement(env.ground_truth_rep)
        assert record.dist == pytest.approx(principal_angle_dist(init.rep, perp), abs=1e-12)
        assert not result.diverged

    def test_recording_schedule_includes_final_iteration(self) -> None:
        env = _env(d=6, k=2, seed=15)
        hp = _hp(Algorithm.FO_ANIL, iters=25)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(15, 0, "init"))
        result = run_trajectory(env, hp, init, substream(15, 0, "tasks"), record_every=10)
        assert [r.t for r in result.trajectory] == [0, 10, 20, 25]
        assert len(result.gt_stats_running) == 4
        assert result.head_stats == result.gt_stats_running[-1]

    def test_deterministic_given_same_stream(self) -> None:
        env = _env(d=6, k=2, seed=16)
        hp = _hp(Algorithm.EXACT_ANIL, iters=40)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(16, 0, "init"))
        a = run_trajectory(env, hp, init, substream(16, 0, "tasks"), record_every=5)
        b = run_trajectory(env, hp, init, substream(16, 0, "tasks"), record_every=5)
        assert [r.dist for r in a.trajectory] == [r.dist for r in b.trajectory]
        np.testing.assert_array_equal(a.final_params.rep, b.final_params.rep)

    def test_running_ground_truth_stats_are_monotone_aggregates(self) -> None:
        env = _env(d=6, k=2, seed=17)
        hp = _hp(Algorithm.FO_ANIL, iters=60, n=2)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(17, 0, "init"))
        result = run_trajectory(env, hp, init, substream(17, 0, "tasks"), record_every=10)
        mu = [s.mu_sq for s in result.gt_stats_running]
        lsq = [s.L_sq for s in result.gt_stats_running]
        assert all(a >= b for a, b in zip(mu, mu[1:]))
        assert all(a <= b for a, b in zip(lsq, lsq[1:]))

    def test_fixed_batch_reuses_the_first_round(self) -> None:
        env = _env(d=6, k=2, seed=18)
        hp = _hp(Algorithm.FO_ANIL, iters=30, n=3)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(18, 0, "init"))
        result = run_trajectory(
            env, hp, init, substream(18, 0, "tasks"), record_every=10, fixed_batch=True
        )
        stats = result.gt_stats_running
        assert all(s == stats[0] for s in stats)

    def test_divergence_detected_and_truncated(self) -> None:
        env = _env(d=6, k=2, seed=19, head_mean=10.0)
        hp = _hp(Algorithm.FO_MAML, iters=200, alpha=0.5, beta=5.0, n=3)
        init = init_model(env, hp.alpha, InitScheme.RANDOM, substream(19, 0, "init"))
        result = run_trajectory(env, hp, init, substream(19, 0, "tasks"), record_every=1)
        assert result.diverged
        assert result.diverged_at is not None
        assert result.diverged_at <= 200
        assert all(np.isfinite(r.dist) for r in result.trajectory)
        assert result.trajectory[-1].t < result.diverged_at

    def test_convergent_run_reduces_distance_and_loss(self) -> None:
        env = _env(d=10, k=2, seed=20)
        hp = _hp(Algorithm.FO_ANIL, iters=300, n=4, alpha=0.1, beta=0.3)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(20, 0, "init"))
        result = run_trajectory(env, hp, init, substream(20, 0, "tasks"), record_every=50)
        assert not result.diverged
        assert result.trajectory[-1].dist < 0.1 * result.trajectory[0].dist
        assert result.trajectory[-1].loss < result.trajectory[0].loss
