"""Tests for meta-learning update rules and trajectory simulation.

The meta-gradient of every algorithm/mode combination is checked against an
independently assembled finite-difference reference: inner adaptation and
outer differentiation are both redone here from first principles, never by
calling the package's own gradient code.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import linrep.algorithms
import linrep.env
from linrep.algorithms import (
    _GRADS,
    _RECORD_CHUNK,
    _SKETCH_COLUMNS,
    RunResult,
    StepOutcome,
    _Exact,
    _records,
    _is_diverged,
    _operands,
    _sides,
    _Snapshots,
    meta_gradients,
    run_trajectory,
    step_for,
)
from linrep.env import (
    _BLOCK_FLOATS,
    _HEAD_BLOCK_FLOATS,
    _rounds,
    _trusted,
    DataSet,
    DiversityStats,
    TaskBatch,
    TaskEnvironment,
    diversity_stats,
    sample_dataset,
    sample_environment,
    sample_task_batch,
)
from linrep.harness import ExperimentConfig, _build_env, resolve_hyper
from linrep.metrics import orth_complement, principal_angle_dist, spectral_norm
from linrep.model import (
    Algorithm,
    HyperParams,
    InitScheme,
    Mode,
    ModelParams,
    init_model,
)
from linrep.rng import chi_square, standard_normal, substream
from oracles import central_diff_pair, diversity_stats_loop, record_loop, rel_err, run_loop

ALL_ALGOS = list(Algorithm)
ADAPTING_ALGOS = [algo for algo in Algorithm if algo is not Algorithm.AVG_RISK_MIN]
FULL_ADAPTATION = (Algorithm.FO_MAML, Algorithm.EXACT_MAML)
_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def _finite_batch(env, n: int, m_in: int, m_out: int, seed: int):
    """A finite batch whose data sets reduce raw samples drawn here.

    Returns the batch and the raw ``(X, y)`` inner and outer samples, stacked
    over tasks, for the raw-data oracles below.
    """
    heads = sample_task_batch(env, n, substream(seed, 1, "tasks")).heads
    rng = substream(seed, 2, "data")
    targets = heads @ env.ground_truth_rep.T

    def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
        X = standard_normal(rng, (n, m, env.d))
        y = np.einsum("nmd,nd->nm", X, targets) + env.noise_std * standard_normal(rng, (n, m))
        return X, y

    inner = draw(m_in)
    outer = draw(m_out)
    batch = TaskBatch(
        heads=heads,
        inner_sets=DataSet.from_samples(*inner),
        outer_sets=DataSet.from_samples(*outer),
    )
    return batch, (inner, outer)


def _random_params(rng, d: int, k: int) -> ModelParams:
    return ModelParams(rep=standard_normal(rng, (d, k)), head=standard_normal(rng, (k,)))


def _block_size(algo: Algorithm, mode: Mode, d: int, k: int, n: int) -> int:
    """Rounds per sampled block: a finite-sample round holds ``J (d + 2)``
    sketch floats per task, for the ``J`` inner and outer columns of the
    algorithm (each a root and ``d + 1`` normals), a population round its
    ``n k`` heads."""
    if mode is Mode.FINITE:
        return max(1, _BLOCK_FLOATS // (n * sum(_SKETCH_COLUMNS[algo]) * (d + 2)))
    return max(1, _HEAD_BLOCK_FLOATS // (n * k))


def _snapshot(t: int, params: ModelParams, outcome: StepOutcome, batch: TaskBatch) -> _Snapshots:
    """The one-record stack of iteration ``t``, with the round's own task
    statistics."""
    return _Snapshots(
        np.array([t]), params.rep[None], params.head[None], outcome.adapted_heads[None],
        batch.heads[None], np.array([dataclasses.astuple(diversity_stats(batch))]),
    )


# --- independent reference pipelines -------------------------------------

def _pop_loss(rep, head, env, head_true) -> float:
    r = rep @ head - env.ground_truth_rep @ head_true
    return 0.5 * float(r @ r) + 0.5 * env.noise_std**2


def _emp_loss(rep, head, X, y) -> float:
    r = X @ (rep @ head) - y
    return 0.5 * float(r @ r) / X.shape[0]


def _pop_inner_grads(rep, head, env, head_true):
    r = rep @ head - env.ground_truth_rep @ head_true
    return rep.T @ r, np.outer(r, head)


def _emp_inner_grads(rep, head, X, y):
    m = X.shape[0]
    r = X @ (rep @ head) - y
    return (X @ rep).T @ r / m, np.outer(X.T @ r / m, head)


def _reference_meta_gradient(params, env, batch, hp, samples=None) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference meta-gradient, averaged over the batch; finite mode
    reads the raw ``samples`` returned by ``_finite_batch``."""
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
            (X_in, y_in), (X_out, y_out) = samples
            task_loss = lambda rep, head: _emp_loss(rep, head, X_out[i], y_out[i])
            inner = lambda rep, head: _emp_inner_grads(rep, head, X_in[i], y_in[i])

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
        if mode is Mode.POPULATION:
            batch = _population_batch(env, hp.n, seed=1)
        else:
            batch, ((X_in, y_in), _) = _finite_batch(env, hp.n, hp.m_in, hp.m_out, seed=1)
        outcome = step_for(hp)(params, env, batch, hp)
        assert (outcome.adapted_reps is not None) == (algo in FULL_ADAPTATION)
        for i in range(hp.n):
            if mode is Mode.POPULATION:
                gw, gB = _pop_inner_grads(params.rep, params.head, env, batch.heads[i])
            else:
                gw, gB = _emp_inner_grads(params.rep, params.head, X_in[i], y_in[i])
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
        ds = sample_dataset(env, head_true, m, substream(4, 1, "data"))
        hp_fin = _hp(Algorithm.FO_ANIL, Mode.FINITE, n=1, alpha=0.1, m_in=m, m_out=m)
        hp_pop = _hp(Algorithm.FO_ANIL, Mode.POPULATION, n=1, alpha=0.1)
        fin_batch = TaskBatch(heads=head_true, inner_sets=ds, outer_sets=ds)
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
            samples = None
            if mode is Mode.POPULATION:
                batch = _population_batch(env, n, seed=500 + trial)
            else:
                batch, samples = _finite_batch(env, n, hp.m_in, hp.m_out, seed=500 + trial)
            params = _random_params(rng, d, k)

            outcome = step_for(hp)(params, env, batch, hp)
            step_gw = (params.head - outcome.params_next.head) / hp.beta
            step_gB = (params.rep - outcome.params_next.rep) / hp.beta
            ref_gw, ref_gB = _reference_meta_gradient(params, env, batch, hp, samples)
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
            else _finite_batch(env, hp.n, hp.m_in, hp.m_out, seed=9)[0]
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
        perp = orth_complement(env.ground_truth_rep)
        (record,) = _records(_snapshot(0, params, outcome, batch), env, perp, hp.alpha)
        assert record.psi_min <= record.psi_max
        if algo is Algorithm.AVG_RISK_MIN:
            assert record.psi_min == pytest.approx(0.0, abs=1e-15)
            assert record.psi_max == pytest.approx(float(params.head @ params.head))
        else:
            adapted = outcome.adapted_heads
            psi = adapted.T @ adapted / 4
            eigenvalues = np.linalg.eigvalsh(psi)
            assert record.psi_min == pytest.approx(float(eigenvalues[0]), abs=1e-12)
            assert record.psi_max == pytest.approx(float(eigenvalues[-1]), abs=1e-12)

    def test_recorded_psi_spectrum_is_quiet_on_overflow(self) -> None:
        env = _env(d=6, k=2, seed=10)
        batch = _population_batch(env, 3, seed=10)
        params = _random_params(substream(10, 1, "params"), 6, 2)
        outcome = StepOutcome(
            params_next=params, adapted_heads=np.full((3, 2), 1e200), adapted_reps=None
        )
        perp = orth_complement(env.ground_truth_rep)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            (record,) = _records(_snapshot(0, params, outcome, batch), env, perp, 0.1)
        assert math.isnan(record.psi_min) and math.isnan(record.psi_max)

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


def _float32_round(mode: Mode, n: int = 3, d: int = 6, k: int = 2):
    """Float32 parameters, a float32 round and its two sides: stacked data
    sets, or the exact sides of a population round of float32 heads in a
    float32 copy of the environment, whose targets a step forms in float32."""
    env = _env(d=d, k=k, seed=31)
    rng = substream(31, n, "float32")
    params = _trusted(ModelParams, rep=standard_normal(rng, (d, k)).astype(np.float32),
                      head=standard_normal(rng, (k,)).astype(np.float32))
    heads = standard_normal(rng, (n, k))
    targets = (heads @ env.ground_truth_rep.T).astype(np.float32)
    if mode is Mode.POPULATION:
        env = _trusted(TaskEnvironment, **{**vars(env), "ground_truth_rep":
                                           env.ground_truth_rep.astype(np.float32)})
        heads = heads.astype(np.float32)
        targets = heads.dot(env.ground_truth_rep.T)
        batch = _trusted(TaskBatch, heads=heads, inner_sets=None, outer_sets=None, _stats=None)
        inner, outer = _sides(env, batch, mode)
        assert np.array_equal(inner.targets, targets) and outer is inner
        return env, params, batch, inner, outer
    sides = []
    for _ in range(2):
        X = standard_normal(rng, (n, 20, d))
        sides.append(_trusted(DataSet, cov=(np.swapaxes(X, 1, 2) @ X / 20).astype(np.float32),
                              xty=targets, yty=np.ones(n, np.float32), m=20))
    batch = _trusted(TaskBatch, heads=heads, inner_sets=sides[0], outer_sets=sides[1],
                     _stats=None)
    return env, params, batch, *sides


class TestStepOperands:
    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_kernels_and_update_keep_the_parameters_dtype(self, algo: Algorithm,
                                                          mode: Mode) -> None:
        # Python scalars are weak and 0-d operands of the parameters' dtype
        # are float32 too: either way a float32 step stays float32, with the
        # same bits.
        env, params, batch, inner, outer = _float32_round(mode)
        hp = _hp(algo, mode, alpha=0.1, beta=0.05)
        kernel = _GRADS[algo]
        alpha, beta, n = _operands(hp.alpha, hp.beta, 3, np.float32)
        weak = kernel(params.rep, params.head, inner, outer, hp.alpha, 3)
        for got, want in zip(kernel(params.rep, params.head, inner, outer, alpha, n), weak):
            if want is None:
                assert got is None and algo not in FULL_ADAPTATION
                continue
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got, want)
        outcome = step_for(hp)(params, env, batch, hp)
        grad_head, grad_rep, heads, reps = weak
        assert outcome.params_next.rep.dtype == outcome.params_next.head.dtype == np.float32
        np.testing.assert_array_equal(outcome.params_next.rep, params.rep - hp.beta * grad_rep)
        np.testing.assert_array_equal(outcome.params_next.head,
                                      params.head - hp.beta * grad_head)
        np.testing.assert_array_equal(outcome.adapted_heads, heads)
        assert outcome.adapted_heads.dtype == np.float32
        # The float32 step approximates the float64 one.
        params64 = ModelParams(rep=params.rep, head=params.head)
        inner64, outer64 = (
            _Exact(side.targets.astype(float)) if mode is Mode.POPULATION
            else _trusted(DataSet, cov=side.cov.astype(float), xty=side.xty.astype(float),
                          yty=side.yty, m=side.m)
            for side in (inner, outer))
        want64 = kernel(params64.rep, params64.head, inner64, outer64, hp.alpha, 3)
        np.testing.assert_allclose(grad_rep, want64[1], rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_one_step_serves_every_configuration(self, algo: Algorithm, mode: Mode) -> None:
        # One step called in turn with three configurations (other step
        # sizes, then the first ones on rounds of another task count) equals
        # a step of its own for each, bit for bit.
        env = _env(d=6, k=2, seed=33)
        hp1, hp2 = _hp(algo, mode, alpha=0.1, beta=0.05), _hp(algo, mode, alpha=0.07, beta=0.2)
        configs = [(hp1, 3), (hp2, 3), (hp1, 4)]  # the last: ``hp1`` on rounds of four tasks
        rounds = [
            [(_population_batch(env, n, seed=40 + t) if mode is Mode.POPULATION
              else _finite_batch(env, n, hp.m_in, hp.m_out, seed=40 + t)[0])
             for t in range(4)]
            for hp, n in configs
        ]
        start = _random_params(substream(33, 0, "params"), 6, 2)
        shared = step_for(hp1)
        together = [start] * 3
        outcomes = {i: [] for i in range(3)}
        for t in range(4):
            for i, (hp, _) in enumerate(configs):
                outcome = shared(together[i], env, rounds[i][t], hp)
                outcomes[i].append(outcome)
                together[i] = outcome.params_next
        for i, (hp, _) in enumerate(configs):
            own, params = step_for(hp), start
            for t in range(4):
                outcome = own(params, env, rounds[i][t], hp)
                got = outcomes[i][t]
                for name in ("rep", "head"):
                    np.testing.assert_array_equal(getattr(got.params_next, name),
                                                  getattr(outcome.params_next, name))
                np.testing.assert_array_equal(got.adapted_heads, outcome.adapted_heads)
                if outcome.adapted_reps is None:
                    assert got.adapted_reps is None
                else:
                    np.testing.assert_array_equal(got.adapted_reps, outcome.adapted_reps)
                params = outcome.params_next

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_step_refuses_another_algorithm_or_mode(self, algo: Algorithm, mode: Mode) -> None:
        # A refused ``hp`` names its field and leaves the step as it was, in
        # its steady state too.  A finite batch serves either mode's step.
        env = _env(d=6, k=2, seed=35)
        hp = _hp(algo, mode)
        batch = _finite_batch(env, hp.n, 12, 10, seed=35)[0]
        params = _random_params(substream(35, 0, "params"), 6, 2)
        step = step_for(hp)
        first = step(params, env, batch, hp)
        other_mode = Mode.FINITE if mode is Mode.POPULATION else Mode.POPULATION
        refused = [(_hp(other, mode), "algo") for other in ALL_ALGOS if other is not algo]
        for other_hp, field in [*refused, (_hp(algo, other_mode), "mode")]:
            with pytest.raises(ValueError, match=rf"hp\.{field}"):
                step(params, env, batch, other_hp)
        again = step(params, env, batch, hp)
        for got, want in ((again.params_next.rep, first.params_next.rep),
                          (again.params_next.head, first.params_next.head),
                          (again.adapted_heads, first.adapted_heads)):
            np.testing.assert_array_equal(got, want)

    def test_operands_built_once_per_configuration_and_read_only(self, monkeypatch) -> None:
        env = _env(d=6, k=2, seed=34)
        hp1 = _hp(Algorithm.EXACT_ANIL, alpha=0.1, beta=0.05)
        hp2 = _hp(Algorithm.EXACT_ANIL, alpha=0.07, beta=0.2)
        built = []

        def recording_operands(alpha, beta, n, dtype):
            operands = _operands(alpha, beta, n, dtype)
            built.append(((alpha, beta, n, dtype), operands))
            return operands

        monkeypatch.setattr(linrep.algorithms, "_operands", recording_operands)
        step = step_for(hp1)
        params = _random_params(substream(34, 0, "params"), 6, 2)
        batch = _population_batch(env, hp1.n, seed=34)
        single = _trusted(ModelParams, rep=params.rep.astype(np.float32),
                          head=params.head.astype(np.float32))
        for hp, at in ((hp1, params), (hp1, params), (hp2, params), (hp2, params), (hp1, params),
                       (hp1, single), (hp1, single)):
            step(at, env, batch, hp)
        assert [key for key, _ in built] == [
            (0.1, 0.05, 3, np.float64), (0.07, 0.2, 3, np.float64), (0.1, 0.05, 3, np.float64),
            (0.1, 0.05, 3, np.float32),
        ]
        for (alpha, beta, n, dtype), operands in built:
            for operand, value in zip(operands, (alpha, beta, n)):
                assert operand.shape == () and operand.dtype == dtype
                with pytest.raises(ValueError, match="read-only"):
                    operand[...] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    np.multiply(operand, 2.0, out=operand)
                assert operand == np.array(value, dtype)


class TestRealStepSizes:
    """A step size given as any real number runs as the float it stores."""

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_fraction_step_sizes_give_the_float_gradients(self, algo: Algorithm,
                                                          mode: Mode) -> None:
        env = _env(d=6, k=2, seed=17, noise_std=0.1)
        batch = (_population_batch(env, 3, seed=17) if mode is Mode.POPULATION
                 else _finite_batch(env, 3, 12, 10, seed=17)[0])
        params = _random_params(substream(17, 0, "params"), 6, 2)
        hp = _hp(algo, mode, alpha=Fraction(1, 10), beta=Fraction(1, 20))
        got = meta_gradients(params, env, batch, hp)
        want = meta_gradients(params, env, batch, _hp(algo, mode, alpha=0.1, beta=0.05))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.float64
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
        assert type(hp.alpha) is float and type(hp.beta) is float

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_fraction_step_sizes_run_as_their_floats(self, mode: Mode) -> None:
        env = _env(d=6, k=2, seed=18, noise_std=0.1)
        runs = []
        for alpha, beta in ((Fraction(1, 10), Fraction(1, 20)), (0.1, 0.05)):
            hp = _hp(Algorithm.EXACT_MAML, mode, alpha=alpha, beta=beta, iters=25)
            init = init_model(env, hp.alpha, InitScheme.SPEC, substream(18, 0, "init"))
            runs.append(run_trajectory(env, hp, init, substream(18, 0, "tasks"), record_every=5,
                                       data_rng=substream(18, 0, "data")))
            assert type(hp.alpha) is float and type(hp.beta) is float
        got, want = runs
        assert _bits(got.trajectory) == _bits(want.trajectory)
        for name in ("rep", "head"):
            assert np.array_equal(getattr(got.final_params, name).view(np.uint64),
                                  getattr(want.final_params, name).view(np.uint64))


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


class TestFiniteMatchesPopulationAtExactMoments:
    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_finite_step_on_exact_moments_is_the_population_step(self, algo: Algorithm) -> None:
        # Inner and outer sets both holding the population moments of
        # isotropic inputs, (I, B* w*_i, ||B* w*_i||^2 + sigma^2).
        env = _env(d=7, k=3, seed=23, noise_std=0.3)
        hp_pop = _hp(algo, Mode.POPULATION, n=4, alpha=0.13, beta=0.2)
        hp_fin = _hp(algo, Mode.FINITE, n=4, alpha=0.13, beta=0.2)
        params = _random_params(substream(23, 0, "params"), 7, 3)
        heads = sample_task_batch(env, 4, substream(23, 1, "tasks")).heads
        targets = heads @ env.ground_truth_rep.T
        exact = DataSet(
            cov=np.tile(np.eye(7), (4, 1, 1)),
            xty=targets,
            yty=np.einsum("nd,nd->n", targets, targets) + env.noise_std**2,
            m=hp_fin.m_in,
        )
        pop = step_for(hp_pop)(params, env, TaskBatch(heads=heads), hp_pop)
        fin = step_for(hp_fin)(
            params, env, TaskBatch(heads=heads, inner_sets=exact, outer_sets=exact), hp_fin
        )
        np.testing.assert_allclose(fin.params_next.rep, pop.params_next.rep, rtol=0, atol=1e-14)
        np.testing.assert_allclose(fin.params_next.head, pop.params_next.head, rtol=0, atol=1e-14)
        np.testing.assert_allclose(fin.adapted_heads, pop.adapted_heads, rtol=0, atol=1e-14)
        if algo in FULL_ADAPTATION:
            np.testing.assert_allclose(fin.adapted_reps, pop.adapted_reps, rtol=0, atol=1e-14)
        else:
            assert fin.adapted_reps is None and pop.adapted_reps is None


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
        inner = sample_dataset(env, heads, m, rng)
        outer = sample_dataset(env, heads, m, rng)
        pop_batch = TaskBatch(heads=heads)
        fin_batch = TaskBatch(heads=heads, inner_sets=inner, outer_sets=outer)

        pop = step_for(hp_pop)(params, env, pop_batch, hp_pop)
        fin = step_for(hp_fin)(params, env, fin_batch, hp_fin)
        tol = 10.0 / math.sqrt(m)
        assert np.abs(fin.params_next.rep - pop.params_next.rep).max() <= tol
        assert np.abs(fin.params_next.head - pop.params_next.head).max() <= tol


class TestRoundBlocks:
    # From the second case on n k = 9 is odd, so each round's draw trims a
    # variate; the last two are a population block at n = k = 3 and one of
    # 2^14 head floats.
    @pytest.mark.parametrize("k, n, count", [(2, 3, 5), (3, 3, 15), (3, 3, 113), (3, 3, 1820)])
    def test_population_block_is_successive_head_draws(self, k: int, n: int, count: int) -> None:
        env = _env(d=6, k=k, seed=24)
        rng, reference = substream(24, 0, "tasks"), substream(24, 0, "tasks")
        block = list(_rounds(env, n, count, rng, None))
        assert len(block) == count
        for batch in block:
            want = sample_task_batch(env, n, reference).heads
            assert np.array_equal(batch.heads.view(np.uint64), want.view(np.uint64))
            assert batch.inner_sets is None and batch.outer_sets is None
        assert np.array_equal(rng.random(4), reference.random(4))

    def test_population_step_reads_the_given_representation(self) -> None:
        # A population step forms a round's targets from the B* it is given:
        # a round of a block, a batch drawn outside a block and a replaced
        # batch give the same bits for either B*, and the B* is read.
        env, other = _env(d=8, k=3, seed=29), _env(d=8, k=3, seed=30)
        hp = _hp(Algorithm.EXACT_MAML, n=4)
        batch = list(_rounds(env, hp.n, 3, substream(29, 0, "tasks"), None))[1]
        fresh = TaskBatch(batch.heads.copy())
        replaced = dataclasses.replace(batch)
        params = _random_params(substream(29, 0, "params"), 8, 3)
        for environment in (env, other):
            want = meta_gradients(params, environment, fresh, hp)
            for got in (meta_gradients(params, environment, b, hp) for b in (batch, replaced)):
                for g, w in zip(got, want):
                    assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
        assert not np.array_equal(meta_gradients(params, other, batch, hp)[1],
                                  meta_gradients(params, env, batch, hp)[1])

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("m_in", [2, 12], ids=["m<J", "m>=d"])
    def test_block_draws_its_heads_then_one_sketch_grid(self, m_in: int, count: int) -> None:
        # Heads from the tasks stream, bitwise the per-round draws; then from
        # the data stream one chi-square grid of the block's R n tasks by
        # the algorithm's columns (J_in inner, dof m_in, m_in - 1, ..., then
        # J_out outer, dof m_out, ..., at least 0), then their normals, zero
        # past the rank; round r reads rows r n : (r + 1) n, with its own
        # targets and the noise level.  For the columns of each algorithm.
        for columns in sorted(set(_SKETCH_COLUMNS.values())):
            self._check_sketch_grid(m_in, count, columns)

    @staticmethod
    def _check_sketch_grid(m_in: int, count: int, columns: tuple[int, int]) -> None:
        env = _env(d=6, k=2, seed=25, noise_std=0.1)
        n, m_out = 4, 30
        j_in, j_out = columns
        tasks, data = substream(25, m_in, "tasks"), substream(25, m_in, "data")
        block = list(_rounds(env, n, count, tasks, (m_in, m_out), data, columns))
        ref_tasks, ref_data = substream(25, m_in, "tasks"), substream(25, m_in, "data")
        heads = [sample_task_batch(env, n, ref_tasks).heads for _ in range(count)]
        dof = np.empty((count * n, j_in + j_out))
        dof[:] = np.maximum(np.array([m_in] * j_in + [m_out] * j_out)
                            - [*range(j_in), *range(j_out)], 0)
        roots = np.sqrt(chi_square(ref_data, dof))
        normals = standard_normal(ref_data, (count * n, j_in + j_out, env.d + 1))
        normals[:, :j_in][:, m_in:] = 0.0
        assert len(block) == count
        for r, batch in enumerate(block):
            assert np.array_equal(batch.heads.view(np.uint64), heads[r].view(np.uint64))
            rows = slice(r * n, (r + 1) * n)
            for side, cols, m in ((batch.inner_sets, slice(0, j_in), m_in),
                                  (batch.outer_sets, slice(j_in, None), m_out)):
                assert side.n == n and side.m == m
                assert np.array_equal(side.roots, roots[rows, cols])
                assert np.array_equal(side.normals, normals[rows, cols])
                targets = heads[r].dot(env.ground_truth_rep.T)
                assert np.array_equal(side.targets.view(np.uint64), targets.view(np.uint64))
                assert side.sigma == env.noise_std
        assert (block[0].inner_sets.normals[:, m_in:] == 0.0).all()
        assert np.array_equal(tasks.random(4), ref_tasks.random(4))
        assert np.array_equal(data.random(4), ref_data.random(4))

    def test_variates_per_block_do_not_depend_on_m(self, monkeypatch) -> None:
        # Gaussian and chi-square variates requested by the block's samplers
        # (the chi-square sampler's own rejection draws are internal to it).
        import linrep.env

        counts = {"normal": 0, "chi2": 0}
        normal, chi2 = linrep.env.standard_normal, linrep.env.chi_square

        def counting_normal(rng, shape, *, rows=1):
            counts["normal"] += int(np.prod(shape))
            return normal(rng, shape, rows=rows)

        def counting_chi2(rng, dof):
            counts["chi2"] += int(np.size(dof))
            return chi2(rng, dof)

        monkeypatch.setattr(linrep.env, "standard_normal", counting_normal)
        monkeypatch.setattr(linrep.env, "chi_square", counting_chi2)
        d, k, n, count = 6, 2, 4, 3
        env = _env(d=d, k=k, seed=22, noise_std=0.1)
        for columns in set(_SKETCH_COLUMNS.values()):
            seen = set()
            for m_in, m_out in ((1, d - 1), (d, d), (4 * d, 1000), (100_000, 4 * d)):
                counts.update(normal=0, chi2=0)
                list(_rounds(env, n, count, substream(22, m_in, m_out, "tasks"), (m_in, m_out),
                             substream(22, m_in, m_out, "data"), columns))
                seen.add((counts["normal"], counts["chi2"]))
            j = sum(columns)
            per_round = (n * k + n * j * (d + 1), n * j)  # heads, then the J sketch columns
            assert seen == {(count * per_round[0], count * per_round[1])}

    def test_block_validates_its_heads_once_and_builds_no_data_set(self, monkeypatch) -> None:
        # A round's heads are rows of its block's validated draw, and its
        # sketches rows of the block's draws, built unchecked.
        calls = []
        validate, validate_batch = DataSet.__post_init__, TaskBatch.__post_init__

        def counting_validate(self) -> None:
            calls.append(self.m)
            validate(self)

        def counting_validate_batch(self) -> None:
            calls.append(("batch", len(self.heads)))
            validate_batch(self)

        monkeypatch.setattr(DataSet, "__post_init__", counting_validate)
        monkeypatch.setattr(TaskBatch, "__post_init__", counting_validate_batch)
        env = _env(d=6, k=2, seed=27, noise_std=0.1)
        hp = _hp(Algorithm.FO_ANIL, Mode.FINITE, n=4, m_in=3, m_out=30)
        block = list(_rounds(env, hp.n, 5, substream(27, 0, "tasks"), (hp.m_in, hp.m_out),
                             substream(27, 0, "data"), _SKETCH_COLUMNS[hp.algo]))
        assert len(block) == 5 and block[-1].outer_sets.m == 30
        assert calls == [("batch", 20)]

    def test_finite_run_needs_a_data_stream(self) -> None:
        env = _env(d=6, k=2, seed=27, noise_std=0.1)
        hp = _hp(Algorithm.FO_ANIL, Mode.FINITE, n=4, m_in=3, m_out=30)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(27, 0, "init"))
        with pytest.raises(ValueError, match="data stream"):
            run_trajectory(env, hp, init, substream(27, 0, "tasks"))

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_run_draws_exactly_its_rounds_in_trimmed_blocks(self, mode: Mode, monkeypatch) -> None:
        # 2 R + 2 rounds are two full blocks and a trimmed one of 2 rounds.
        d, k, n = 20, 3, 10
        size = _block_size(Algorithm.FO_ANIL, mode, d, k, n)
        iters = 2 * size + 1
        # A finite-sample block draws its sketches in one chi-square call on
        # its R n tasks; a run calls no full data-set sampler.
        head_rows: list[int] = []
        sketch_rows: list[int] = []
        draw_heads, draw_roots = linrep.env._round_heads, linrep.env.chi_square

        def counting_heads(env, rounds, n, rng):
            head_rows.append(rounds * n)
            return draw_heads(env, rounds, n, rng)

        def counting_roots(rng, dof):
            sketch_rows.append(len(dof))
            return draw_roots(rng, dof)

        def no_sets(*args):
            raise AssertionError("a run drew a full data set")

        monkeypatch.setattr(linrep.env, "_round_heads", counting_heads)
        monkeypatch.setattr(linrep.env, "chi_square", counting_roots)
        monkeypatch.setattr(linrep.env, "sample_dataset", no_sets)
        env = _env(d=d, k=k, seed=26, noise_std=0.1)
        hp = _hp(Algorithm.FO_ANIL, mode, n=n, iters=iters, m_in=30, m_out=30)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(26, 0, "init"))
        result = run_trajectory(env, hp, init, substream(26, 0, "tasks"), record_every=3,
                                data_rng=substream(26, 0, "data"))
        assert not result.diverged
        schedule = sorted({*range(0, iters + 1, 3), iters})
        assert [r.t for r in result.trajectory] == schedule
        assert head_rows == [size * n, size * n, 2 * n]
        expected = [size * n, size * n, 2 * n]
        assert sketch_rows == (expected if mode is Mode.FINITE else [])


    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("diverges", [False, True], ids=["full", "diverges"])
    def test_statistics_computed_once_per_block(
        self, mode: Mode, diverges: bool, monkeypatch
    ) -> None:
        # 2 R + 2 rounds are two full blocks and a trimmed one of 2 rounds.
        # The diverging run blows its head up on the step into the last
        # iteration, t = 2 R + 1, so it stops one round into its third block.
        # Either run must equal the same run with every round's statistics
        # computed on its own; that reference run draws the same blocks, and
        # so computes their statistics once each as well.
        d, k, n = 20, 3, 10
        size = _block_size(Algorithm.FO_ANIL, mode, d, k, n)
        iters = 2 * size + 1
        blow_up_at = iters if diverges else None
        blocks: list[int] = []
        stacked = linrep.env._head_statistics

        def counting_statistics(heads):
            blocks.append(len(heads))
            return stacked(heads)

        make_step = linrep.algorithms.step_for

        def blowing_step_for(hp):
            step, taken = make_step(hp), itertools.count(1)

            def patched(params, env, batch, hp):
                outcome = step(params, env, batch, hp)
                if next(taken) == blow_up_at:
                    huge = ModelParams(outcome.params_next.rep, np.full(env.k, 1e7))
                    return dataclasses.replace(outcome, params_next=huge)
                return outcome

            return patched

        monkeypatch.setattr(linrep.env, "_head_statistics", counting_statistics)
        monkeypatch.setattr(linrep.algorithms, "step_for", blowing_step_for)
        env = _env(d=d, k=k, seed=26, noise_std=0.1)
        hp = _hp(Algorithm.FO_ANIL, mode, n=n, iters=iters, m_in=30, m_out=30)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(26, 0, "init"))

        def run() -> RunResult:
            return run_trajectory(env, hp, init, substream(26, 0, "tasks"), record_every=3,
                                  data_rng=substream(26, 0, "data"))

        result = run()
        assert blocks == [size, size, 2]
        monkeypatch.setattr(
            linrep.algorithms, "diversity_stats",
            lambda batch: DiversityStats(*diversity_stats_loop(batch.heads)),
        )
        blocks.clear()
        reference = run()
        assert blocks == [size, size, 2]
        assert result.diverged_at == reference.diverged_at == blow_up_at
        assert result.trajectory.tobytes() == reference.trajectory.tobytes()
        assert result.head_stats == reference.head_stats


    @pytest.mark.parametrize("n", [3, 1])
    @pytest.mark.parametrize(
        "algo, beta",
        [*((algo, 0.05) for algo in ALL_ALGOS), (Algorithm.EXACT_MAML, 1.5)],
        ids=[*(algo.value for algo in ALL_ALGOS), "EXACT_MAML-diverges"],
    )
    def test_population_run_does_not_depend_on_block_size(
        self, algo: Algorithm, beta: float, n: int, monkeypatch
    ) -> None:
        # A population block draws only heads, bitwise the per-round draws,
        # and a round's statistics and targets have the same bits in any
        # block, so a population run has the same bytes whatever its block
        # size: the rule's R (113 at n = k = 3, 341 at n = 1), the R of 2^14
        # head floats (1820 at n = 3; at n = 1 the whole run, 1920 rounds),
        # R = 13, and R = 1.  At n = 3 the 1920 rounds end in a trimmed block
        # at every size but R = 1, and the diverging run stops at t = 1555,
        # inside a block at every size but R = 1.  A finite-sample run's
        # heads do not depend on R either, but its data do (see the next
        # test).
        d, k, iters = 8, 3, 1919
        env = _env(d=d, k=k, seed=31, head_mean=1.0)
        hp = _hp(algo, alpha=0.1, beta=beta, n=n, iters=iters)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(31, 0, "init"))
        first_block: list[int] = []
        draw_heads = linrep.env._round_heads

        def counting_heads(env, rounds, n, rng):
            if not first_block:
                first_block.append(rounds)
            return draw_heads(env, rounds, n, rng)

        monkeypatch.setattr(linrep.env, "_round_heads", counting_heads)
        sizes = {3: (113, 1820, 13, 1), 1: (341, iters + 1, 13, 1)}[n]
        runs = {}
        for floats, size in zip((_HEAD_BLOCK_FLOATS, 2**14, 13 * n * k, 1), sizes):
            monkeypatch.setattr(linrep.env, "_HEAD_BLOCK_FLOATS", floats)
            first_block.clear()
            runs[size] = run_trajectory(env, hp, init, substream(31, 0, "tasks"), record_every=7)
            assert first_block == [size]
        result = runs[sizes[0]]
        if beta > 1.0 and n == 3:
            assert result.diverged_at == 1555
        for other in (runs[size] for size in sizes[1:]):
            assert other.trajectory.tobytes() == result.trajectory.tobytes()
            assert other.head_stats == result.head_stats
            assert other.diverged_at == result.diverged_at
            np.testing.assert_array_equal(other.final_params.rep, result.final_params.rep)

    def test_finite_run_sees_the_population_heads_whatever_its_block_size(
        self, monkeypatch
    ) -> None:
        # With its data on a stream of its own, a finite-sample run steps on
        # the heads of the population run on the same tasks stream, at any
        # block size: its records' running statistics are bitwise the
        # population run's.  Its data do depend on R, since a block draws
        # the chi-squares of all its rounds before their normals; this is
        # why R follows the run's dimensions alone.  At n = 3, d = 6 the
        # rule gives R = 170, so 400 rounds span three blocks.
        env = _env(d=6, k=2, seed=32, noise_std=0.1)
        seen: dict[str, list[np.ndarray]] = {}
        make_step = linrep.algorithms.step_for

        def recording_step_for(hp):
            step = make_step(hp)

            def recorded(params, env, batch, hp):
                heads.append(batch.heads)
                return step(params, env, batch, hp)

            return recorded

        monkeypatch.setattr(linrep.algorithms, "step_for", recording_step_for)
        runs = {}
        for name, mode, floats in (("population", Mode.POPULATION, _BLOCK_FLOATS),
                                   ("finite", Mode.FINITE, _BLOCK_FLOATS),
                                   ("finite R=1", Mode.FINITE, 1)):
            monkeypatch.setattr(linrep.env, "_BLOCK_FLOATS", floats)
            hp = _hp(Algorithm.EXACT_MAML, mode, n=3, iters=399, m_in=20, m_out=20)
            init = init_model(env, hp.alpha, InitScheme.SPEC, substream(32, 0, "init"))
            heads = seen[name] = []
            runs[name] = run_trajectory(env, hp, init, substream(32, 0, "tasks"),
                                        record_every=7, data_rng=substream(32, 0, "data"))
        assert len(seen["population"]) == 400
        for name in ("finite", "finite R=1"):
            assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                       for a, b in zip(seen[name], seen["population"], strict=True))
            for column in ("t", "mu_sq", "L_sq", "eta", "L_max"):
                assert runs[name].trajectory[column].tobytes() == \
                    runs["population"].trajectory[column].tobytes()
        assert runs["finite"].trajectory.dist.tobytes() != \
            runs["finite R=1"].trajectory.dist.tobytes()


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

    def test_rows_are_named_tuples_and_results_have_a_repr(self) -> None:
        env = _env(d=6, k=2, seed=15)
        hp = _hp(Algorithm.FO_ANIL, iters=5)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(15, 0, "init"))
        result = run_trajectory(env, hp, init, substream(15, 0, "tasks"), record_every=2)
        assert repr(result.trajectory) and repr(result)
        assert len(result.trajectory) == 4
        for row, values in zip(result.trajectory, result.trajectory.tolist()):
            t, *diagnostics = row
            assert len(row) == len(row._fields) == 12
            assert row._fields == result.trajectory.dtype.names
            assert tuple(row) == values and type(row.t) is type(t) is int
            assert all(type(v) is float for v in diagnostics)
        assert [row.t for row in result.trajectory] == [0, 2, 4, 5]

    def test_zero_iterations_from_collapsed_representation_diverge_at_zero(self) -> None:
        env = _env(d=6, k=2, seed=14)
        hp = _hp(Algorithm.FO_ANIL, iters=0)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(14, 0, "init"))
        rep = init.rep.copy()
        rep[:, 1] = 0.0  # rank deficient: the subspace geometry is undefined
        collapsed = ModelParams(rep=rep, head=init.head)
        result = run_trajectory(env, hp, collapsed, substream(14, 0, "tasks"), record_every=10)
        assert result.diverged
        assert result.diverged_at == 0
        assert len(result.trajectory) == 0
        assert result.head_stats is None

    @pytest.mark.parametrize(
        "record_every, message",
        [(2.5, "an integer"), (3.0, "an integer"), (True, "an integer"), ("3", "an integer"),
         (0, "at least 1"), (np.int64(-1), "at least 1")],
        ids=repr,
    )
    def test_record_every_must_be_a_positive_integer(self, record_every, message: str) -> None:
        env = _env(d=6, k=2, seed=15)
        hp = _hp(Algorithm.FO_ANIL, iters=5)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(15, 0, "init"))
        with pytest.raises(ValueError, match=f"record_every must be {message}"):
            run_trajectory(env, hp, init, substream(15, 0, "tasks"), record_every=record_every)

    def test_numpy_integer_record_every_accepted(self) -> None:
        env = _env(d=6, k=2, seed=15)
        hp = _hp(Algorithm.FO_ANIL, iters=25)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(15, 0, "init"))
        result = run_trajectory(env, hp, init, substream(15, 0, "tasks"), np.int64(10))
        assert [r.t for r in result.trajectory] == [0, 10, 20, 25]

    def test_recording_schedule_includes_final_iteration(self) -> None:
        env = _env(d=6, k=2, seed=15)
        hp = _hp(Algorithm.FO_ANIL, iters=25)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(15, 0, "init"))
        result = run_trajectory(env, hp, init, substream(15, 0, "tasks"), record_every=10)
        assert [r.t for r in result.trajectory] == [0, 10, 20, 25]
        # Rows read as Python scalars, as JSON takes them; columns are arrays.
        assert all(type(r.t) is int and type(r.dist) is float for r in result.trajectory)
        assert json.loads(json.dumps([r.t for r in result.trajectory])) == [0, 10, 20, 25]
        assert result.trajectory.dist.dtype == np.float64
        last = result.trajectory[-1]
        assert result.head_stats == DiversityStats(last.mu_sq, last.L_sq, last.eta, last.L_max)

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
        mu = result.trajectory.mu_sq.tolist()
        lsq = result.trajectory.L_sq.tolist()
        assert all(a >= b for a, b in zip(mu, mu[1:]))
        assert all(a <= b for a, b in zip(lsq, lsq[1:]))

    def test_running_statistics_are_exact_running_extremes(self) -> None:
        # Every round counts, recorded or not: the rounds are redrawn here
        # one at a time with ``sample_task_batch`` on the run's stream
        # (bitwise the heads the run draws a block at a time), and their
        # statistics reduced to running extremes independently of the run.
        # The run spans three record chunks.
        record_every = 3
        env = _env(d=6, k=2, seed=18, head_mean=0.5)
        hp = _hp(Algorithm.FO_ANIL, iters=2 * _RECORD_CHUNK * record_every + 7, n=2)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(18, 0, "init"))
        result = run_trajectory(env, hp, init, substream(18, 0, "tasks"), record_every)
        assert not result.diverged
        trajectory = result.trajectory
        assert len(trajectory) > 2 * _RECORD_CHUNK

        rng = substream(18, 0, "tasks")
        rounds = [diversity_stats(sample_task_batch(env, hp.n, rng)) for _ in range(hp.iters + 1)]
        running = {
            "mu_sq": np.minimum.accumulate([s.mu_sq for s in rounds]),
            "L_sq": np.maximum.accumulate([s.L_sq for s in rounds]),
            "eta": np.minimum.accumulate([s.eta for s in rounds]),
            "L_max": np.maximum.accumulate([s.L_max for s in rounds]),
        }
        for name, column in running.items():
            np.testing.assert_array_equal(trajectory[name], column[trajectory.t], err_msg=name)

        assert (trajectory.mu_sq >= 0.0).all()
        assert (trajectory.mu_sq <= trajectory.L_sq).all()
        assert (trajectory.L_sq <= trajectory.L_max**2).all()
        assert (trajectory.eta**2 <= trajectory.L_sq).all()
        last = trajectory[-1]
        assert result.head_stats == DiversityStats(last.mu_sq, last.L_sq, last.eta, last.L_max)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["rep", "head"])
    def test_non_finite_parameters_are_diverged(self, bad: float, where: str) -> None:
        params = _random_params(substream(28, 0, "params"), 6, 2)
        assert not _is_diverged(params, rep_limit=1e6)
        rep, head = params.rep.copy(), params.head.copy()
        (rep if where == "rep" else head)[-1] = bad
        assert _is_diverged(ModelParams(rep, head), rep_limit=1e6)

    @pytest.mark.parametrize(
        "case",
        ["nan", "inf", "-inf", "rep squares overflow", "head squares overflow", "head at 1e6",
         "head past 1e6", "frobenius above, spectral below", "spectral above", "ordinary"],
    )
    def test_divergence_verdict_is_the_exact_one(self, case: str) -> None:
        # The exact verdict: a non-finite entry, a head norm above 1e6 or a
        # representation spectral norm above the limit.  The last three
        # cases have no entry above the limit, and the first two of them a
        # Frobenius norm above it, so that only the spectral norm can decide.
        d, k, limit = 20, 3, 1e6 / math.sqrt(0.1)
        rng = substream(33, 0, "params")
        frame, _ = np.linalg.qr(standard_normal(rng, (d, k)))
        rep, head = frame.copy(), np.array([0.5, -1.0, 2.0])
        if case in ("nan", "inf", "-inf"):
            rep[3, 1] = float(case)
        elif case == "rep squares overflow":
            rep[3, 1] = 1e200
        elif case == "head squares overflow":
            head[2] = -1e200
        elif case in ("head at 1e6", "head past 1e6"):
            head = np.array([0.0, 1e6 if case == "head at 1e6" else np.nextafter(1e6, 2e6), 0.0])
        elif case == "frobenius above, spectral below":
            rep = 0.9 * limit * frame
        elif case == "spectral above":
            rep = 1.1 * limit * frame
        params = ModelParams(rep, head)
        with np.errstate(over="ignore", invalid="ignore"):
            exact = not (np.isfinite(rep).all() and np.isfinite(head).all()) or (
                float(np.linalg.norm(head)) > 1e6 or spectral_norm(rep) > limit
            )
        expected = {"nan": True, "inf": True, "-inf": True, "rep squares overflow": True,
                    "head squares overflow": True, "head at 1e6": False, "head past 1e6": True,
                    "frobenius above, spectral below": False, "spectral above": True,
                    "ordinary": False}
        assert exact is expected[case]
        if case in ("frobenius above, spectral below", "spectral above"):
            assert np.abs(rep).max() < limit < math.sqrt(np.vdot(rep, rep))

        with np.errstate(over="ignore", invalid="ignore"):  # as in ``run_trajectory``
            assert _is_diverged(params, limit) is exact

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_representation_diverges_at_zero(self, bad: float) -> None:
        env = _env(d=6, k=2, seed=29)
        hp = _hp(Algorithm.FO_ANIL, iters=20)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(29, 0, "init"))
        rep = init.rep.copy()
        rep[0, 0] = bad
        result = run_trajectory(env, hp, ModelParams(rep, init.head), substream(29, 0, "tasks"))
        assert result.diverged and result.diverged_at == 0
        assert len(result.trajectory) == 0 and result.head_stats is None
        assert np.array_equal(result.final_params.rep, rep, equal_nan=True)

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_overflowing_head_diverges_without_warning(self, algo: Algorithm) -> None:
        env = _env(d=6, k=2, seed=30)
        hp = _hp(algo, iters=20)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(30, 0, "init"))
        huge = ModelParams(init.rep, np.full(2, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_trajectory(env, hp, huge, substream(30, 0, "tasks"), record_every=5)
        assert result.diverged and result.diverged_at == 1
        assert [r.t for r in result.trajectory] == [0]
        assert result.trajectory[0].w_norm == math.inf

    @pytest.mark.parametrize("blow_up", [False, True], ids=["collapse-only", "then-diverge"])
    def test_mid_run_collapse_truncates_at_its_record(self, blow_up: bool, monkeypatch) -> None:
        # The step into t=140 zeroes a column of the representation, so the
        # record at t=140 (record 70, inside the second chunk) has collapsed;
        # the column regrows on the next step.  With ``blow_up`` a huge head
        # at t=151 also ends the run before that chunk is recorded.
        record_every, collapse_at, blow_up_at = 2, 140, 151
        env = _env(d=6, k=2, seed=27)
        hp = _hp(Algorithm.FO_ANIL, iters=400, n=3)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(27, 0, "init"))
        make_step = linrep.algorithms.step_for
        steps: list[int] = []

        def patched_step_for(hp):
            step = make_step(hp)

            def patched(params, env, batch, hp):
                t = len(steps)
                steps.append(t)
                outcome = step(params, env, batch, hp)
                rep, head = outcome.params_next.rep.copy(), outcome.params_next.head.copy()
                if t + 1 == collapse_at:
                    rep[:, 1] = 0.0
                if blow_up and t + 1 == blow_up_at:
                    head[:] = 1e7
                return StepOutcome(ModelParams(rep, head), outcome.adapted_heads, outcome.adapted_reps)

            return patched

        monkeypatch.setattr(linrep.algorithms, "step_for", patched_step_for)

        def run() -> RunResult:
            steps.clear()
            return run_trajectory(env, hp, init, substream(27, 0, "tasks"), record_every)

        result = run()
        chunked_steps = len(steps)
        monkeypatch.setattr(linrep.algorithms, "_RECORD_CHUNK", 1)  # check at every record
        reference = run()

        assert len(steps) == collapse_at + 1
        assert collapse_at + 1 <= chunked_steps <= collapse_at + 1 + _RECORD_CHUNK * record_every
        assert result.diverged and result.diverged_at == collapse_at == reference.diverged_at
        assert result.trajectory.dtype == reference.trajectory.dtype
        assert result.trajectory.tobytes() == reference.trajectory.tobytes()
        assert result.trajectory[-1].t == collapse_at - record_every
        assert not result.final_params.rep[:, 1].any()
        np.testing.assert_array_equal(result.final_params.rep, reference.final_params.rep)
        np.testing.assert_array_equal(result.final_params.head, reference.final_params.head)
        # The running statistics are columns of the trajectory compared above.
        last = result.trajectory[-1]
        assert result.head_stats == reference.head_stats == DiversityStats(
            last.mu_sq, last.L_sq, last.eta, last.L_max
        )


def _bits(records) -> list[tuple]:
    """Records (a record array or tuples) as tuples with every float spelled
    in hex (bitwise, NaN-safe)."""
    rows = records.tolist() if isinstance(records, np.ndarray) else records
    return [tuple(v.hex() if type(v) is float else v for v in row) for row in rows]


class TestWholeRunOracle:
    """``run_trajectory`` against ``oracles.run_loop``, which redraws the
    run's rounds one at a time and keeps the statistics, records and
    divergence verdicts itself: bitwise the same trajectory, final
    parameters, ``diverged_at`` and ``head_stats``."""

    def _compare(self, env, hp: HyperParams, init: ModelParams, seed: int,
                 record_every: int) -> RunResult:
        result = run_trajectory(env, hp, init, substream(seed, 0, "tasks"), record_every)
        records, params, diverged_at, head_stats = run_loop(
            env, hp, init, substream(seed, 0, "tasks"), record_every, step=step_for(hp),
            sample_task_batch=sample_task_batch, perp=orth_complement(env.ground_truth_rep),
        )
        assert _bits(result.trajectory) == _bits(records)
        for got, want in ((result.final_params.rep, params.rep),
                          (result.final_params.head, params.head)):
            assert got.tobytes() == want.tobytes()
        assert result.diverged_at == diverged_at and result.diverged is (diverged_at is not None)
        if head_stats is None:
            assert result.head_stats is None
        else:
            assert _bits([dataclasses.astuple(result.head_stats)]) == _bits([head_stats])
        return result

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_run_equals_the_round_by_round_loop(self, algo: Algorithm) -> None:
        # 301 rounds are blocks of 113, 113 and 75 rounds; 151 records are
        # three record chunks.
        env = _env(d=8, k=3, seed=31, head_mean=1.0)
        hp = _hp(algo, alpha=0.1, beta=0.05, n=3, iters=300)
        assert _block_size(algo, Mode.POPULATION, env.d, env.k, hp.n) < hp.iters + 1
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(31, 0, "init"))
        result = self._compare(env, hp, init, 31, record_every=2)
        assert not result.diverged and len(result.trajectory) > 2 * _RECORD_CHUNK

    def test_diverging_run_equals_the_round_by_round_loop(self) -> None:
        env = _env(d=8, k=3, seed=31, head_mean=1.0)
        hp = _hp(Algorithm.EXACT_MAML, alpha=0.1, beta=1.5, n=3, iters=1919)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(31, 0, "init"))
        assert self._compare(env, hp, init, 31, record_every=7).diverged_at == 1555

    @pytest.mark.parametrize(
        "case, diverged_at",
        [("head past 1e6", 1), ("spectral past the limit", 1),
         ("frobenius past the limit, spectral below", None)],
    )
    def test_parameters_held_near_the_limits(self, case: str, diverged_at: int | None) -> None:
        # At beta = 0 the parameters never move, so every step's result is
        # the initial state: a fast divergence test with a limit looser than
        # the exact one lets the first two run on.
        env = _env(d=8, k=3, seed=34)
        hp = _hp(Algorithm.FO_ANIL, alpha=0.1, beta=0.0, n=3, iters=20)
        limit = 1e6 / math.sqrt(hp.alpha)
        frame, _ = np.linalg.qr(standard_normal(substream(34, 0, "init"), (env.d, env.k)))
        head = np.array([0.5, -1.0, 2.0])
        scales = np.array([1.0, 1.0, 1.0])
        if case == "head past 1e6":
            head = np.array([1.001e6, 0.0, 0.0])
        elif case == "spectral past the limit":
            scales = np.array([1.001 * limit, 1.0, 1.0])
        else:
            scales = np.array([0.999 * limit, 0.5 * limit, 0.5 * limit])
        result = self._compare(env, hp, ModelParams(frame * scales, head), 34, record_every=3)
        assert result.diverged_at == diverged_at


class TestPopulationSymmetries:
    """Whole-run symmetries of the population dynamics, on trial 0 of
    ``configs/population_zero_mean.json`` cut to 2,000 iterations.

    Population inputs are isotropic and every update term is built from
    ``B``, ``B*`` and the heads, so ``B_t`` stays in ``span(B_0, B*)``, and
    the run is equivariant under an orthogonal ``G`` acting on ``(B*, B_0)``,
    which leaves the principal-angle distance as it is; the analysis of
    Collins et al. 2022 (arXiv 2202.03483) tracks such rotation-free
    quantities.  The bounds are fixed multiples of ``eps``.  A diverging run
    (the EXACT_MAML run of ``TestWholeRunOracle`` that stops at t = 1555)
    stops at the same iteration when rotated.  The run in ``d`` equals the
    run in the ``2k`` coordinates of ``span(B*, B_0)``."""

    BOUND = 64 * np.finfo(float).eps
    # The two runs' losses sum over 20 and 6 coordinates, after 2,000 steps
    # of rounding apart; a step that depended on ``d`` would move them by
    # far more.
    LOSS_RTOL = 1e-12

    @pytest.fixture(scope="class")
    def trial(self):
        config = json.loads((_CONFIGS / "population_zero_mean.json").read_text())
        config["hp"]["iters"] = 2000
        config = ExperimentConfig.model_validate(config)
        seed = config.run.master_seed
        env = _build_env(config, 0)
        init = init_model(env, resolve_hyper(config).alpha, config.init.scheme,
                          substream(seed, 0, "init"))
        rotation, _ = np.linalg.qr(standard_normal(substream(seed, 0, "rotation"),
                                                   (env.d, env.d)))
        rotated_env = TaskEnvironment(env.d, env.k, rotation @ env.ground_truth_rep,
                                      env.head_mean, env.head_scale, env.noise_std)
        rotated_init = ModelParams(rotation @ init.rep, init.head)
        return config, env, init, rotated_env, rotated_init

    def _run(self, trial, algo: Algorithm, rotated: bool) -> RunResult:
        config, env, init, rotated_env, rotated_init = trial
        if rotated:
            env, init = rotated_env, rotated_init
        return self._run_on(config, algo, env, init)

    @staticmethod
    def _run_on(config, algo: Algorithm, env, init: ModelParams) -> RunResult:
        """The trial's run of ``algo`` from ``init`` in ``env``."""
        hp = dataclasses.replace(resolve_hyper(config), algo=algo)
        return run_trajectory(env, hp, init, substream(config.run.master_seed, 0, "tasks"),
                              config.run.record_every)

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_representation_stays_in_the_initial_and_true_span(self, trial,
                                                                algo: Algorithm) -> None:
        _, env, init, _, _ = trial
        result = self._run(trial, algo, rotated=False)
        assert not result.diverged
        span, _ = np.linalg.qr(np.hstack([init.rep, env.ground_truth_rep]))
        final = result.final_params.rep
        outside = final - span @ (span.T @ final)
        assert np.linalg.norm(outside, 2) <= self.BOUND * np.linalg.norm(final, 2)

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_rotating_truth_and_start_keeps_the_distances(self, trial, algo: Algorithm) -> None:
        result = self._run(trial, algo, rotated=False)
        rotated = self._run(trial, algo, rotated=True)
        assert not result.diverged and not rotated.diverged
        assert np.array_equal(result.trajectory.t, rotated.trajectory.t)
        assert np.abs(result.trajectory.dist - rotated.trajectory.dist).max() <= self.BOUND

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_run_in_the_span_coordinates_is_the_same_run(self, trial, algo: Algorithm) -> None:
        config, env, init, _, _ = trial
        span, _ = np.linalg.qr(np.hstack([env.ground_truth_rep, init.rep]))
        assert span.shape == (env.d, 2 * env.k) and 2 * env.k < env.d
        reduced_env = TaskEnvironment(2 * env.k, env.k, span.T @ env.ground_truth_rep,
                                      env.head_mean, env.head_scale, env.noise_std)
        reduced_init = ModelParams(span.T @ init.rep, init.head)
        result = self._run(trial, algo, rotated=False)
        reduced = self._run_on(config, algo, reduced_env, reduced_init)
        assert not result.diverged and not reduced.diverged
        assert np.array_equal(result.trajectory.t, reduced.trajectory.t)
        assert np.abs(result.trajectory.dist - reduced.trajectory.dist).max() <= self.BOUND
        np.testing.assert_allclose(reduced.trajectory.loss, result.trajectory.loss,
                                   rtol=self.LOSS_RTOL, atol=0)

    def test_rotated_diverging_run_stops_at_the_same_iteration(self) -> None:
        env = _env(d=8, k=3, seed=31, head_mean=1.0)
        hp = _hp(Algorithm.EXACT_MAML, alpha=0.1, beta=1.5, n=3, iters=1919)
        init = init_model(env, hp.alpha, InitScheme.SPEC, substream(31, 0, "init"))
        rotation, _ = np.linalg.qr(standard_normal(substream(31, 0, "rotation"), (8, 8)))
        rotated_env = TaskEnvironment(env.d, env.k, rotation @ env.ground_truth_rep,
                                      env.head_mean, env.head_scale, env.noise_std)
        runs = [run_trajectory(e, hp, params, substream(31, 0, "tasks"), record_every=7)
                for e, params in ((env, init),
                                  (rotated_env, ModelParams(rotation @ init.rep, init.head)))]
        assert runs[0].diverged_at == runs[1].diverged_at == 1555
        assert np.array_equal(runs[0].trajectory.t, runs[1].trajectory.t)


def _snapshot_stack(seed: int, count: int, d: int = 8, k: int = 3, n: int = 4):
    """Random snapshots over six decades of scale, with the tiled heads of the
    average-risk baseline (a rank-one spectrum) every third round."""
    env = _env(d=d, k=k, seed=seed, noise_std=0.3)
    rng = np.random.default_rng(seed)
    rep = rng.normal(size=(count, d, k)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(count, 1, 1))
    head = rng.normal(size=(count, k)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(count, 1))
    adapted = rng.normal(size=(count, n, k))
    adapted[2::3] = head[2::3, None, :]
    task_heads = rng.normal(size=(count, n, k)) + 2.0
    stats = rng.uniform(0.0, 5.0, size=(count, 4))
    return env, _Snapshots(10 * np.arange(count), rep, head, adapted, task_heads, stats)


class TestRecordPass:
    def _compare(self, env, snapshots, alpha: float = 0.1) -> list:
        perp = orth_complement(env.ground_truth_rep)
        got = _records(snapshots, env, perp, alpha)
        want = record_loop(snapshots, env.ground_truth_rep, perp, env.noise_std, alpha)
        assert _bits(got) == _bits(want)
        return got

    @pytest.mark.parametrize("count", [1, 7, _RECORD_CHUNK])
    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_pass_equals_the_per_record_loop(self, seed: int, count: int) -> None:
        env, snapshots = _snapshot_stack(seed, count)
        assert len(self._compare(env, snapshots)) == count

    def test_non_finite_adapted_heads_give_quiet_nan_psi(self) -> None:
        env, snapshots = _snapshot_stack(40, 12)
        bad = {1: 1e200, 4: math.inf, 6: -math.inf, 9: math.nan}
        for index, value in bad.items():
            snapshots.adapted_heads[index] = value
        snapshots.adapted_heads[10, 0, 0] = math.nan  # one non-finite head entry
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            records = self._compare(env, snapshots)
        assert len(records) == len(snapshots.t)
        for index in [*bad, 10]:
            assert math.isnan(records[index].psi_min) and math.isnan(records[index].psi_max)
        assert all(math.isfinite(r.psi_max) for i, r in enumerate(records) if i not in [*bad, 10])

    @pytest.mark.parametrize("index", [0, 5, _RECORD_CHUNK - 1])
    @pytest.mark.parametrize("defect", ["zero-column", "dependent-columns", "nan"])
    def test_collapsed_representation_truncates_at_its_index(self, index: int, defect: str) -> None:
        env, snapshots = _snapshot_stack(41, _RECORD_CHUNK)
        rep = snapshots.rep[index]
        if defect == "zero-column":
            rep[:, 1] = 0.0
        elif defect == "dependent-columns":
            rep[:, 2] = 2.0 * rep[:, 0]
        else:
            rep[3, 0] = math.nan
        if index < _RECORD_CHUNK - 1:
            snapshots.rep[-1, :, 0] = 0.0  # a later collapse is never reached
        assert len(self._compare(env, snapshots)) == index

    def test_records_hold_python_floats(self) -> None:
        # An int64 iteration column and float64 diagnostics, which read
        # back as Python scalars.
        env, snapshots = _snapshot_stack(42, 3)
        perp = orth_complement(env.ground_truth_rep)
        records = _records(snapshots, env, perp, 0.1)
        assert isinstance(records, np.recarray)
        assert records.dtype.fields["t"][0] == np.int64
        assert all(records.dtype.fields[name][0] == np.float64 for name in records.dtype.names[1:])
        for row in records.tolist():
            assert type(row[0]) is int
            assert all(type(v) is float for v in row[1:])
