"""Tests for model parameters, initialization schemes, losses, and gradients."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from linrep.env import DataSet, sample_environment
from linrep.metrics import orth_complement, principal_angle_dist
from linrep.model import (
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
from linrep.rng import standard_normal, substream
from oracles import central_diff_pair, rel_err


def _samples(env, head_true: np.ndarray, m: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Raw ``(X, y)`` with ``y = X B* w* + sigma z``, drawn independently of
    the package's data sampler."""
    inputs = standard_normal(rng, (m, env.d))
    noise = env.noise_std * standard_normal(rng, (m,))
    return inputs, inputs @ (env.ground_truth_rep @ head_true) + noise


def _env(d: int = 6, k: int = 2, noise_std: float = 0.0, seed: int = 0):
    return sample_environment(
        d, k, head_mean=0.0, head_scale=1.0, noise_std=noise_std,
        rng=substream(seed, 0, "env"),
    )


class TestHyperParams:
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_non_finite_step_size_rejected_naming_it(self, field: str, bad: float) -> None:
        values = dict(algo=Algorithm.FO_ANIL, mode=Mode.POPULATION, alpha=0.1, beta=0.1,
                      n=3, iters=10)
        values[field] = bad
        with pytest.raises(ValueError, match=field):
            HyperParams(**values)

    @pytest.mark.parametrize("bad", [True, 2.5, 3.0], ids=["bool", "fraction", "integral-float"])
    @pytest.mark.parametrize("field", ["n", "iters", "m_in", "m_out"])
    def test_non_integer_count_rejected_naming_it(self, field: str, bad: object) -> None:
        values = dict(algo=Algorithm.FO_ANIL, mode=Mode.FINITE, alpha=0.1, beta=0.1,
                      n=3, iters=10, m_in=4, m_out=5)
        values[field] = bad
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            HyperParams(**values)

    @pytest.mark.parametrize(
        "field, bad",
        [("algo", "FO_ANIL"), ("mode", "POPULATION"), ("mode", "FINITE"), ("mode", None),
         ("algo", Mode.FINITE), ("alpha", True), ("beta", True), ("alpha", "0.1")],
        ids=["algo-name", "mode-name", "finite-name", "mode-none", "algo-mode", "bool-alpha",
             "bool-beta", "str-alpha"],
    )
    def test_non_member_selection_or_non_real_step_rejected_naming_it(
        self, field: str, bad: object
    ) -> None:
        # Names pass neither the enum checks of a run (a "POPULATION" string
        # would run as FINITE) nor the FINITE check of m_in, here 0.
        values = dict(algo=Algorithm.FO_ANIL, mode=Mode.FINITE, alpha=0.1, beta=0.1,
                      n=3, iters=10)
        values[field] = bad
        with pytest.raises(ValueError, match=f"^{field} must be a"):
            HyperParams(**values)

    @pytest.mark.parametrize(
        "value", [Fraction(1, 10), np.float64(0.1), np.float32(0.1), 1, np.int64(2)], ids=repr
    )
    def test_real_step_sizes_stored_as_float(self, value) -> None:
        hp = HyperParams(algo=Algorithm.FO_ANIL, mode=Mode.POPULATION, alpha=value, beta=value,
                         n=3, iters=10)
        assert type(hp.alpha) is float and type(hp.beta) is float
        assert hp.alpha == hp.beta == float(value)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_step_size_beyond_float_range_rejected_naming_it(self, field: str) -> None:
        values = dict(algo=Algorithm.FO_ANIL, mode=Mode.POPULATION, alpha=0.1, beta=0.1,
                      n=3, iters=10)
        values[field] = 10**400
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            HyperParams(**values)

    def test_numpy_integer_counts_accepted(self) -> None:
        hp = HyperParams(algo=Algorithm.FO_ANIL, mode=Mode.FINITE, alpha=0.1, beta=0.1,
                         n=np.int64(3), iters=np.int32(10), m_in=np.int64(4), m_out=np.uint8(5))
        assert (hp.n, hp.iters, hp.m_in, hp.m_out) == (3, 10, 4, 5)


class TestInitModel:
    def test_scaled_orthonormal_scheme(self) -> None:
        env = _env(d=10, k=3)
        alpha = 0.07
        params = init_model(env, alpha, InitScheme.SPEC, substream(1, 0, "init"))
        gram = alpha * params.rep.T @ params.rep
        assert np.abs(gram - np.eye(3)).max() <= 1e-10
        assert np.linalg.norm(params.head) == 0.0

    def test_random_scheme_is_nearly_orthogonal_to_truth_in_high_dim(self) -> None:
        # Independent random subspaces in d=20 are far from any fixed subspace.
        hits = 0
        for seed in range(100):
            env = sample_environment(
                20, 3, head_mean=0.0, head_scale=1.0, noise_std=0.0,
                rng=substream(seed, 0, "env"),
            )
            params = init_model(env, 0.1, InitScheme.RANDOM, substream(seed, 0, "init"))
            perp = orth_complement(env.ground_truth_rep)
            if principal_angle_dist(params.rep, perp) >= 0.9:
                hits += 1
        assert hits >= 95

    def test_near_truth_scheme_lands_in_requested_band(self) -> None:
        for seed in (0, 1, 2):
            for band in ((0.65, 0.70), (0.2, 0.25), (0.05, 0.10)):
                env = _env(d=12, k=3, seed=seed)
                alpha = 0.05
                params = init_model(
                    env, alpha, InitScheme.NEAR_TRUTH, substream(seed, 0, "init"),
                    target_band=band,
                )
                perp = orth_complement(env.ground_truth_rep)
                dist0 = principal_angle_dist(params.rep, perp)
                assert band[0] <= dist0 <= band[1]
                gram = alpha * params.rep.T @ params.rep
                assert np.abs(gram - np.eye(3)).max() <= 1e-10

    def test_near_truth_unreachable_band_raises(self) -> None:
        env = _env(d=12, k=3)
        with pytest.raises(ValueError, match="band"):
            init_model(
                env, 0.05, InitScheme.NEAR_TRUTH, substream(0, 0, "init"),
                target_band=(0.999999, 0.9999995),
            )

    def test_near_truth_requires_band(self) -> None:
        env = _env()
        with pytest.raises(ValueError, match="target_band"):
            init_model(env, 0.05, InitScheme.NEAR_TRUTH, substream(0, 0, "init"))

    def test_invalid_band_rejected(self) -> None:
        env = _env()
        with pytest.raises(ValueError):
            init_model(env, 0.05, InitScheme.NEAR_TRUTH, substream(0, 0, "init"),
                       target_band=(0.7, 0.65))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_alpha_rejected(self, bad: float) -> None:
        with pytest.raises(ValueError, match="alpha"):
            init_model(_env(), bad, InitScheme.SPEC, substream(0, 0, "init"))


class TestLosses:
    def test_population_loss_hand_value(self) -> None:
        env = _env(d=2, k=1)
        # Overwrite geometry with a hand-built one via direct construction.
        from linrep.env import TaskEnvironment

        env = TaskEnvironment(
            d=2, k=1, ground_truth_rep=np.array([[0.0], [1.0]]),
            head_mean=np.zeros(1), head_scale=1.0, noise_std=0.0,
        )
        params = ModelParams(rep=np.array([[1.0], [0.0]]), head=np.array([2.0]))
        # Prediction (2, 0), target (0, 3): half squared distance = 6.5.
        assert population_task_loss(params, env, np.array([3.0])) == pytest.approx(6.5)

        noisy = TaskEnvironment(
            d=2, k=1, ground_truth_rep=np.array([[0.0], [1.0]]),
            head_mean=np.zeros(1), head_scale=1.0, noise_std=0.4,
        )
        assert population_task_loss(params, noisy, np.array([3.0])) == pytest.approx(6.58)

    def test_population_loss_matches_monte_carlo_risk(self) -> None:
        env = _env(d=5, k=2, noise_std=0.3, seed=3)
        rng = substream(3, 0, "mc")
        params = ModelParams(
            rep=standard_normal(rng, (5, 2)), head=standard_normal(rng, (2,))
        )
        head_true = standard_normal(rng, (2,))
        m = 400_000
        X, y = _samples(env, head_true, m, substream(3, 0, "data"))
        emp = 0.5 * float(np.mean((X @ (params.rep @ params.head) - y) ** 2))
        want = population_task_loss(params, env, head_true)
        assert emp == pytest.approx(want, rel=0.02)
        assert finite_task_loss(params, DataSet.from_samples(X, y)) == pytest.approx(emp, rel=1e-9)

    def test_finite_loss_hand_value(self) -> None:
        params = ModelParams(rep=np.array([[1.0], [0.0]]), head=np.array([2.0]))
        ds = DataSet.from_samples(np.eye(2), np.array([1.0, -1.0]))
        # Predictions (2, 0); residuals (1, 1); loss = (1 + 1) / (2 * 2).
        assert finite_task_loss(params, ds) == pytest.approx(0.5)

    def test_rotation_of_factorization_leaves_losses_unchanged(self) -> None:
        rng = substream(4, 0, "rot")
        env = _env(d=7, k=3, noise_std=0.2, seed=4)
        ds = DataSet.from_samples(*_samples(env, standard_normal(rng, (3,)), 50, substream(4, 1, "data")))
        head_true = standard_normal(rng, (3,))
        for _ in range(25):
            params = ModelParams(
                rep=standard_normal(rng, (7, 3)), head=standard_normal(rng, (3,))
            )
            Q, _ = np.linalg.qr(standard_normal(rng, (3, 3)))
            rotated = ModelParams(rep=params.rep @ Q, head=Q.T @ params.head)
            assert population_task_loss(rotated, env, head_true) == pytest.approx(
                population_task_loss(params, env, head_true), abs=1e-12, rel=1e-12
            )
            assert finite_task_loss(rotated, ds) == pytest.approx(
                finite_task_loss(params, ds), abs=1e-12, rel=1e-12
            )


    def test_statistics_form_matches_raw_residuals(self) -> None:
        # Loss and gradients from (S, b, y^T y/m) against the raw-sample
        # formulas (1/2m)||XBw - y||^2, (1/m)(XB)^T r and (1/m) X^T r w^T.
        rng = substream(10, 0, "stats")
        for m in (3, 40):
            env = _env(d=6, k=2, noise_std=0.3, seed=10)
            X, y = _samples(env, standard_normal(rng, (2,)), m, rng)
            ds = DataSet.from_samples(X, y)
            params = ModelParams(rep=standard_normal(rng, (6, 2)), head=standard_normal(rng, (2,)))
            r = X @ (params.rep @ params.head) - y
            assert finite_task_loss(params, ds) == pytest.approx(0.5 * float(r @ r) / m, rel=1e-12)
            np.testing.assert_allclose(fs_grad_w(params, ds), (X @ params.rep).T @ r / m,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(fs_grad_B(params, ds), np.outer(X.T @ r / m, params.head),
                                       rtol=1e-12, atol=1e-12)


class TestGradients:
    def test_population_gradients_match_central_differences(self) -> None:
        rng = substream(5, 0, "fd")
        worst = 0.0
        for trial in range(100):
            d = 2 + trial % 7  # d in 2..8
            k = 1 + trial % min(3, d - 1)
            env = _env(d=d, k=k, seed=trial)
            params = ModelParams(
                rep=standard_normal(rng, (d, k)), head=standard_normal(rng, (k,))
            )
            head_true = standard_normal(rng, (k,))

            def f(rep: np.ndarray, head: np.ndarray) -> float:
                return population_task_loss(ModelParams(rep=rep, head=head), env, head_true)

            g_head_fd, g_rep_fd = central_diff_pair(f, params.rep, params.head)
            worst = max(worst, rel_err(pop_grad_w(params, env, head_true), g_head_fd))
            worst = max(worst, rel_err(pop_grad_B(params, env, head_true), g_rep_fd))
        assert worst <= 1e-6

    def test_finite_gradients_match_central_differences(self) -> None:
        rng = substream(6, 0, "fd")
        worst = 0.0
        for trial in range(100):
            d = 2 + trial % 7
            k = 1 + trial % min(3, d - 1)
            env = _env(d=d, k=k, noise_std=0.3, seed=trial + 500)
            ds = DataSet.from_samples(
                *_samples(env, standard_normal(rng, (k,)), 9, substream(trial, 2, "data"))
            )
            params = ModelParams(
                rep=standard_normal(rng, (d, k)), head=standard_normal(rng, (k,))
            )

            def f(rep: np.ndarray, head: np.ndarray) -> float:
                return finite_task_loss(ModelParams(rep=rep, head=head), ds)

            g_head_fd, g_rep_fd = central_diff_pair(f, params.rep, params.head)
            worst = max(worst, rel_err(fs_grad_w(params, ds), g_head_fd))
            worst = max(worst, rel_err(fs_grad_B(params, ds), g_rep_fd))
        assert worst <= 1e-6

    def test_finite_gradients_approach_population_for_large_noiseless_samples(self) -> None:
        m = 100_000
        env = _env(d=6, k=2, noise_std=0.0, seed=9)
        rng = substream(9, 0, "big")
        # Unit-scale parameters keep the Monte-Carlo fluctuation of the
        # empirical gradient within the stated 5/sqrt(m) entrywise budget.
        basis, _ = np.linalg.qr(standard_normal(rng, (6, 2)))
        params = ModelParams(rep=basis, head=standard_normal(rng, (2,)))
        head_true = standard_normal(rng, (2,))
        ds = DataSet.from_samples(*_samples(env, head_true, m, substream(9, 1, "data")))
        tol = 5.0 / math.sqrt(m)
        assert np.abs(fs_grad_w(params, ds) - pop_grad_w(params, env, head_true)).max() <= tol
        assert np.abs(fs_grad_B(params, ds) - pop_grad_B(params, env, head_true)).max() <= tol


class TestRateMatchedAlpha:
    def test_formula_value(self) -> None:
        # constant * k^(-2/3) / (L * T^(1/4)) with defaults.
        assert rate_matched_alpha(1, 1.0, 1) == pytest.approx(0.25)
        got = rate_matched_alpha(3, 2.0, 10_000, constant=0.5)
        assert got == pytest.approx(0.5 * 3 ** (-2.0 / 3.0) / (2.0 * 10.0))

    def test_invalid_arguments(self) -> None:
        with pytest.raises(ValueError):
            rate_matched_alpha(0, 1.0, 10)
        with pytest.raises(ValueError):
            rate_matched_alpha(2, 0.0, 10)
        with pytest.raises(ValueError):
            rate_matched_alpha(2, 1.0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["l_star", "constant"])
    def test_non_finite_argument_rejected_naming_it(self, field: str, bad: float) -> None:
        values = dict(k=3, l_star=1.0, iters=100, constant=0.25)
        values[field] = bad
        with pytest.raises(ValueError, match=field):
            rate_matched_alpha(**values)
