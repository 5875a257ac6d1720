"""Tests for task environments, batches, data sampling, and diversity statistics."""
from __future__ import annotations

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linrep.env
from linrep.algorithms import _SKETCH_COLUMNS, step_for
from linrep.env import (
    DataSet,
    DiversityStats,
    TaskBatch,
    TaskEnvironment,
    _block_rounds,
    _check_statistics,
    diversity_stats,
    sample_dataset,
    sample_environment,
    sample_task_batch,
)
from linrep.model import Algorithm, HyperParams, Mode, ModelParams
from linrep.rng import standard_normal, substream
from oracles import bartlett_statistics, diversity_stats_loop, rayleigh_min_bruteforce


def _env(d: int = 6, k: int = 2, **kw: object) -> TaskEnvironment:
    defaults: dict = dict(head_mean=0.0, head_scale=1.0, noise_std=0.0)
    defaults.update(kw)
    return sample_environment(d, k, rng=substream(11, 0, "env"), **defaults)


class TestSampleEnvironment:
    def test_ground_truth_has_orthonormal_columns(self) -> None:
        env = _env(d=9, k=4)
        gram = env.ground_truth_rep.T @ env.ground_truth_rep
        assert np.abs(gram - np.eye(4)).max() <= 1e-12
        assert env.d == 9 and env.k == 4

    def test_scalar_head_mean_broadcasts(self) -> None:
        env = _env(d=5, k=3, head_mean=10.0)
        np.testing.assert_allclose(env.head_mean, np.full(3, 10.0))

    def test_vector_head_mean_kept(self) -> None:
        env = _env(d=5, k=3, head_mean=[1.0, 2.0, 3.0])
        np.testing.assert_allclose(env.head_mean, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("d,k", [(4, 4), (4, 5), (4, 0), (3, -1)])
    def test_invalid_rank_rejected(self, d: int, k: int) -> None:
        with pytest.raises(ValueError):
            sample_environment(d, k, head_mean=0.0, head_scale=1.0, noise_std=0.0,
                               rng=substream(1, 0, "env"))

    def test_negative_scales_rejected(self) -> None:
        with pytest.raises(ValueError):
            _env(head_scale=-1.0)
        with pytest.raises(ValueError):
            _env(noise_std=-0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field", ["head_scale", "noise_std", "head_mean", "ground_truth_rep"]
    )
    def test_non_finite_field_rejected_naming_it(self, field: str, bad: float) -> None:
        env = _env(d=3, k=2)
        values = dataclasses.asdict(env)
        if field in ("head_mean", "ground_truth_rep"):
            values[field][0, ...] = bad
        else:
            values[field] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=field):
                TaskEnvironment(**values)

    def test_direct_construction_enforces_orthonormality(self) -> None:
        with pytest.raises(ValueError, match="orthonormal"):
            TaskEnvironment(
                d=3, k=2,
                ground_truth_rep=np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]),
                head_mean=np.zeros(2), head_scale=1.0, noise_std=0.0,
            )

    def test_same_stream_reproduces_environment(self) -> None:
        a = sample_environment(7, 2, head_mean=0.0, head_scale=1.0, noise_std=0.1,
                               rng=substream(42, 3, "env"))
        b = sample_environment(7, 2, head_mean=0.0, head_scale=1.0, noise_std=0.1,
                               rng=substream(42, 3, "env"))
        np.testing.assert_array_equal(a.ground_truth_rep, b.ground_truth_rep)


class TestSampleTaskBatch:
    def test_shapes_and_mean_scale(self) -> None:
        env = _env(k=3, head_mean=5.0, head_scale=0.5)
        batch = sample_task_batch(env, n=2000, rng=substream(2, 0, "tasks"))
        assert batch.heads.shape == (2000, 3)
        assert batch.inner_sets is None and batch.outer_sets is None
        # Sample mean ~ N(5, 0.25/2000) per coordinate.
        np.testing.assert_allclose(batch.heads.mean(axis=0), np.full(3, 5.0), atol=0.1)
        np.testing.assert_allclose(batch.heads.std(axis=0), np.full(3, 0.5), atol=0.05)

    def test_batch_requires_positive_task_count(self) -> None:
        env = _env()
        with pytest.raises(ValueError):
            sample_task_batch(env, n=0, rng=substream(2, 0, "tasks"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_heads_rejected_naming_heads(self, bad: float) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="heads must be finite"):
                TaskBatch(heads=[[bad, 0.0], [1.0, 2.0]])
            with pytest.raises(ValueError, match="heads must be finite"):
                _block_rounds(_env(), np.array([[[1.0, 0.0]], [[0.0, bad]]]), None, None)


class TestSampleDataset:
    def test_input_covariance_close_to_identity(self) -> None:
        m, d = 100_000, 4
        env = _env(d=d, k=2)
        ds = sample_dataset(env, np.zeros((1, 2)), m=m, rng=substream(3, 0, "data"))[0]
        assert np.abs(ds.cov - np.eye(d)).max() <= 5.0 / np.sqrt(m)

    @pytest.mark.parametrize("m", [5, 500], ids=["m<d", "m>=d"])
    def test_noiseless_labels_are_exact_linear_responses(self, m: int) -> None:
        env = _env(d=8, k=3, noise_std=0.0)
        head = np.array([1.0, -2.0, 0.5])
        ds = sample_dataset(env, head[None, :], m=m, rng=substream(4, 0, "data"))[0]
        beta = env.ground_truth_rep @ head
        # Noiseless: X^T y/m = S beta and y^T y/m = beta^T S beta.
        tol = 1e-12 * env.d * float(np.linalg.norm(head))
        assert np.abs(ds.xty - ds.cov @ beta).max() <= tol
        assert abs(float(ds.yty) - float(beta @ ds.cov @ beta)) <= tol * float(beta @ beta)

    def test_label_noise_variance_matches_noise_std(self) -> None:
        sigma = 0.5
        env = _env(d=4, k=2, noise_std=sigma)
        head = np.array([1.0, 1.0])
        m = 100_000
        ds = sample_dataset(env, head[None, :], m=m, rng=substream(5, 0, "data"))[0]
        beta = env.ground_truth_rep @ head
        # (1/m) ||y - X beta||^2 from the statistics.
        resid_sq = float(ds.yty - 2.0 * ds.xty @ beta + beta @ ds.cov @ beta)
        assert resid_sq == pytest.approx(sigma**2, rel=0.05)

    def test_dataset_shape_validation(self) -> None:
        with pytest.raises(ValueError):
            DataSet(cov=np.zeros((3, 3)), xty=np.zeros(4), yty=0.0, m=1)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(cov=np.zeros(3), xty=np.zeros(3), yty=0.0, m=2),
            dict(cov=np.zeros((3, 2)), xty=np.zeros(3), yty=0.0, m=2),
            dict(cov=np.zeros((2, 3, 3)), xty=np.zeros((3, 3)), yty=np.zeros(2), m=2),
            dict(cov=np.zeros((2, 3, 3)), xty=np.zeros((2, 3)), yty=0.0, m=2),
            dict(cov=np.full((3, 3), np.nan), xty=np.zeros(3), yty=0.0, m=2),
            dict(cov=np.eye(3), xty=np.array([0.0, np.inf, 0.0]), yty=0.0, m=2),
            dict(cov=np.eye(3), xty=np.zeros(3), yty=np.nan, m=2),
            dict(cov=np.eye(3), xty=np.zeros(3), yty=0.0, m=0),
            dict(cov=np.eye(3), xty=np.zeros(3), yty=0.0, m=2.5),
            dict(cov=np.zeros((0, 3, 3)), xty=np.zeros((0, 3)), yty=np.zeros(0), m=2),
        ],
        ids=["cov-1d", "cov-not-square", "xty-shape", "yty-shape", "nan-cov", "inf-xty",
             "nan-yty", "m-zero", "m-fractional", "empty-stack"],
    )
    def test_invalid_statistics_rejected(self, fields: dict) -> None:
        with pytest.raises(ValueError):
            DataSet(**fields)

    def test_from_samples_matches_explicit_formulas(self) -> None:
        rng = np.random.default_rng(17)
        X = rng.standard_normal((3, 30, 5))
        y = rng.standard_normal((3, 30))
        stacked = DataSet.from_samples(X, y)
        assert stacked.m == 30 and stacked.n == 3
        for i in range(3):
            single = DataSet.from_samples(X[i], y[i])
            assert single.n is None
            for ds in (stacked[i], single):
                np.testing.assert_allclose(ds.cov, X[i].T @ X[i] / 30, rtol=1e-14, atol=1e-14)
                np.testing.assert_allclose(ds.xty, X[i].T @ y[i] / 30, rtol=1e-14, atol=1e-14)
                assert float(ds.yty) == pytest.approx(float(y[i] @ y[i]) / 30, rel=1e-14, abs=1e-14)
        with pytest.raises(ValueError):
            DataSet.from_samples(X, y[:, :-1])
        with pytest.raises(ValueError, match="at least one sample"):
            DataSet.from_samples(X[:, :0], y[:, :0])
        with pytest.raises(TypeError):
            DataSet.from_samples(X[0], y[0])[0]

    def test_slice_gives_the_stacked_sets_of_those_tasks(self) -> None:
        rng = np.random.default_rng(18)
        stacked = DataSet.from_samples(rng.standard_normal((5, 8, 3)), rng.standard_normal((5, 8)))
        part = stacked[1:4]
        assert part.n == 3 and part.m == 8
        np.testing.assert_array_equal(part.cov, stacked.cov[1:4])
        np.testing.assert_array_equal(part.xty, stacked.xty[1:4])
        np.testing.assert_array_equal(part.yty, stacked.yty[1:4])
        np.testing.assert_array_equal(part[1].cov, stacked[2].cov)
        for empty in (slice(2, 2), slice(5, 9)):
            with pytest.raises(ValueError, match="at least one task"):
                stacked[empty]
        with pytest.raises(TypeError):
            stacked[0][0:1]

    def test_heads_must_be_a_batch(self) -> None:
        env = _env(d=5, k=2)
        with pytest.raises(ValueError):
            sample_dataset(env, np.zeros(2), m=10, rng=substream(6, 0, "data"))
        with pytest.raises(ValueError):
            sample_dataset(env, np.zeros((3, 2)), m=0, rng=substream(6, 0, "data"))

    @pytest.mark.parametrize("m", [2.5, 3.0, True], ids=["fractional", "float", "bool"])
    def test_non_integer_sample_count_rejected_before_drawing(self, m) -> None:
        env = _env(d=6, k=2)
        rng = substream(6, 2, "data")
        with pytest.raises(ValueError, match="m="):
            sample_dataset(env, np.zeros((3, 2)), m=m, rng=rng)
        # No variate was drawn: the stream continues where a fresh one starts.
        np.testing.assert_array_equal(rng.random(4), substream(6, 2, "data").random(4))

    def test_numpy_integer_sample_count_accepted(self) -> None:
        env = _env(d=6, k=2)
        sets = sample_dataset(env, np.zeros((3, 2)), m=np.int64(4), rng=substream(6, 3, "data"))
        assert sets.m == 4 and type(sets.m) is int

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_heads_rejected_naming_heads_before_drawing(self, bad: float) -> None:
        env = _env(d=6, k=2, noise_std=0.1)
        rng = substream(6, 4, "data")
        with pytest.raises(ValueError, match="heads must be finite"):
            sample_dataset(env, np.array([[1.0, 0.0], [bad, 2.0]]), m=10, rng=rng)
        np.testing.assert_array_equal(rng.random(4), substream(6, 4, "data").random(4))

    @pytest.mark.parametrize("m_kind", ["1", "2", "d-1", "d", "d+1", "100", "1e6"])
    @pytest.mark.parametrize("d", [2, 6, 20])
    def test_statistics_are_the_reference_sampler_bitwise(self, d: int, m_kind: str) -> None:
        # The chi-squares over a broadcast dof grid with gathers on every
        # rejection pass, then two-draw Box-Muller normals put into the
        # factor through a boolean mask: the same bits and stream position.
        m = {"1": 1, "2": 2, "d-1": d - 1, "d": d, "d+1": d + 1, "100": 100, "1e6": 10**6}[m_kind]
        for noise_std in (0.0, 0.1):
            env = _env(d=d, k=1, noise_std=noise_std)
            for n in (1, 3, 40):
                heads = standard_normal(substream(13, d, m, n, "heads"), (n, 1)) + 1.0
                rng, reference = substream(13, d, m, n, "data"), substream(13, d, m, n, "data")
                sets = sample_dataset(env, heads, m, rng)
                want = bartlett_statistics(env.ground_truth_rep, noise_std, heads, m, reference)
                for got, expected in zip((sets.cov, sets.xty, sets.yty), want):
                    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
                assert np.array_equal(rng.random(4), reference.random(4))

    def test_task_batch_requires_one_stacked_set_per_task(self) -> None:
        env = _env(d=5, k=2)
        sets = sample_dataset(env, np.zeros((3, 2)), m=10, rng=substream(6, 1, "data"))
        TaskBatch(heads=np.zeros((3, 2)), inner_sets=sets, outer_sets=sets)
        with pytest.raises(ValueError, match="one data set per task"):
            TaskBatch(heads=np.zeros((2, 2)), inner_sets=sets)
        with pytest.raises(ValueError, match="one data set per task"):
            TaskBatch(heads=np.zeros((1, 2)), outer_sets=sets[0])

    @pytest.mark.parametrize(
        "m", [1, 3, 5, 20], ids=["m<d-m=1", "m<d-m=d-2", "m>=d-m=d", "m>=d-m=4d"]
    )
    def test_statistics_moments_match_raw_monte_carlo(self, m: int) -> None:
        # Seeds and the 5-standard-error tolerance were fixed before the
        # first run.  Means and variances of every entry of (S, b, y^T y/m)
        # from ``sample_dataset`` are compared with raw-sample Monte Carlo
        # drawn here, and the variances with their closed forms:
        # Var S_jj = 2/m, Var S_jl = 1/m, Var b_j = (|beta|^2 + s^2 + beta_j^2)/m,
        # Var y^T y/m = 2 (|beta|^2 + s^2)^2 / m.
        d, sigma, count = 5, 0.5, 4000
        env = _env(d=d, k=2, noise_std=sigma)
        head = np.array([1.0, -0.5])
        beta = env.ground_truth_rep @ head
        sampled = sample_dataset(env, np.tile(head, (count, 1)), m, substream(31, m, "moments"))

        rng = np.random.default_rng(1000 + m)
        X = rng.standard_normal((count, m, d))
        y = X @ beta + sigma * rng.standard_normal((count, m))
        cov_raw = np.einsum("cmi,cmj->cij", X, X) / m
        xty_raw = np.einsum("cmi,cm->ci", X, y) / m
        yty_raw = np.einsum("cm,cm->c", y, y) / m

        signal = float(beta @ beta) + sigma**2
        theory_var = {
            "cov": np.where(np.eye(d, dtype=bool), 2.0 / m, 1.0 / m),
            "xty": (signal + beta**2) / m,
            "yty": np.array(2.0 * signal**2 / m),
        }
        theory_mean = {"cov": np.eye(d), "xty": beta, "yty": np.array(signal)}

        def moments(a: np.ndarray):
            mean = a.mean(axis=0)
            var = a.var(axis=0, ddof=1)
            fourth = ((a - mean) ** 4).mean(axis=0)
            return mean, var, np.sqrt(var / count), np.sqrt(np.maximum(fourth - var**2, 0.0) / count)

        for name, raw in (("cov", cov_raw), ("xty", xty_raw), ("yty", yty_raw)):
            mean_s, var_s, mean_se_s, var_se_s = moments(getattr(sampled, name))
            mean_r, var_r, mean_se_r, var_se_r = moments(raw)
            assert np.all(np.abs(mean_s - mean_r) <= 5.0 * np.hypot(mean_se_s, mean_se_r)), name
            assert np.all(np.abs(var_s - var_r) <= 5.0 * np.hypot(var_se_s, var_se_r)), name
            assert np.all(np.abs(mean_s - theory_mean[name]) <= 5.0 * mean_se_s), name
            assert np.all(np.abs(var_s - theory_var[name]) <= 5.0 * var_se_s), name

    @pytest.mark.parametrize("m", [1, 3])
    def test_few_samples_give_rank_m_statistics(self, m: int) -> None:
        # Below d samples X^T X has rank m, and X^T y = X^T (X beta + s z)
        # lies in the row space of X, the range of the covariance.
        d, n = 6, 50
        env = _env(d=d, k=2, noise_std=0.5)
        heads = standard_normal(substream(8, m, "heads"), (n, 2))
        ds = sample_dataset(env, heads, m, substream(8, m, "rank"))
        for i in range(n):
            eigenvalues, vectors = np.linalg.eigh(ds.cov[i])
            null = eigenvalues <= 1e-12 * eigenvalues[-1]
            assert int((~null).sum()) == m
            along_null = vectors[:, null].T @ ds.xty[i]
            assert np.abs(along_null).max() <= 1e-12 * np.linalg.norm(ds.xty[i])


class TestDiversityStats:
    def test_hand_computed_two_task_batch(self) -> None:
        batch = TaskBatch(heads=np.array([[1.0, 0.0], [0.0, 1.0]]))
        stats = diversity_stats(batch)
        # Second moment is I/2; mean head is (1/2, 1/2).
        assert stats.mu_sq == pytest.approx(0.5, abs=1e-12)
        assert stats.L_sq == pytest.approx(0.5, abs=1e-12)
        assert stats.eta == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert stats.L_max == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficient_batch_has_zero_floor(self) -> None:
        batch = TaskBatch(heads=np.array([[2.0, 0.0, 0.0]]))
        stats = diversity_stats(batch)
        assert stats.mu_sq == pytest.approx(0.0, abs=1e-12)
        assert stats.L_sq == pytest.approx(4.0, abs=1e-12)

    def test_minimum_eigenvalue_matches_rayleigh_bruteforce(self) -> None:
        rng = substream(6, 0, "heads")
        env = _env(d=7, k=3)
        batch = sample_task_batch(env, n=8, rng=rng)
        psi = batch.heads.T @ batch.heads / batch.heads.shape[0]
        stats = diversity_stats(batch)
        brute = rayleigh_min_bruteforce(psi, n_dirs=10_000, seed=0)
        assert abs(stats.mu_sq - brute) <= 1e-3

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_invariant_chain_on_random_batches(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, 5))
        heads = rng.normal(loc=rng.uniform(-3, 3), scale=rng.uniform(0.1, 2.0), size=(n, k))
        stats = diversity_stats(TaskBatch(heads=heads))
        tol = 1e-9 * max(1.0, float(np.abs(heads).max()) ** 2)
        assert 0.0 <= stats.mu_sq <= stats.L_sq + tol
        assert stats.L_sq <= stats.L_max**2 + tol
        assert stats.eta**2 <= stats.L_sq + tol

    @given(
        st.integers(1, 20), st.integers(1, 6), st.integers(1, 5),
        st.sampled_from(["gaussian", "zeros", "mean 1e3"]), st.integers(0, 2**32 - 1),
    )
    @example(4, 3, 3, "zeros", 0)
    @example(5, 2, 5, "gaussian", 1)  # n < k: rank deficient
    @example(13, 3, 3, "mean 1e3", 2)
    @example(113, 3, 3, "gaussian", 3)  # a population block at n = k = 3
    @example(1820, 3, 3, "gaussian", 4)  # a block of 2^14 head floats
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_block_rows_equal_one_round_statistics_bitwise(
        self, rounds: int, n: int, k: int, kind: str, seed: int
    ) -> None:
        if kind == "zeros":
            heads = np.zeros((rounds, n, k))
        else:
            mean = 1e3 if kind == "mean 1e3" else 0.0
            heads = mean + np.random.default_rng(seed).normal(size=(rounds, n, k))
        block = _block_rounds(_env(d=6, k=k), heads, None, None)
        for r, batch in enumerate(block):
            got = [value.hex() for value in dataclasses.astuple(diversity_stats(batch))]
            alone = diversity_stats(TaskBatch(heads=heads[r].copy()))
            assert got == [value.hex() for value in dataclasses.astuple(alone)]
            assert got == [value.hex() for value in diversity_stats_loop(heads[r])]
            if kind == "zeros":
                assert alone == DiversityStats(0.0, 0.0, 0.0, 0.0)
            if n < k:  # rank deficient: rounding noise at most, never negative
                assert 0.0 <= alone.mu_sq <= 1e-12 * alone.L_sq

    def test_block_round_is_a_plain_batch_of_its_heads(self) -> None:
        env = _env(d=5, k=2)
        heads = standard_normal(substream(9, 0, "heads"), (3, 4, 2))
        for batch in _block_rounds(env, heads, None, None):
            plain = TaskBatch(batch.heads)
            assert batch == plain and repr(batch) == repr(plain)
            assert diversity_stats(batch) == diversity_stats(plain)
        # A replaced batch drops the statistics of its old heads.
        other = np.array([[3.0, 0.0], [0.0, -1.0], [1.0, 1.0], [2.0, 2.0]])
        for batch in _block_rounds(env, heads, None, None):
            replaced = dataclasses.replace(batch, heads=other)
            assert diversity_stats(replaced) == diversity_stats(TaskBatch(heads=other))
            assert diversity_stats(replaced) != diversity_stats(batch)

    def test_sketched_round_is_a_plain_batch_of_its_heads_and_sketches(self) -> None:
        # A finite-sample round carries one sketch per side, rows of its
        # block's draws: three inner columns and one outer per task, which do
        # not depend on the heads.  Rebuilt from its fields it is equal and
        # steps to the same bits.
        env = _env(d=5, k=2, noise_std=0.2)
        heads = standard_normal(substream(9, 0, "heads"), (3, 4, 2))
        hp = HyperParams(algo=Algorithm.EXACT_MAML, mode=Mode.FINITE, alpha=0.1, beta=0.1,
                         n=4, iters=1, m_in=2, m_out=10)
        params = ModelParams(rep=standard_normal(substream(9, 2, "params"), (5, 2)),
                             head=np.array([0.5, -1.0]))
        step = step_for(hp)
        for batch in _block_rounds(env, heads, substream(9, 1, "data"), (hp.m_in, hp.m_out),
                                   _SKETCH_COLUMNS[hp.algo]):
            for side, columns, m in ((batch.inner_sets, 3, 2), (batch.outer_sets, 1, 10)):
                assert side.n == 4 and side.m == m
                assert side.roots.shape == (4, columns)
                assert side.normals.shape == (4, columns, env.d + 1)
            assert not batch.inner_sets.roots[:, 2].any()  # past the rank of m_in = 2
            plain = TaskBatch(batch.heads, batch.inner_sets, batch.outer_sets)
            assert batch == plain and repr(batch) == repr(plain)
            assert diversity_stats(batch) == diversity_stats(plain)
            got, want = (step(params, env, b, hp) for b in (batch, plain))
            for a, b in ((got.params_next.rep, want.params_next.rep),
                         (got.params_next.head, want.params_next.head),
                         (got.adapted_heads, want.adapted_heads)):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_invalid_stats_rejected(self) -> None:
        with pytest.raises(ValueError):
            DiversityStats(mu_sq=1.0, L_sq=0.5, eta=0.1, L_max=1.0)

    @pytest.mark.parametrize(
        "row, invariant",
        [
            ([2.0, 1.0, 0.5, 1.5], "0 <= mu_sq <= L_sq"),
            ([math.nan, 1.0, 0.5, 1.5], "0 <= mu_sq <= L_sq"),
            ([0.5, 4.0, 0.5, 1.5], "L_sq <= L_max^2"),
            ([0.5, 1.0, 1.2, 1.5], "eta^2 <= L_sq"),
            ([0.5, 1.0, 0.5, math.nan], "L_max finite"),
            ([0.5, 1.0, math.nan, 1.5], "eta finite"),
            ([2.0, 1.0, 0.5, math.inf], "L_max finite"),
            ([0.5, math.inf, 0.5, math.inf], "L_sq finite"),
            ([0.5, 1.0, -0.3, 1.5], "eta >= 0"),
            ([0.5, 1.0, 0.5, -2.0], "L_max >= 0"),
        ],
        ids=["mu_sq>L_sq", "nan-mu_sq", "L_sq>L_max^2", "eta^2>L_sq", "nan-L_max", "nan-eta",
             "inf-L_max", "inf-L_sq", "negative-eta", "negative-L_max"],
    )
    def test_block_with_a_broken_row_fails_loudly(
        self, row: list[float], invariant: str, monkeypatch
    ) -> None:
        # A block's statistics are computed and checked when it is drawn: a
        # broken row makes ``_block_rounds`` itself raise, so no round of the
        # block is ever handed out.
        heads = standard_normal(substream(12, 0, "heads"), (5, 3, 3))
        stacked = linrep.env._head_statistics

        def breaking_statistics(block_heads):
            stats = stacked(block_heads)
            stats[min(3, len(stats) - 1)] = row
            return stats

        monkeypatch.setattr(linrep.env, "_head_statistics", breaking_statistics)
        message = re.escape(f"require {invariant}")
        with pytest.raises(ValueError, match=message):
            DiversityStats(*row)
        with pytest.raises(ValueError, match=message):
            _block_rounds(_env(d=6, k=3), heads, None, None)
        with pytest.raises(ValueError, match=message):
            diversity_stats(TaskBatch(heads=heads[0]))

    @pytest.mark.parametrize("row", [[2.0, 1.0, 0.5, 1e200], [5.0, 1e300, 0.5, 2e154]],
                             ids=["mu_sq>L_sq", "L_sq>L_max^2"])
    def test_finite_L_max_whose_square_overflows_rejected_naming_it(self, row: list) -> None:
        # Such an L_max would make the slop infinite and every link of the
        # chain hold; it is named, without a warning.
        message = re.escape(f"require L_max^2 finite, got {row[3]}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                DiversityStats(*row)
            assert DiversityStats(0.0, 1e300, 0.0, 1e151).L_max == 1e151
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            _check_statistics(np.array([[0.5, 1.0, 0.5, 1.5], row]))

    @pytest.mark.parametrize(
        "heads",
        [[[1e160, 0.0], [0.0, 1.0]], [[1.1e154, 1.1e154]]],
        ids=["second-moment", "row-norm"],
    )
    def test_overflowing_heads_rejected_naming_heads(self, heads: list) -> None:
        # Finite heads whose squares overflow float64 are blamed, without a
        # warning, rather than the statistics they would give.
        message = "task heads too large"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                diversity_stats(TaskBatch(heads=heads))
            with pytest.raises(ValueError, match=message):
                _block_rounds(_env(), np.array([[[1.0, 0.0]] * len(heads), heads]), None, None)
