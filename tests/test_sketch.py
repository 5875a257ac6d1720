"""Tests for the column sketch that finite-sample runs draw in place of full
data sets (``env._Sketch``, revealed by ``algorithms._Sketched``).

Three oracles, with tolerances fixed before the tests were first run:

- *identity*: the revealed columns, completed to a full Bartlett factor of
  the augmented Wishart matrix, give a ``DataSet`` on which every kernel
  returns what it returned on the sketch, to a small multiple of ``eps``;
- *law*: the residual and two products ``S v`` read from sketches have the
  distribution of those read from ``sample_dataset`` (means, covariances
  and a Kolmogorov-Smirnov statistic of a two-sample comparison);
- *convergence*: whole finite-sample runs approach the population run on
  the same heads as ``m^(-1/2)``.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from linrep.algorithms import _GRADS, _rounds_for, _sets, _Sketched, run_trajectory, step_for
from linrep.env import (
    DataSet,
    TaskBatch,
    TaskEnvironment,
    _block_rounds,
    sample_dataset,
    sample_environment,
)
from linrep.model import Algorithm, HyperParams, InitScheme, Mode, ModelParams, init_model
from linrep.rng import chi_square, standard_normal, substream

ALL_ALGOS = list(Algorithm)
EPS = np.finfo(float).eps
# Normwise relative error allowed between the sketch and the data-set path.
IDENTITY_TOL = 256 * EPS


def _hp(algo: Algorithm, mode: Mode = Mode.FINITE, **kw) -> HyperParams:
    fields = dict(alpha=0.13, beta=0.2, n=4, iters=10, m_in=12, m_out=9)
    if mode is Mode.POPULATION:
        fields.update(m_in=0, m_out=0)
    fields.update(kw)
    return HyperParams(algo=algo, mode=mode, **fields)


def _completed_set(side: _Sketched, targets: np.ndarray, sigma: float, rng) -> DataSet:
    """The data set of an augmented Wishart matrix ``W`` whose Bartlett
    factor, in a basis that starts with the directions ``side`` revealed,
    starts with the columns it revealed; the remaining columns are a
    Bartlett factor of ``Wishart(m - t)`` on the complement, drawn here."""
    m, t = side.m, side.calls
    n, _, dim = side.normals.shape
    d = dim - 1
    covs, xtys, ytys = [], [], []
    for i in range(n):
        basis = side.basis[i, :t].T  # dim x t, orthonormal columns
        frame, _ = np.linalg.qr(np.concatenate([basis, standard_normal(rng, (dim, dim - t))], 1))
        rest = np.tril(standard_normal(rng, (dim - t, dim - t)), -1)
        rest[np.diag_indices(dim - t)] = np.sqrt(
            chi_square(rng, np.maximum(m - t - np.arange(dim - t), 0)))
        rest[:, max(m - t, 0):] = 0.0
        factor = np.concatenate([side.cols[i, :t].T, frame[:, t:] @ rest], axis=1)
        wishart = factor @ factor.T
        label = np.append(targets[i], sigma)  # (B* w*_i; sigma)
        covs.append(wishart[:d, :d] / m)
        xtys.append(wishart[:d] @ label / m)
        ytys.append(label @ wishart @ label / m)
    return DataSet(cov=np.array(covs), xty=np.array(xtys), yty=np.array(ytys), m=m)


def _identity_env(d: int, k: int, exact_zero: bool) -> TaskEnvironment:
    if not exact_zero:
        return sample_environment(d, k, 0.0, 1.0, 0.3, substream(40, 0, "env"))
    # B* = I[:, :k] makes B* w and w's products with it exact, so that a
    # step at B = B*, w = w*_0 sees task 0's residual as exactly 0.
    return TaskEnvironment(d=d, k=k, ground_truth_rep=np.eye(d)[:, :k],
                           head_mean=np.zeros(k), head_scale=1.0, noise_std=0.0)


class TestSketchIdentity:
    @pytest.mark.parametrize("exact_zero", [False, True],
                             ids=["sigma=0.3", "sigma=0,zero-residual"])
    @pytest.mark.parametrize("m_in", [1, 2, 12])
    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_kernel_on_sketch_is_kernel_on_its_completed_factor(
        self, algo: Algorithm, m_in: int, exact_zero: bool
    ) -> None:
        d, k = 6, 2
        env = _identity_env(d, k, exact_zero)
        hp = _hp(algo, m_in=m_in)
        (batch,) = _rounds_for(env, hp, 1, substream(41, m_in, "tasks"),
                               substream(41, m_in, "data"))
        params_rng = substream(41, m_in, "params")
        params = ModelParams(rep=standard_normal(params_rng, (d, k)),
                             head=standard_normal(params_rng, (k,)))
        if exact_zero:
            params = ModelParams(rep=env.ground_truth_rep.copy(), head=batch.heads[0].copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inner, outer = _sets(env, batch, hp.mode)
            got = _GRADS[algo](params.rep, params.head, inner, outer, hp.alpha, hp.n)
            step = step_for(hp)(params, env, batch, hp)
        # A step reveals afresh, with the bits of the kernel call above.
        for a, b in ((step.adapted_heads, got[2]),
                     (params.head - hp.beta * got[0], step.params_next.head),
                     (params.rep - hp.beta * got[1], step.params_next.rep)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert inner[0].calls <= 3 and outer[0].calls <= 1
        if exact_zero:
            assert np.array_equal(got[2][0], params.head)  # no inner move for task 0

        rng = substream(41, m_in, "complete")
        completed = TaskBatch(batch.heads, *(_completed_set(side, targets, env.noise_std, rng)
                                             for side, targets in (inner, outer)))
        want = _GRADS[algo](params.rep, params.head, *_sets(env, completed, hp.mode),
                            hp.alpha, hp.n)
        for name, g, w in zip(("grad_head", "grad_rep", "adapted_heads", "adapted_reps"),
                              got, want):
            if w is None:
                assert g is None
                continue
            error = np.linalg.norm(g - w) / max(np.linalg.norm(w), 1.0)
            assert error <= IDENTITY_TOL, f"{name}: normwise error {error / EPS:.1f} eps"

    @pytest.mark.parametrize("m", [1, 2, 30])
    def test_zero_direction_reads_exact_zero_and_takes_an_axis(self, m: int) -> None:
        # A zero u reads exactly 0, without a warning, and its column lies on
        # a coordinate axis; the next direction then takes the second column
        # (dof m - 1, a zero column at m = 1, where W has rank 1).
        d, n = 5, 3
        env = TaskEnvironment(d=d, k=2, ground_truth_rep=np.eye(d)[:, :2],
                              head_mean=np.zeros(2), head_scale=1.0, noise_std=0.0)
        (batch,) = _block_rounds(env, np.zeros((1, n, 2)), substream(42, m, "data"), (m, m))
        side = _Sketched(batch.inner_sets, 0.0)
        v = np.tile(np.arange(1.0, d + 1.0), (n, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zero = side(np.zeros((n, d)), -0.0)
            product = side(v)
        assert np.array_equal(zero, np.zeros((n, d)))
        assert np.array_equal(side.basis[:, 0], np.tile(np.eye(d + 1)[0], (n, 1)))
        gram = np.einsum("nrd,nsd->nrs", side.basis[:, :2], side.basis[:, :2])
        assert np.abs(gram - np.eye(2)).max() <= 4 * EPS
        assert side.calls == 2 and (side.cols[:, 1].any(axis=1) == (m > 1)).all()
        first = side.cols[:, 0]
        if m == 1:  # S v = l_0 (l_0 . v)
            np.testing.assert_allclose(
                product, first[:, :d] * np.einsum("nd,nd->n", first[:, :d], v)[:, None],
                rtol=IDENTITY_TOL)


# --- law ------------------------------------------------------------------

LAW_SAMPLES = 20_000
# Two-sample bounds: a difference of means within 5 standard errors, and
# a Kolmogorov-Smirnov statistic within c(1e-4) sqrt(2 / N).
LAW_SE = 5.0
LAW_KS = math.sqrt(-0.5 * math.log(0.5e-4)) * math.sqrt(2.0 / LAW_SAMPLES)


def _sketched_statistics(env, heads, beta, vs, m, rng) -> np.ndarray:
    """``(N, 3, d)``: per task the residual at ``beta`` and then ``S v`` for
    each ``v`` of ``vs``, read in that order from one inner sketch."""
    (batch,) = _block_rounds(env, heads[None], rng, (m, m))
    side = _Sketched(batch.inner_sets, env.noise_std)
    targets = heads @ env.ground_truth_rep.T
    reads = [side(beta - targets, -env.noise_std)] + [side(np.tile(v, (len(heads), 1)))
                                                       for v in vs]
    return np.stack(reads, axis=1)


def _sampled_statistics(env, heads, beta, vs, m, rng) -> np.ndarray:
    ds = sample_dataset(env, heads, m, rng)
    reads = [ds.residual(beta)] + [ds.cov @ v for v in vs]
    return np.stack(reads, axis=1)


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, grid, side="right") / len(a)
                        - np.searchsorted(b, grid, side="right") / len(b)).max())


def _mean_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Difference of column means in standard errors."""
    se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / len(a))
    return np.abs(a.mean(axis=0) - b.mean(axis=0)) / se


class TestSketchLaw:
    @pytest.mark.parametrize("m", [3, 12], ids=["m<d", "m>d"])
    def test_residual_and_products_have_the_law_of_sample_dataset(self, m: int) -> None:
        d, k = 5, 2
        env = sample_environment(d, k, 0.0, 1.0, 0.4, substream(43, 0, "env"))
        rng = substream(43, m, "fixed")
        heads = np.tile(standard_normal(rng, (1, k)), (LAW_SAMPLES, 1))
        beta = standard_normal(rng, d)
        vs = standard_normal(rng, (2, d))
        sketched = _sketched_statistics(env, heads, beta, vs, m, substream(43, m, "sketch"))
        sampled = _sampled_statistics(env, heads, beta, vs, m, substream(43, m, "sampled"))
        failures = []
        for read, name in enumerate(("residual", "S v1", "S v2")):
            a, b = sketched[:, read], sampled[:, read]
            gaps = _mean_gap(a, b)
            if gaps.max() > LAW_SE:
                failures.append(f"{name} mean off by {gaps.max():.1f} SE")
            # Second moments: means of the centred products of coordinates.
            ca = np.einsum("ni,nj->nij", a - a.mean(0), a - a.mean(0)).reshape(len(a), -1)
            cb = np.einsum("ni,nj->nij", b - b.mean(0), b - b.mean(0)).reshape(len(b), -1)
            gaps = _mean_gap(ca, cb)
            if gaps.max() > LAW_SE:
                failures.append(f"{name} covariance off by {gaps.max():.1f} SE")
            for label, x, y in (("first coordinate", a[:, 0], b[:, 0]),
                                ("norm", np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))):
                ks = _ks_statistic(x, y)
                if ks > LAW_KS:
                    failures.append(f"{name} {label} KS {ks:.4f} > {LAW_KS:.4f}")
        assert not failures, "; ".join(failures)


# --- convergence to the population run -------------------------------------

CONVERGENCE_M = (10**4, 10**6, 10**8)


class TestFiniteConvergesToPopulation:
    def test_distance_gap_falls_as_root_m(self) -> None:
        # A finite-sample run draws its heads from the tasks stream as the
        # population run does and its data from a stream of its own, so the
        # two follow the same rounds, and their distance gap is sampling
        # error, O(m^(-1/2)): a tenth per 100x in m.  The population run's
        # distance does not depend on the noise, so both noise levels share
        # it.  About 6 s.
        failures = []
        for algo in ALL_ALGOS:
            population = None
            for noise_std in (0.0, 0.1):
                env = sample_environment(6, 2, 0.0, 1.0, noise_std, substream(46, 0, "env"))
                hps = [_hp(algo, n=3, alpha=0.1, beta=0.1, iters=2000, m_in=m, m_out=m)
                       for m in CONVERGENCE_M]
                if population is None:
                    hps.insert(0, _hp(algo, Mode.POPULATION, n=3, alpha=0.1, beta=0.1,
                                      iters=2000))
                init = init_model(env, 0.1, InitScheme.SPEC, substream(46, 0, "init"))
                dists = []
                for hp in hps:
                    result = run_trajectory(env, hp, init, substream(46, 0, "tasks"),
                                            record_every=10, data_rng=substream(46, 0, "data"))
                    assert not result.diverged
                    dists.append(result.trajectory.dist)
                if population is None:
                    population = dists.pop(0)
                gaps = [float(np.abs(dist - population).max()) for dist in dists]
                ratios = [b / a for a, b in zip(gaps, gaps[1:])]
                if not all(1 / 30 <= ratio <= 1 / 3 for ratio in ratios):
                    failures.append(f"{algo.value} noise {noise_std}: gaps {gaps}")
        assert not failures, "; ".join(failures)
