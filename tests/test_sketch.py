"""Tests for the column sketch that finite-sample runs draw in place of full
data sets (``env._Sketch``, which a step reveals through its ``residual``
and ``times`` reads).

Three oracles, with tolerances fixed before the tests were first run:

- *identity*: the revealed columns, completed to a full Bartlett factor of
  the augmented Wishart matrix, give a ``DataSet`` on which every kernel
  returns what it returned on the sketch, to a small multiple of ``eps``;
  the closed-form first reveal is ``(1/m) l_0 (l_0 . u)`` formed in full;
- *law*: the residual and two products ``S v`` read from one sketch, and a
  residual read from a one-column sketch, have the distribution of those
  read from ``sample_dataset`` (means, covariances and a
  Kolmogorov-Smirnov statistic of a two-sample comparison);
- *convergence*: whole finite-sample runs approach the population run on
  the same heads as ``m^(-1/2)``.

Two contract tests check what a reveal that starts at ``residual`` needs:
every kernel reads each side it uses with ``residual`` first and then only
``times``, once per column its round draws for the side, and steps repeated
on one round have the same bits.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from linrep.algorithms import (
    _GRADS,
    _SKETCH_COLUMNS,
    _sides,
    meta_gradients,
    run_trajectory,
    step_for,
)
from linrep.env import (
    DataSet,
    TaskBatch,
    TaskEnvironment,
    _block_rounds,
    _rounds,
    _Sketch,
    sample_dataset,
    sample_environment,
)
from linrep.model import Algorithm, HyperParams, InitScheme, Mode, ModelParams, init_model
from linrep.rng import chi_square, standard_normal, substream

ALL_ALGOS = list(Algorithm)
EPS = np.finfo(float).eps
# Normwise relative error allowed between the sketch and the data-set path.
IDENTITY_TOL = 256 * EPS
# Error allowed between the closed-form first reveal and ``(1/m) l_0 (l_0 .
# u)`` formed in full, per task, relative to the scale ``|l_0|^2 |u| / m``
# of the rounding of that product.
CLOSED_FORM_TOL = 32 * EPS


def _hp(algo: Algorithm, mode: Mode = Mode.FINITE, **kw) -> HyperParams:
    fields = dict(alpha=0.13, beta=0.2, n=4, iters=10, m_in=12, m_out=9)
    if mode is Mode.POPULATION:
        fields.update(m_in=0, m_out=0)
    fields.update(kw)
    return HyperParams(algo=algo, mode=mode, **fields)


def _completed_set(side: _Sketch, rng) -> DataSet:
    """The data set of an augmented Wishart matrix ``W`` whose Bartlett
    factor, in a basis that starts with the directions ``side`` revealed,
    starts with the columns it revealed; the remaining columns are a
    Bartlett factor of ``Wishart(m - t)`` on the complement, drawn here.
    A side no kernel read has revealed nothing (``t = 0``); one read only by
    ``residual`` forms its ``q_0`` and ``l_0`` here, as ``times`` would."""
    n, _, dim = side.normals.shape
    m, t, d = side.m, getattr(side, "calls", 0), dim - 1
    if t == 1:
        side._first_column()
    basis_all, cols_all = (side.basis, side.cols) if t else (np.zeros((n, 0, dim)),) * 2
    covs, xtys, ytys = [], [], []
    for i in range(n):
        basis = basis_all[i, :t].T  # dim x t, orthonormal columns
        frame, _ = np.linalg.qr(np.concatenate([basis, standard_normal(rng, (dim, dim - t))], 1))
        rest = np.tril(standard_normal(rng, (dim - t, dim - t)), -1)
        rest[np.diag_indices(dim - t)] = np.sqrt(
            chi_square(rng, np.maximum(m - t - np.arange(dim - t), 0)))
        rest[:, max(m - t, 0):] = 0.0
        factor = np.concatenate([cols_all[i, :t].T, frame[:, t:] @ rest], axis=1)
        wishart = factor @ factor.T
        label = np.append(side.targets[i], side.sigma)  # (B* w*_i; sigma)
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
        (batch,) = _rounds(env, hp.n, 1, substream(41, m_in, "tasks"), (hp.m_in, hp.m_out),
                           substream(41, m_in, "data"), _SKETCH_COLUMNS[algo])
        params_rng = substream(41, m_in, "params")
        params = ModelParams(rep=standard_normal(params_rng, (d, k)),
                             head=standard_normal(params_rng, (k,)))
        if exact_zero:
            params = ModelParams(rep=env.ground_truth_rep.copy(), head=batch.heads[0].copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inner, outer = _sides(env, batch, hp.mode)
            got = _GRADS[algo](params.rep, params.head, inner, outer, hp.alpha, hp.n)
            step = step_for(hp)(params, env, batch, hp)
        # A step reveals afresh, with the bits of the kernel call above.
        for a, b in ((step.adapted_heads, got[2]),
                     (params.head - hp.beta * got[0], step.params_next.head),
                     (params.rep - hp.beta * got[1], step.params_next.rep)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert (getattr(inner, "calls", 0), outer.calls) == _SKETCH_COLUMNS[algo]
        if exact_zero:
            assert np.array_equal(got[2][0], params.head)  # no inner move for task 0

        rng = substream(41, m_in, "complete")
        completed = TaskBatch(batch.heads, *(_completed_set(side, rng) for side in (inner, outer)))
        want = _GRADS[algo](params.rep, params.head, *_sides(env, completed, hp.mode),
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
        (batch,) = _block_rounds(env, np.zeros((1, n, 2)), substream(42, m, "data"), (m, m),
                                 (2, 1))
        side = batch.inner_sets
        assert not side.targets.any() and side.sigma == 0.0
        v = np.tile(np.arange(1.0, d + 1.0), (n, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zero = side.residual(np.zeros((n, d)))  # u = (0; -0.0)
            product = side.times(v)
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

    @pytest.mark.parametrize("exact_zero", [False, True],
                             ids=["sigma=0.3", "sigma=0,zero-residual"])
    @pytest.mark.parametrize("m", [1, 3, 30], ids=["m=1", "m<d", "m>d"])
    def test_first_reveal_is_the_first_column_read_along_u(self, m: int,
                                                           exact_zero: bool) -> None:
        # ``residual`` is ``(1/m) l_0 (l_0 . u)`` with ``q_0 = u / |u|`` and
        # ``l_0 = root q_0 + g_0 - q_0 (q_0 . g_0)`` formed here in full from
        # the side's roots and normals; the next ``times`` starts its basis
        # and columns at that ``q_0`` and ``l_0``.  A zero ``u`` (task 0 of
        # the noiseless case) reads exactly 0, without a warning, and takes
        # ``q_0 = e_0``.
        d, k, n = 6, 2, 5
        env = _identity_env(d, k, exact_zero)
        tasks = substream(49, m, "tasks")
        heads = standard_normal(tasks, (1, n, k))
        (batch,) = _block_rounds(env, heads, substream(49, m, "data"), (m, m), (2, 1))
        side = batch.inner_sets
        beta = standard_normal(tasks, (n, d))
        if exact_zero:
            beta[0] = side.targets[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = side.residual(beta)
            side.times(standard_normal(tasks, (n, d)))
        u = np.concatenate([beta - side.targets, np.full((n, 1), -env.noise_std)], axis=1)
        length = np.linalg.norm(u, axis=1)
        zero = length == 0.0
        assert zero.tolist() == [exact_zero] + [False] * (n - 1)
        q = u / np.where(zero, 1.0, length)[:, None]
        q[zero] = np.eye(d + 1)[0]
        g, root = side.normals[:, 0], side.roots[:, 0]
        col = root[:, None] * q + g - q * np.einsum("nd,nd->n", q, g)[:, None]
        want = col[:, :d] * np.einsum("nd,nd->n", col, u)[:, None] / m
        scale = np.einsum("nd,nd->n", col, col) * length / m
        for i in range(n):
            if zero[i]:
                assert np.array_equal(got[i], np.zeros(d))
                assert np.array_equal(side.basis[i, 0], np.eye(d + 1)[0])
            else:
                error = np.linalg.norm(got[i] - want[i]) / scale[i]
                assert error <= CLOSED_FORM_TOL, f"task {i}: error {error / EPS:.1f} eps"
                assert np.linalg.norm(side.basis[i, 0] - q[i]) <= CLOSED_FORM_TOL
            error = np.linalg.norm(side.cols[i, 0] - col[i]) / np.linalg.norm(col[i])
            assert error <= CLOSED_FORM_TOL, f"task {i}: column error {error / EPS:.1f} eps"


# --- side contract ----------------------------------------------------------

class _RecordingSide:
    """A side that logs the name of each read and passes the read on."""

    def __init__(self, side, log: list[str]) -> None:
        self.side, self.log = side, log

    def residual(self, beta: np.ndarray) -> np.ndarray:
        self.log.append("residual")
        return self.side.residual(beta)

    def times(self, vecs: np.ndarray) -> np.ndarray:
        self.log.append("times")
        return self.side.times(vecs)


# Reads of the inner side per kernel; every kernel reads the outer side once.
INNER_READS = {
    Algorithm.FO_ANIL: ["residual"],
    Algorithm.EXACT_ANIL: ["residual", "times"],
    Algorithm.FO_MAML: ["residual"],
    Algorithm.EXACT_MAML: ["residual", "times", "times"],
    Algorithm.AVG_RISK_MIN: [],
}


def _sketched_round(env, hp: HyperParams, seed: int) -> TaskBatch:
    (batch,) = _rounds(env, hp.n, 1, substream(seed, 0, "tasks"), (hp.m_in, hp.m_out),
                       substream(seed, 0, "data"), _SKETCH_COLUMNS[hp.algo])
    return batch


def _bits(arrays) -> list:
    return [None if a is None else a.tobytes() for a in arrays]


class TestSideContract:
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_kernel_reads_a_side_by_residual_first_then_only_times(
        self, algo: Algorithm, mode: Mode
    ) -> None:
        # A sketch starts its reveal at ``residual``, so a kernel must read
        # every side it uses with ``residual`` once and first and then only
        # with ``times``, exactly as often as its round draws columns for
        # the side: a column drawn but not read fails.  The recording sides
        # change no bit of the result.
        env = sample_environment(6, 2, 0.0, 1.0, 0.3, substream(47, 0, "env"))
        hp = _hp(algo, mode)
        batch = _sketched_round(env, _hp(algo), 47)
        params = init_model(env, hp.alpha, InitScheme.SPEC, substream(47, 0, "init"))
        logs: dict[str, list[str]] = {"inner": [], "outer": []}
        sides = _sides(env, batch, mode)
        recorded = (_RecordingSide(side, log) for side, log in zip(sides, logs.values()))
        got = _GRADS[algo](params.rep, params.head, *recorded, hp.alpha, hp.n)
        want = _GRADS[algo](params.rep, params.head, *_sides(env, batch, mode), hp.alpha, hp.n)
        assert _bits(got) == _bits(want)
        assert logs == {"inner": INNER_READS[algo], "outer": ["residual"]}
        for log, columns in zip(logs.values(), _SKETCH_COLUMNS[algo]):
            assert log[:1] in ([], ["residual"]) and set(log[1:]) <= {"times"}
            assert len(log) == columns

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_repeated_steps_on_a_sketched_round_have_the_same_bits(self, algo: Algorithm) -> None:
        # Each step reveals the round's sketches afresh from ``residual``:
        # two steps on one round of a run, then the meta-gradients, agree
        # bit for bit.
        env = sample_environment(6, 2, 0.0, 1.0, 0.3, substream(48, 0, "env"))
        hp = _hp(algo)
        batch = _sketched_round(env, hp, 48)
        rng = substream(48, 0, "params")
        params = ModelParams(rep=standard_normal(rng, (6, 2)), head=standard_normal(rng, (2,)))
        assert isinstance(batch.inner_sets, _Sketch) and isinstance(batch.outer_sets, _Sketch)
        step = step_for(hp)
        first, second = step(params, env, batch, hp), step(params, env, batch, hp)
        assert _bits([first.params_next.rep, first.params_next.head, first.adapted_heads,
                      first.adapted_reps]) == \
            _bits([second.params_next.rep, second.params_next.head, second.adapted_heads,
                   second.adapted_reps])
        grad_head, grad_rep = meta_gradients(params, env, batch, hp)
        assert grad_head.any() and grad_rep.any()
        assert _bits([params.head - hp.beta * grad_head, params.rep - hp.beta * grad_rep]) == \
            _bits([first.params_next.head, first.params_next.rep])


# --- law ------------------------------------------------------------------

LAW_SAMPLES = 20_000
# Two-sample bounds: a difference of means within 5 standard errors, and
# a Kolmogorov-Smirnov statistic within c(1e-4) sqrt(2 / N).
LAW_SE = 5.0
LAW_KS = math.sqrt(-0.5 * math.log(0.5e-4)) * math.sqrt(2.0 / LAW_SAMPLES)


def _sketched_statistics(env, heads, beta, vs, m, rng) -> np.ndarray:
    """``(N, 4, d)``: per task the residual at ``beta`` and then ``S v`` for
    each ``v`` of ``vs``, read in that order from one three-column sketch,
    and the residual at ``beta`` read from a one-column sketch."""
    (batch,) = _block_rounds(env, heads[None], rng, (m, m), (3, 1))
    side = batch.inner_sets
    reads = [side.residual(beta)] + [side.times(np.tile(v, (len(heads), 1))) for v in vs]
    return np.stack(reads + [batch.outer_sets.residual(beta)], axis=1)


def _sampled_statistics(env, heads, beta, vs, m, rng) -> np.ndarray:
    ds, other = sample_dataset(env, heads, m, rng), sample_dataset(env, heads, m, rng)
    reads = [ds.residual(beta)] + [ds.cov @ v for v in vs] + [other.residual(beta)]
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
        for read, name in enumerate(("residual", "S v1", "S v2", "one-column residual")):
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
        # it.  About 5.5 s on a 2-vCPU VM.
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
