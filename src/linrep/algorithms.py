"""Meta-learning outer-loop updates and the trajectory driver.

One vectorized gradient kernel per algorithm.  Each kernel adapts every task
in the round's batch with one inner gradient step and averages the resulting
outer-loop gradient; ``step_for`` builds the outer step on it, which returns
the updated shared parameters together with the adapted per-task states.
``run_trajectory`` iterates steps over freshly sampled batches, records
subspace diagnostics (the adapted-head spectrum included) on a fixed
schedule, and stops early when the iterates diverge.

A kernel reads a task only through the moments ``(S, b)`` of its inner and
outer sets, the data's ``(X^T X/m, X^T y/m)``.  Finite-sample steps pass the
round's stacked data sets; population steps are the same kernels at the
exact moments of isotropic Gaussian inputs, ``(I, B* w*_i)`` on both sides,
so the expected risk needs no code of its own.  The average-risk baseline
skips inner adaptation entirely and descends the mean unadapted risk.

A run draws its rounds in blocks of ``R`` rounds, the last block trimmed so
that a run draws ``iters + 1`` rounds.  A block draws the ``(R, n, k)`` heads
of its rounds in one ``standard_normal`` call of ``R`` rows, bitwise the
heads of ``R`` per-round draws; a finite-sample block then draws the inner
sets of all its ``R n`` tasks in one call over the stacked heads, then the
outer sets likewise, and round ``r`` of the block takes rows
``r n : (r + 1) n`` of each.  ``R`` is sized by what a round holds:
``max(1, _BLOCK_FLOATS // (n d^2))`` for the statistics of a finite-sample
round, ``max(1, _HEAD_BLOCK_FLOATS // (n k))`` for the heads of a population
round.  A finite-sample run's draw order, and so its bytes, depend on ``R``,
which depends only on ``(n, d)``, so the stream, and every artifact, is the
same on any host and worker count.  A population run's bytes do not depend
on ``R`` at all: its blocks draw only heads, and the heads and statistics of
a round are bitwise the same whatever block it is drawn in.  When a block is
drawn it is validated once, the task statistics of all its rounds are
computed and checked in one stacked pass, with the bits of a round on its
own, and one loop builds its rounds, each carrying its own statistics
(``env._block_rounds``).  A round of the run is then one step call, one
``diversity_stats`` lookup kept in running extremes by comparisons, the
record check and a two-dot divergence test whose limits are computed once
per run; a step it does not clear gets ``_is_diverged``'s exact verdict.

Recording is kept out of the step loop.  At a scheduled record the loop
keeps a snapshot (the iteration, the parameters, the round's adapted heads
and sampled heads, the running diversity statistics); every
``_RECORD_CHUNK`` snapshots, and once at the end of the run, ``_records``
turns the pending ones into rows of the trajectory's record array with one
stacked call of each geometry function of ``metrics`` (which take a leading
stack axis); the run's chunks are joined once, when it ends.
A stacked LAPACK call factors its matrices one by one, so every record has
the bytes a call on its own matrix gives.  A representation that has
collapsed at a record is found in that pass: the run is truncated there
exactly as if it had been checked on the spot, at the price of at most
``_RECORD_CHUNK * record_every`` steps taken past it.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .env import (
    DiversityStats,
    TaskBatch,
    TaskEnvironment,
    _block_rounds,
    _round_heads,
    _trusted,
    diversity_stats,
    sample_dataset,
)
from .metrics import (
    delta_norm,
    orth_complement,
    principal_angle_dist,
    spectral_norm,
)
from .model import Algorithm, HyperParams, Mode, ModelParams

__all__ = [
    "StepOutcome",
    "RunResult",
    "meta_gradients",
    "step_for",
    "run_trajectory",
]

# Iterates whose head norm or representation spectral norm (relative to the
# 1/sqrt(alpha) parameter scale) pass this bound are declared divergent.
_DIVERGENCE_NORM = 1e6
# Relative margin by which ``run_trajectory``'s two-dot test and
# ``_is_diverged``'s largest-entry bound keep clear of the exact ``eigvalsh``
# check's limit: far wider than the rounding of either side (some ``d k``
# units of 2^-53), so that neither changes the verdict.
_SHORTCUT_MARGIN = 1e-9


@dataclass(frozen=True)
class StepOutcome:
    """Result of one outer-loop step.

    ``adapted_heads`` (``n x k``) holds the round's inner-loop heads in task
    order; ``adapted_reps`` (``n x d x k``) holds the adapted
    representations of the full-adaptation variants and is None for
    algorithms that adapt the head only.  For the average-risk baseline
    every row of ``adapted_heads`` is the unadapted head.
    """

    params_next: ModelParams
    adapted_heads: np.ndarray
    adapted_reps: np.ndarray | None


@dataclass(frozen=True)
class RunResult:
    """A recorded training trajectory.

    ``trajectory`` is a record array (``np.recarray``) with one row per
    scheduled iteration, always including iteration 0 and, for runs that do
    not diverge, the final iteration; ``trajectory.dist`` is a column and
    ``trajectory[i].dist`` one row's entry (rows, indexed or iterated, read
    as Python scalars).  Its columns:

    - ``t``: iteration index of the recorded state (int64; the rest float64);
    - ``dist``: principal-angle distance of the representation to the truth;
    - ``delta_norm``: spectral norm of ``I_k - alpha * B^T B``;
    - ``w_norm``: Euclidean norm of the shared head;
    - ``psi_min``, ``psi_max``: extreme eigenvalues of the round's adapted-head
      second moment;
    - ``bperp_norm``: spectral norm of the unnormalized misalignment ``Bperp^T B``;
    - ``loss``: mean population task loss over the round's sampled heads;
    - ``mu_sq``, ``L_sq``, ``eta``, ``L_max``: running aggregate of the sampled
      task-diversity statistics, minimum ``mu_sq``/``eta`` and maximum
      ``L_sq``/``L_max`` over every round up to and including the recorded one.

    ``head_stats`` holds the last row's running statistics (None when
    nothing was recorded).  Diverged runs are truncated: no record
    describes a divergent state, and ``diverged_at`` is the first iteration
    index whose parameters failed the finiteness/norm checks.
    """

    trajectory: _Trajectory
    final_params: ModelParams
    diverged: bool
    diverged_at: int | None
    head_stats: DiversityStats | None


# --------------------------------------------------------------------------
# Outer-loop gradients (vectorized over the task batch)
# --------------------------------------------------------------------------
# One kernel per algorithm.  A kernel reads each task only through the
# moments of its inner and outer sets, ``(cov, xty)`` pairs stacked over the
# round's n tasks (``n x d x d`` and ``n x d``), and returns
# (grad_head, grad_rep, adapted_heads, adapted_reps) with adapted_heads of
# shape (n, k) and adapted_reps of shape (n, d, k) or None when the
# algorithm adapts heads only.
#
# A product of two 2-D or 1-D arrays that runs every step is ``a.dot(b)``:
# on these operands (contiguous arrays and transposed views) it makes the
# BLAS call ``a @ b`` makes (gemm, gemv, ddot, or syrk for ``A A^T``), with
# the same bits, without the matmul gufunc's dispatch (3x20 by 20x3: 0.53
# against 1.10 us, numpy 2.4 with one OpenBLAS thread on a 2-vCPU Xeon).
# Stacked products keep ``@``, whose N-D semantics ``dot`` does not share
# (``_matvec``, ``_records``, ``_psi_spectra``); so do the independent
# oracles (``model.pop_grad_*``/``fs_grad_*``, the finite-difference check),
# to share no code path with the kernels.

_Moments = tuple[np.ndarray | None, np.ndarray]


def _sets(env: TaskEnvironment, batch: TaskBatch, mode: Mode) -> tuple[_Moments, _Moments]:
    """The round's inner and outer moments.

    A population round's inputs are isotropic Gaussian, so both sides hold
    the exact moments ``(I, B* w*_i)``, the identity passed as None; a
    finite-sample round reads its stacked data sets.
    """
    if mode is Mode.POPULATION:
        exact = (None, batch.heads.dot(env.ground_truth_rep.T))
        return exact, exact
    if batch.inner_sets is None or batch.outer_sets is None:
        raise ValueError("finite-sample steps require per-task data sets in the batch")
    inner, outer = batch.inner_sets, batch.outer_sets
    return (inner.cov, inner.xty), (outer.cov, outer.xty)


def _matvec(mats: np.ndarray | None, vecs: np.ndarray) -> np.ndarray:
    """Rows ``M_i v_i`` for ``vecs`` (``n x d``, or one ``d`` vector shared
    by every task) and ``mats``, a stack of ``n`` ``d x d`` matrices or None
    for the identity."""
    if mats is None:
        return vecs
    return (mats @ vecs[..., None])[..., 0]


def _residual(moments: _Moments, beta: np.ndarray) -> np.ndarray:
    """Rows ``S_i beta_i - b_i``, the gradient of task i's loss in the
    predictor."""
    cov, xty = moments
    return _matvec(cov, beta) - xty


def _grads_fo_anil(B, w, inner, outer, alpha):
    n = inner[1].shape[0]
    inner_res = _residual(inner, B.dot(w))
    adapted = w - alpha * inner_res.dot(B)
    outer_res = _residual(outer, adapted.dot(B.T))
    grad_head = outer_res.dot(B).sum(axis=0) / n
    grad_rep = outer_res.T.dot(adapted) / n
    return grad_head, grad_rep, adapted, None


def _grads_exact_anil(B, w, inner, outer, alpha):
    n = inner[1].shape[0]
    inner_res = _residual(inner, B.dot(w))  # row i: grad of head pre-projection
    adapted = w - alpha * inner_res.dot(B)

    U = _residual(outer, adapted.dot(B.T))
    UB = U.dot(B)
    # Inner-sample second moment applied to B (B^T u), per task.
    cov_lift = _matvec(inner[0], UB.dot(B.T))
    grad_head = (UB - alpha * cov_lift.dot(B)).sum(axis=0) / n
    grad_rep = (
        U.T.dot(adapted) / n
        - alpha * ((cov_lift.sum(axis=0) / n)[:, None] * w)
        - alpha * inner_res.T.dot(UB) / n
    )
    return grad_head, grad_rep, adapted, None


def _full_adaptation(B, w, inner, alpha):
    """Adapted heads and representations of the full-adaptation variants,
    with the inner residual directions ``p_i`` (rows) that move ``B``."""
    inner_res = _residual(inner, B.dot(w))
    adapted = w - alpha * inner_res.dot(B)
    adapted_reps = B - alpha * inner_res[:, :, None] * w
    return inner_res, adapted, adapted_reps


def _grads_fo_maml(B, w, inner, outer, alpha):
    n = inner[1].shape[0]
    inner_res, adapted, adapted_reps = _full_adaptation(B, w, inner, alpha)
    outer_res = _residual(outer, np.einsum("ndk,nk->nd", adapted_reps, adapted))
    lift_dots = np.einsum("nd,nd->n", inner_res, outer_res)
    grad_head = (outer_res.dot(B) - alpha * lift_dots[:, None] * w).sum(axis=0) / n
    grad_rep = outer_res.T.dot(adapted) / n
    return grad_head, grad_rep, adapted, adapted_reps


def _grads_exact_maml(B, w, inner, outer, alpha):
    n = inner[1].shape[0]
    inner_res, adapted, adapted_reps = _full_adaptation(B, w, inner, alpha)
    # Adapted-point gradient of task i's outer loss: (u_i, q_i w_i^T).
    q = _residual(outer, np.einsum("ndk,nk->nd", adapted_reps, adapted))
    u = np.einsum("ndk,nd->nk", adapted_reps, q)
    # Hessian-vector product of the inner loss at the unadapted parameters,
    # applied to (u_i, q_i w_i^T); ``inner_res`` is its gradient direction.
    overlaps = adapted.dot(w)[:, None]
    cov_Bu = _matvec(inner[0], u.dot(B.T))
    cov_q = _matvec(inner[0], q)
    hess_head = (
        cov_Bu.dot(B)
        + np.einsum("nd,nd->n", q, inner_res)[:, None] * adapted
        + overlaps * cov_q.dot(B)
    )
    grad_head = (u - alpha * hess_head).sum(axis=0) / n
    grad_rep = (
        q.T.dot(adapted)
        - alpha * ((cov_Bu + overlaps * cov_q).sum(axis=0)[:, None] * w)
        - alpha * inner_res.T.dot(u)
    ) / n
    return grad_head, grad_rep, adapted, adapted_reps


def _grads_avg(B, w, inner, outer, alpha):
    del inner, alpha  # no inner adaptation
    n = outer[1].shape[0]
    res = _residual(outer, B.dot(w))
    grad_head = res.dot(B).sum(axis=0) / n
    grad_rep = (res.sum(axis=0) / n)[:, None] * w
    return grad_head, grad_rep, w[None].repeat(n, axis=0), None


_GRADS: dict[Algorithm, Callable] = {
    Algorithm.FO_ANIL: _grads_fo_anil,
    Algorithm.EXACT_ANIL: _grads_exact_anil,
    Algorithm.FO_MAML: _grads_fo_maml,
    Algorithm.EXACT_MAML: _grads_exact_maml,
    Algorithm.AVG_RISK_MIN: _grads_avg,
}


def meta_gradients(
    params: ModelParams, env: TaskEnvironment, batch: TaskBatch, hp: HyperParams
) -> tuple[np.ndarray, np.ndarray]:
    """Averaged outer-loop gradient ``(grad_head, grad_rep)`` for one round.

    The outer step moves the parameters by ``-beta`` times this pair.
    """
    inner, outer = _sets(env, batch, hp.mode)
    grad_head, grad_rep, _, _ = _GRADS[hp.algo](params.rep, params.head, inner, outer, hp.alpha)
    return grad_head, grad_rep


def step_for(hp: HyperParams) -> Callable[..., StepOutcome]:
    """The outer step ``step(params, env, batch, hp)`` for ``hp``'s
    algorithm/mode pair.

    The step reads the step sizes from its own ``hp`` argument, so one step
    serves every configuration of the pair.
    """
    grads = _GRADS[hp.algo]
    mode = hp.mode

    def step(
        params: ModelParams, env: TaskEnvironment, batch: TaskBatch, hp: HyperParams
    ) -> StepOutcome:
        inner, outer = _sets(env, batch, mode)
        grad_head, grad_rep, heads, reps = grads(params.rep, params.head, inner, outer, hp.alpha)
        # Built unchecked: an update of validated parameters keeps their shapes.
        params_next = _trusted(
            ModelParams, rep=params.rep - hp.beta * grad_rep, head=params.head - hp.beta * grad_head
        )
        return _trusted(StepOutcome, params_next=params_next, adapted_heads=heads,
                        adapted_reps=reps)

    return step


# --------------------------------------------------------------------------
# Trajectory driver
# --------------------------------------------------------------------------

# Floats a block of rounds may hold: a finite-sample block ``n d^2`` per
# round and side, up to ``_BLOCK_FLOATS``; a population block, which holds
# nothing else, its rounds' ``n k`` heads, up to ``_HEAD_BLOCK_FLOATS``.
# Drawing, validating and reducing a block of heads briefly takes several
# times their size, so the population budget is the smaller: at n = k = 3,
# blocks of 2^14 head floats raised the peak memory of five 10^4-step runs
# by about 0.6 MiB over blocks of 13 rounds, blocks of 2^10 kept it within
# noise.  Not settings: a finite-sample block size must depend only on the
# run's dimensions for artifacts to stay byte-identical across hosts.
_BLOCK_FLOATS = 2**14
_HEAD_BLOCK_FLOATS = 2**10


def _sample_rounds(
    env: TaskEnvironment, hp: HyperParams, rng, count: int
) -> list[TaskBatch]:
    """Sample ``count`` consecutive rounds' tasks (and data sets in
    finite-sample mode).

    The draw order is fixed — the heads of every round of the block in one
    call, then the inner sets of every task of the block in one call, then
    their outer sets in one call — so that every algorithm consumes the
    random stream identically and trajectories are comparable across
    algorithms.
    """
    heads = _round_heads(env, count, hp.n, rng)
    if hp.mode is Mode.POPULATION:
        return _block_rounds(heads)
    tasks = heads.reshape(count * hp.n, env.k)
    inner = sample_dataset(env, tasks, hp.m_in, rng)
    outer = sample_dataset(env, tasks, hp.m_out, rng)
    return _block_rounds(heads, inner, outer)


def _rounds(env: TaskEnvironment, hp: HyperParams, rng) -> Iterator[TaskBatch]:
    """The ``hp.iters + 1`` rounds of a run, sampled a block at a time."""
    if hp.mode is Mode.POPULATION:
        size = max(1, _HEAD_BLOCK_FLOATS // (hp.n * env.k))
    else:
        size = max(1, _BLOCK_FLOATS // (hp.n * env.d**2))
    total = hp.iters + 1
    for start in range(0, total, size):
        yield from _sample_rounds(env, hp, rng, min(size, total - start))


def _is_diverged(params: ModelParams, rep_limit: float) -> bool:
    """Whether ``params`` has a non-finite entry, a head norm above
    ``_DIVERGENCE_NORM`` or a representation spectral norm above
    ``rep_limit``: the exact verdict, which ``run_trajectory`` asks for only
    when its two-dot test does not clear the step."""
    head_sq = float(params.head.dot(params.head))
    largest = float(np.abs(params.rep).max())  # NaN if any entry is NaN
    if not (math.isfinite(head_sq) and math.isfinite(largest)):
        return True
    if head_sq > _DIVERGENCE_NORM * _DIVERGENCE_NORM:
        return True
    if largest * math.sqrt(params.rep.size) <= rep_limit:
        return False  # Frobenius bound already below the limit
    if largest > (1.0 + _SHORTCUT_MARGIN) * rep_limit:
        return True  # an entry bounds the spectral norm; ``rep^T rep`` may overflow
    top = float(np.linalg.eigvalsh(params.rep.T.dot(params.rep))[-1])
    return math.sqrt(max(top, 0.0)) > rep_limit


# Snapshots a run holds before turning them into records in one stacked
# pass.  Not a setting: it bounds the memory of pending snapshots and the
# steps a run takes past a collapsed representation before it stops.
_RECORD_CHUNK = 64


# A row of ``RunResult.trajectory``; the last four columns are the fields
# of ``DiversityStats``.
_RECORD = np.dtype(
    [("t", np.int64)]
    + [(name, np.float64) for name in ("dist", "delta_norm", "w_norm", "psi_min", "psi_max",
                                       "bperp_norm", "loss", "mu_sq", "L_sq", "eta", "L_max")]
)


class _Trajectory(np.recarray):
    """A record array whose rows, indexed or iterated, read as Python
    scalars (an ``int`` ``t``, as ``json`` takes it); columns stay arrays."""

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(item, np.record):
            return SimpleNamespace(**dict(zip(item.dtype.names, item.tolist())))
        return item


class _Snapshots(NamedTuple):
    """Stacked snapshots of scheduled records: the iterations ``t`` and,
    per record, the parameters before the round's step (``rep``, ``head``),
    the round's adapted heads and its sampled task heads (each ``n x k``),
    and the running diversity statistics up to the round (``stats``, four
    columns in ``DiversityStats`` field order)."""

    t: np.ndarray
    rep: np.ndarray
    head: np.ndarray
    adapted_heads: np.ndarray
    task_heads: np.ndarray
    stats: np.ndarray

    def first(self, count: int) -> _Snapshots:
        """The first ``count`` snapshots."""
        return _Snapshots(*(column[:count] for column in self))


def _psi_spectra(adapted: np.ndarray) -> np.ndarray:
    """Extreme eigenvalues ``(low, high)`` of each adapted-head second moment
    ``(1/n) sum_i w_i w_i^T`` of a stack, clipped at 0; NaN where the
    spectrum is not finite or cannot be computed (non-finite heads)."""
    psi = np.swapaxes(adapted, -1, -2) @ adapted / adapted.shape[-2]
    try:
        eigenvalues = np.linalg.eigvalsh(psi)
    except LinAlgError:  # some second moment is not finite
        if len(psi) == 1:
            return np.full((1, 2), math.nan)
        return np.concatenate([_psi_spectra(heads[None]) for heads in adapted])
    extremes = eigenvalues[:, [0, -1]]
    finite = np.isfinite(extremes).all(axis=1, keepdims=True)
    return np.where(finite, np.where(extremes < 0.0, 0.0, extremes), math.nan)


def _records(
    snapshots: _Snapshots, env: TaskEnvironment, perp: np.ndarray, alpha: float
) -> np.recarray:
    """The trajectory rows of consecutive snapshots, in one stacked pass.

    Stops at the first snapshot whose representation has numerically
    collapsed, where the geometry is undefined: the result then holds the
    rows of the snapshots before it.  ``psi_min``/``psi_max`` are the
    spectrum of each round's adapted heads (for the average-risk baseline,
    of ``w w^T``).
    """
    reps, heads = snapshots.rep, snapshots.head
    if not len(reps):
        return np.recarray(0, dtype=_RECORD)
    try:
        dist = principal_angle_dist(reps, perp)
        bperp = spectral_norm(perp.T @ reps)
    except LinAlgError:
        # Find the first collapsed representation with one-matrix calls.
        for index, rep in enumerate(reps):
            try:
                principal_angle_dist(rep, perp)
                spectral_norm(perp.T @ rep)
            except LinAlgError:
                return _records(snapshots.first(index), env, perp, alpha)
        raise
    # Each reduction below is the one a single record's expression makes
    # (matmul's dot product for ``norm(w)``, einsum for the squared
    # residuals); ``norm(axis=-1)`` or ``(r * r).sum(-1)`` round apart.
    predictors = (reps @ heads[..., None])[..., 0]
    residuals = predictors[:, None, :] - snapshots.task_heads @ env.ground_truth_rep.T
    sq_norms = np.einsum("rnd,rnd->rn", residuals, residuals)
    loss = 0.5 * (sq_norms.sum(axis=-1) / sq_norms.shape[-1]) + 0.5 * env.noise_std**2
    w_norm = np.sqrt((heads[:, None, :] @ heads[:, :, None])[:, 0, 0])
    # Steps of a diverging run see overflowing iterates; their spectrum is
    # NaN rather than a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        psi_min, psi_max = _psi_spectra(snapshots.adapted_heads).T
    return np.rec.fromarrays(
        [snapshots.t, dist, delta_norm(reps, alpha), w_norm, psi_min, psi_max, bperp, loss,
         *snapshots.stats.T],
        dtype=_RECORD,
    )


def run_trajectory(
    env: TaskEnvironment,
    hp: HyperParams,
    init: ModelParams,
    rng,
    record_every: int = 1,
) -> RunResult:
    """Run ``hp.iters`` outer steps from ``init`` and record diagnostics.

    Records are taken at iteration 0, at every multiple of
    ``record_every``, and at the final iteration; each record describes the
    parameters *before* that round's step, alongside the round's
    adapted-head spectrum.  The final record's round is sampled and stepped
    like every other, but its step is not applied, so a full run takes
    ``iters + 1`` steps.  Divergent runs are truncated at the offending
    iteration and never record a divergent state; a record whose
    representation has collapsed is such an iteration.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    step = step_for(hp)
    perp = orth_complement(env.ground_truth_rep)
    rep_limit = _DIVERGENCE_NORM / math.sqrt(hp.alpha)
    # The Frobenius norm bounds the spectral norm: below the limit by more
    # than the rounding of either, two dot products clear a step (a NaN
    # square fails the comparison).  The limits of that test, computed once.
    head_sq_max, rep_sq_max = _DIVERGENCE_NORM**2, (1.0 - _SHORTCUT_MARGIN) * rep_limit**2
    # Snapshots not yet recorded (the first ``filled``) and the recorded chunks.
    pending = _Snapshots(
        np.zeros(_RECORD_CHUNK, dtype=np.int64),
        np.empty((_RECORD_CHUNK, env.d, env.k)),
        np.empty((_RECORD_CHUNK, env.k)),
        np.empty((_RECORD_CHUNK, hp.n, env.k)),
        np.empty((_RECORD_CHUNK, hp.n, env.k)),
        np.empty((_RECORD_CHUNK, 4)),
    )
    filled = 0
    chunks: list[np.recarray] = []

    mu_sq = eta = math.inf
    L_sq = L_max = -math.inf
    params = init
    diverged_at: int | None = None

    def flush() -> bool:
        """Record the pending snapshots, up to one whose representation has
        collapsed; at such a snapshot the run ends: its iteration is
        ``diverged_at`` and its parameters are the final ones."""
        nonlocal params, diverged_at, filled
        kept = pending.first(filled)
        filled = 0
        done = _records(kept, env, perp, hp.alpha)
        chunks.append(done)
        if len(done) == len(kept.t):
            return False
        row = len(done)
        diverged_at = int(kept.t[row])
        params = ModelParams(rep=kept.rep[row].copy(), head=kept.head[row].copy())
        return True

    # A diverging run overflows in its steps, its divergence checks and its
    # records; it is declared divergent (or records NaN) rather than warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, batch in enumerate(_rounds(env, hp, rng)):
            stats = diversity_stats(batch)
            mu_sq = stats.mu_sq if stats.mu_sq < mu_sq else mu_sq
            L_sq = stats.L_sq if stats.L_sq > L_sq else L_sq
            eta = stats.eta if stats.eta < eta else eta
            L_max = stats.L_max if stats.L_max > L_max else L_max
            outcome = step(params, env, batch, hp)
            if t % record_every == 0 or t == hp.iters:
                values = (t, params.rep, params.head, outcome.adapted_heads, batch.heads,
                          (mu_sq, L_sq, eta, L_max))
                for column, value in zip(pending, values):
                    column[filled] = value
                filled += 1
                if filled == _RECORD_CHUNK and flush():
                    break
            if t == hp.iters:
                break
            params = outcome.params_next
            head, rep = params.head, params.rep
            clear = head.dot(head) <= head_sq_max and np.vdot(rep, rep) <= rep_sq_max
            if not clear and _is_diverged(params, rep_limit):
                diverged_at = t + 1
                break
        flush()

    trajectory = np.concatenate(chunks).view(_Trajectory)
    head_stats = None
    if len(trajectory):
        last = trajectory[-1]
        head_stats = DiversityStats(last.mu_sq, last.L_sq, last.eta, last.L_max)
    return RunResult(
        trajectory=trajectory,
        final_params=params,
        diverged=diverged_at is not None,
        diverged_at=diverged_at,
        head_stats=head_stats,
    )
