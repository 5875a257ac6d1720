"""Meta-learning outer-loop updates and the trajectory driver.

One vectorized gradient kernel per algorithm.  Each kernel adapts every task
in the round's batch with one inner gradient step and averages the resulting
outer-loop gradient; ``step_for`` builds the outer step on it, which returns
the updated shared parameters together with the adapted per-task states.
``run_trajectory`` iterates steps over freshly sampled batches, records
subspace diagnostics (the adapted-head spectrum included) on a fixed
schedule, and stops early when the iterates diverge.

A kernel reads a task only through the moments ``(S, b)`` of its inner and
outer sides, the data's ``(X^T X/m, X^T y/m)``, and reads a side only
through ``residual`` (``S beta - b``) and ``times`` (``S v``).  Finite-sample
steps pass the round's stacked data sets, or a run's sketches
(``env._Sketch``); population steps are the same kernels at the exact
moments of isotropic Gaussian inputs, ``(I, B* w*_i)`` on both sides
(``_Exact``), so the expected risk needs no code of its own.  The
average-risk baseline skips inner adaptation entirely and descends the mean
unadapted risk.

A run draws its rounds a block at a time, each round carrying its checked
task statistics and, in finite-sample mode, its sketches, of as many
columns as the kernel reads (``_SKETCH_COLUMNS``, ``env._rounds``);
a population step forms its round's targets ``B* w*_i`` itself.  A round of
the run is then one step call, one ``diversity_stats`` lookup kept in
running extremes by comparisons, the record check and a two-dot divergence
test whose limits are computed once per run; a step it does not clear gets
``_is_diverged``'s exact verdict.

Recording is kept out of the step loop.  At a scheduled record the loop
appends a snapshot (the iteration, the parameters, the round's adapted heads
and sampled heads, the running diversity statistics) to a list, the arrays
as the loop holds them; every ``_RECORD_CHUNK`` snapshots, and once at the
end of the run, the list is stacked and ``_records`` turns it into rows of
the trajectory's record array with one stacked call of each geometry
function of ``metrics`` (which take a leading stack axis); the run's chunks
are joined once, when it ends.
A stacked LAPACK call factors its matrices one by one, so every record has
the bytes a call on its own matrix gives.  A representation that has
collapsed at a record is found in that pass: the run is truncated there
exactly as if it had been checked on the spot, at the price of at most
``_RECORD_CHUNK * record_every`` steps taken past it.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .env import DiversityStats, TaskBatch, TaskEnvironment, _rounds, _trusted, diversity_stats
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
# Relative margin by which ``run_trajectory``'s two-dot test keeps clear of
# ``_is_diverged``'s spectral-norm limit: far wider than the rounding of
# either side (some ``d k`` units of 2^-53), so that it never changes the
# verdict.
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
    ``trajectory[i].dist`` one row's entry (rows, indexed or iterated, are
    named tuples of Python scalars).  Its columns:

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
# One kernel per algorithm, ``grads(B, w, inner, outer, alpha, n)``.  A
# kernel reads each task only through its inner and outer sides, each stacked
# over the round's n tasks: ``side.residual(beta)``, rows ``S_i beta_i - b_i``,
# once and first, then only ``side.times(v)``, rows ``S_i v_i`` (``v`` is
# ``n x d``, ``beta`` too or one ``d`` vector shared by every task).  It returns
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
# (``DataSet.times``, ``_records``, ``_psi_spectra``).  Likewise a sum over the
# task axis is ``np.add.reduce(x, 0)``: the ufunc reduction
# ``x.sum(axis=0)`` makes, with the same bits, without the Python wrapper
# around it.  The independent oracles
# (``model.pop_grad_*``/``fs_grad_*``, the finite-difference check) keep
# ``@`` and ``sum``, to share no code path with the kernels.
#
# A kernel's scalars, the inner step ``alpha`` and the task count ``n`` it
# divides by, and the outer step ``beta`` are read-only 0-d arrays
# (``_operands``), which a step builds once per configuration rather than on
# every call.  A ufunc with a Python scalar operand converts it on every
# call: a 3x20 array times ``0.1`` took 0.63 us, divided by ``3`` 0.76 us,
# against 0.42 and 0.41 us with a 0-d operand, and ``B - beta * G`` 0.99
# against 0.78 us (same host).  The conversion gives the float the 0-d array
# holds, and ``*`` and ``/`` round correctly, so the bits are the same.
# Under NEP 50 a Python scalar is weak, taking the array's dtype, while a
# 0-d array is not: a float64 operand would turn a float32 kernel into a
# float64 one, so the operands are made in the parameters' dtype.  A kernel
# takes Python scalars too, with the same bits.

class _Exact:
    """A population round's side, the exact moments ``(I, B* w*_i)`` of
    isotropic Gaussian inputs."""

    __slots__ = ("targets",)

    def __init__(self, targets: np.ndarray) -> None:
        self.targets = targets

    def residual(self, beta: np.ndarray) -> np.ndarray:
        return beta - self.targets

    def times(self, vecs: np.ndarray) -> np.ndarray:
        return vecs


def _sides(env: TaskEnvironment, batch: TaskBatch, mode: Mode) -> tuple:
    """The round's inner and outer sides.

    A population round's inputs are isotropic Gaussian, so both sides are
    the exact moments, the targets formed from the round's heads by one
    product.  A finite-sample round reads its stacked data sets, or its
    sketches.
    """
    if mode is Mode.POPULATION:
        exact = _Exact(batch.heads.dot(env.ground_truth_rep.T))
        return exact, exact
    if batch.inner_sets is None or batch.outer_sets is None:
        raise ValueError("finite-sample steps require per-task data sets in the batch")
    return batch.inner_sets, batch.outer_sets


def _grads_fo_anil(B, w, inner, outer, alpha, n):
    inner_res = inner.residual(B.dot(w))
    adapted = w - alpha * inner_res.dot(B)
    outer_res = outer.residual(adapted.dot(B.T))
    grad_head = np.add.reduce(outer_res.dot(B), 0) / n
    grad_rep = outer_res.T.dot(adapted) / n
    return grad_head, grad_rep, adapted, None


def _grads_exact_anil(B, w, inner, outer, alpha, n):
    inner_res = inner.residual(B.dot(w))  # row i: grad of head pre-projection
    adapted = w - alpha * inner_res.dot(B)

    U = outer.residual(adapted.dot(B.T))
    UB = U.dot(B)
    # Inner-sample second moment applied to B (B^T u), per task.
    cov_lift = inner.times(UB.dot(B.T))
    grad_head = np.add.reduce(UB - alpha * cov_lift.dot(B), 0) / n
    grad_rep = (
        U.T.dot(adapted) / n
        - alpha * ((np.add.reduce(cov_lift, 0) / n)[:, None] * w)
        - alpha * inner_res.T.dot(UB) / n
    )
    return grad_head, grad_rep, adapted, None


def _full_adaptation(B, w, inner, alpha):
    """Adapted heads and representations of the full-adaptation variants,
    with the inner residual directions ``p_i`` (rows) that move ``B``."""
    inner_res = inner.residual(B.dot(w))
    adapted = w - alpha * inner_res.dot(B)
    adapted_reps = B - alpha * inner_res[:, :, None] * w
    return inner_res, adapted, adapted_reps


def _grads_fo_maml(B, w, inner, outer, alpha, n):
    inner_res, adapted, adapted_reps = _full_adaptation(B, w, inner, alpha)
    outer_res = outer.residual(np.einsum("ndk,nk->nd", adapted_reps, adapted))
    lift_dots = np.einsum("nd,nd->n", inner_res, outer_res)
    grad_head = np.add.reduce(outer_res.dot(B) - alpha * lift_dots[:, None] * w, 0) / n
    grad_rep = outer_res.T.dot(adapted) / n
    return grad_head, grad_rep, adapted, adapted_reps


def _grads_exact_maml(B, w, inner, outer, alpha, n):
    inner_res, adapted, adapted_reps = _full_adaptation(B, w, inner, alpha)
    # Adapted-point gradient of task i's outer loss: (u_i, q_i w_i^T).
    q = outer.residual(np.einsum("ndk,nk->nd", adapted_reps, adapted))
    u = np.einsum("ndk,nd->nk", adapted_reps, q)
    # Hessian-vector product of the inner loss at the unadapted parameters,
    # applied to (u_i, q_i w_i^T); ``inner_res`` is its gradient direction.
    overlaps = adapted.dot(w)[:, None]
    cov_Bu = inner.times(u.dot(B.T))
    cov_q = inner.times(q)
    hess_head = (
        cov_Bu.dot(B)
        + np.einsum("nd,nd->n", q, inner_res)[:, None] * adapted
        + overlaps * cov_q.dot(B)
    )
    grad_head = np.add.reduce(u - alpha * hess_head, 0) / n
    grad_rep = (
        q.T.dot(adapted)
        - alpha * (np.add.reduce(cov_Bu + overlaps * cov_q, 0)[:, None] * w)
        - alpha * inner_res.T.dot(u)
    ) / n
    return grad_head, grad_rep, adapted, adapted_reps


def _grads_avg(B, w, inner, outer, alpha, n):
    del inner, alpha  # no inner adaptation
    res = outer.residual(B.dot(w))
    grad_head = np.add.reduce(res.dot(B), 0) / n
    grad_rep = (np.add.reduce(res, 0) / n)[:, None] * w
    return grad_head, grad_rep, w[None].repeat(len(res), axis=0), None


_GRADS: dict[Algorithm, Callable] = {
    Algorithm.FO_ANIL: _grads_fo_anil,
    Algorithm.EXACT_ANIL: _grads_exact_anil,
    Algorithm.FO_MAML: _grads_fo_maml,
    Algorithm.EXACT_MAML: _grads_exact_maml,
    Algorithm.AVG_RISK_MIN: _grads_avg,
}

# Bartlett columns a finite-sample round draws per task for each kernel,
# inner and outer (``env._rounds``): the reads the kernel makes of each side,
# so that a step reveals every column its round drew.
_SKETCH_COLUMNS: dict[Algorithm, tuple[int, int]] = {
    Algorithm.FO_ANIL: (1, 1),
    Algorithm.EXACT_ANIL: (2, 1),
    Algorithm.FO_MAML: (1, 1),
    Algorithm.EXACT_MAML: (3, 1),
    Algorithm.AVG_RISK_MIN: (0, 1),
}


def _operands(alpha: float, beta: float, n: int, dtype: np.dtype) -> tuple[np.ndarray, ...]:
    """``alpha``, ``beta`` and ``n`` as read-only 0-d arrays of ``dtype``."""
    operands = tuple(np.array(value, dtype=dtype) for value in (alpha, beta, n))
    for operand in operands:
        operand.flags.writeable = False
    return operands


def meta_gradients(
    params: ModelParams, env: TaskEnvironment, batch: TaskBatch, hp: HyperParams
) -> tuple[np.ndarray, np.ndarray]:
    """Averaged outer-loop gradient ``(grad_head, grad_rep)`` for one round.

    The outer step moves the parameters by ``-beta`` times this pair.
    """
    inner, outer = _sides(env, batch, hp.mode)
    grad_head, grad_rep, _, _ = _GRADS[hp.algo](params.rep, params.head, inner, outer, hp.alpha,
                                                batch.n)
    return grad_head, grad_rep


def step_for(hp: HyperParams) -> Callable[..., StepOutcome]:
    """The outer step ``step(params, env, batch, hp)`` for ``hp``'s
    algorithm/mode pair.

    The step reads the step sizes from its own ``hp`` argument, so one step
    serves every configuration of the pair, and refuses an ``hp`` of another
    algorithm or mode with a ``ValueError``.  It keeps the ``_operands`` of
    the last ``hp`` object, task count and parameter dtype it was called
    with (an ``hp`` is frozen), and builds new ones when any of them changes.
    """
    algo, mode = hp.algo, hp.mode
    grads = _GRADS[algo]
    cached_hp = cached_n = cached_dtype = operands = None

    def step(
        params: ModelParams, env: TaskEnvironment, batch: TaskBatch, hp: HyperParams
    ) -> StepOutcome:
        nonlocal cached_hp, cached_n, cached_dtype, operands
        rep, head = params.rep, params.head
        n, dtype = batch.n, rep.dtype
        if hp is not cached_hp or n != cached_n or dtype is not cached_dtype:
            for field, built in (("algo", algo), ("mode", mode)):
                if getattr(hp, field) is not built:
                    raise ValueError(f"this step is for {field} {built.value}, got hp.{field} "
                                     f"{getattr(hp, field).value}")
            cached_hp, cached_n, cached_dtype = hp, n, dtype
            operands = _operands(hp.alpha, hp.beta, n, dtype)
        alpha, beta, n = operands
        inner, outer = _sides(env, batch, mode)
        grad_head, grad_rep, heads, reps = grads(rep, head, inner, outer, alpha, n)
        # Built unchecked: an update of validated parameters keeps their shapes.
        params_next = _trusted(ModelParams, rep=rep - beta * grad_rep,
                               head=head - beta * grad_head)
        return _trusted(StepOutcome, params_next=params_next, adapted_heads=heads,
                        adapted_reps=reps)

    return step


# --------------------------------------------------------------------------
# Trajectory driver
# --------------------------------------------------------------------------

def _is_diverged(params: ModelParams, rep_limit: float) -> bool:
    """Whether ``params`` has a non-finite entry, a head norm above
    ``_DIVERGENCE_NORM`` or a representation spectral norm above
    ``rep_limit``: the exact verdict, which ``run_trajectory`` asks for only
    when its two-dot test does not clear the step."""
    head, rep = params.head, params.rep
    if not head.dot(head) <= _DIVERGENCE_NORM**2:  # NaN fails the comparison
        return True
    return not np.isfinite(rep).all() or spectral_norm(rep) > rep_limit


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


_Row = namedtuple("_Row", _RECORD.names)


class _Trajectory(np.recarray):
    """A record array whose rows, indexed or iterated, are ``_Row`` named
    tuples of Python scalars (an ``int`` ``t``, as ``json`` takes it);
    columns stay arrays."""

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(item, np.record):
            return _Row(*item.tolist())
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


def _psi_spectra(adapted: np.ndarray) -> np.ndarray:
    """Extreme eigenvalues ``(low, high)`` of each adapted-head second moment
    ``(1/n) sum_i w_i w_i^T`` of a stack, clipped at 0; NaN where the second
    moment (from non-finite heads) or its spectrum is not finite.  One
    stacked call factors the moments, the non-finite ones replaced by 0."""
    psi = np.swapaxes(adapted, -1, -2) @ adapted / adapted.shape[-2]
    finite = np.isfinite(psi).all(axis=(-2, -1))
    extremes = np.linalg.eigvalsh(np.where(finite[:, None, None], psi, 0.0))[:, [0, -1]]
    finite = finite[:, None] & np.isfinite(extremes).all(axis=1, keepdims=True)
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
                return _records(_Snapshots(*(column[:index] for column in snapshots)), env,
                                perp, alpha)
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
    *,
    data_rng=None,
) -> RunResult:
    """Run ``hp.iters`` outer steps from ``init`` and record diagnostics.

    A finite-sample run draws its heads from ``rng`` and its data from
    ``data_rng``, which it requires.

    Records are taken at iteration 0, at every multiple of
    ``record_every``, and at the final iteration; each record describes the
    parameters *before* that round's step, alongside the round's
    adapted-head spectrum.  The final record's round is sampled and stepped
    like every other, but its step is not applied, so a full run takes
    ``iters + 1`` steps.  Divergent runs are truncated at the offending
    iteration and never record a divergent state; a record whose
    representation has collapsed is such an iteration.
    """
    if isinstance(record_every, bool) or not isinstance(record_every, (int, np.integer)):
        raise ValueError(f"record_every must be an integer, got {record_every!r}")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    step = step_for(hp)
    perp = orth_complement(env.ground_truth_rep)
    rep_limit = _DIVERGENCE_NORM / math.sqrt(hp.alpha)
    # The Frobenius norm bounds the spectral norm: below the limit by more
    # than the rounding of either, two dot products clear a step (a NaN
    # square fails the comparison).  The limits of that test, computed once.
    head_sq_max, rep_sq_max = _DIVERGENCE_NORM**2, (1.0 - _SHORTCUT_MARGIN) * rep_limit**2
    samples = None if hp.mode is Mode.POPULATION else (hp.m_in, hp.m_out)
    # Snapshots not yet recorded, each a ``_Snapshots`` row, and the recorded chunks.
    pending: list[tuple] = []
    chunks: list[np.recarray] = []

    mu_sq = eta = math.inf
    L_sq = L_max = -math.inf
    params = init
    diverged_at: int | None = None

    def flush() -> bool:
        """Record the pending snapshots, up to one whose representation has
        collapsed; at such a snapshot the run ends: its iteration is
        ``diverged_at`` and its parameters are the final ones."""
        nonlocal params, diverged_at
        kept = _Snapshots(*map(np.array, zip(*pending)))
        pending.clear()
        done = _records(kept, env, perp, hp.alpha)
        chunks.append(done)
        if len(done) == len(kept.t):
            return False
        row = len(done)
        diverged_at = int(kept.t[row])
        params = ModelParams(rep=kept.rep[row], head=kept.head[row])
        return True

    # A diverging run overflows in its steps, its divergence checks and its
    # records; it is declared divergent (or records NaN) rather than warning.
    with np.errstate(over="ignore", invalid="ignore"):
        rounds = _rounds(env, hp.n, hp.iters + 1, rng, samples, data_rng, _SKETCH_COLUMNS[hp.algo])
        for t, batch in enumerate(rounds):
            stats = diversity_stats(batch)
            mu_sq = stats.mu_sq if stats.mu_sq < mu_sq else mu_sq
            L_sq = stats.L_sq if stats.L_sq > L_sq else L_sq
            eta = stats.eta if stats.eta < eta else eta
            L_max = stats.L_max if stats.L_max > L_max else L_max
            outcome = step(params, env, batch, hp)
            if t % record_every == 0 or t == hp.iters:
                pending.append((t, params.rep, params.head, outcome.adapted_heads, batch.heads,
                                (mu_sq, L_sq, eta, L_max)))
                if len(pending) == _RECORD_CHUNK and flush():
                    break
            if t == hp.iters:
                break
            params = outcome.params_next
            head, rep = params.head, params.rep
            clear = head.dot(head) <= head_sq_max and np.vdot(rep, rep) <= rep_sq_max
            if not clear and _is_diverged(params, rep_limit):
                diverged_at = t + 1
                break
        if pending:
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
