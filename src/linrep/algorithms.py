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

The trajectory loop (``_run_cells``) also runs a stack of finite-sample
cells that differ only in ``m_in``/``m_out``, the cells of a sweep's trial,
as one run: the cells share their environment, initialization, heads,
head statistics and sketch normals, each draws its sketch roots from its own
copy of the trial's roots stream, and the kernels, the step and
``ModelParams`` carry a leading cell axis, so a round is still one step call
and one statistics lookup.  A cell that diverges or collapses is
frozen and truncated where it would stop alone; ``run_trajectory`` is the
one-cell case.

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
# Relative margin by which the trajectory loop's two-dot test keeps clear of
# ``_is_diverged``'s limits: far wider than the rounding of either side
# (some ``C d k`` units of 2^-53), so that it never changes the verdict.
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
# The kernels are rank-generic: parameters ``(C, d, k)``/``(C, k)`` with a
# leading cell axis, on sides stacked the same way (``env._Sketch``), step C
# cells at once, every shape above gaining that axis.  Each cell's slice has
# the bits of the 2-D call on that cell's parameters and sides, since every
# operation applies its 2-D inner loop or BLAS call to each slice
# (``tests/test_stack.py``).  The products come from ``_PRODUCTS`` by the
# rank of ``B``: a product of two 2-D or 1-D arrays is ``a.dot(b)``, which on
# these operands (contiguous arrays and transposed views) makes the BLAS call
# ``a @ b`` makes (gemm, gemv, ddot, or syrk for ``A A^T``), with the same
# bits, without the matmul gufunc's dispatch (3x20 by 20x3: 0.53 against
# 1.10 us, numpy 2.4 with one OpenBLAS thread on a 2-vCPU Xeon); a stacked
# product is ``np.matmul``, or ``np.matvec`` for a matrix times a vector,
# since ``dot``'s N-D semantics differ.  Transposes are ``.mT``, einsums
# carry ``...`` for the cell axis, and a sum over the task axis is
# ``np.add.reduce(x, -2)``: the ufunc reduction ``x.sum(axis=-2)`` makes,
# with the same bits, without the Python wrapper around it; each costs what
# its 2-D form does.  The independent oracles (``model.pop_grad_*``/
# ``fs_grad_*``, the finite-difference check) keep ``@`` and ``sum``, to
# share no code path with the kernels.
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

_PRODUCTS = {2: (np.ndarray.dot, np.ndarray.dot), 3: (np.matmul, np.matvec)}


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
    mm, mv = _PRODUCTS[B.ndim]
    inner_res = inner.residual(mv(B, w))
    adapted = w[..., None, :] - alpha * mm(inner_res, B)
    outer_res = outer.residual(mm(adapted, B.mT))
    grad_head = np.add.reduce(mm(outer_res, B), -2) / n
    grad_rep = mm(outer_res.mT, adapted) / n
    return grad_head, grad_rep, adapted, None


def _grads_exact_anil(B, w, inner, outer, alpha, n):
    mm, mv = _PRODUCTS[B.ndim]
    inner_res = inner.residual(mv(B, w))  # row i: grad of head pre-projection
    row = w[..., None, :]
    adapted = row - alpha * mm(inner_res, B)

    U = outer.residual(mm(adapted, B.mT))
    UB = mm(U, B)
    # Inner-sample second moment applied to B (B^T u), per task.
    cov_lift = inner.times(mm(UB, B.mT))
    grad_head = np.add.reduce(UB - alpha * mm(cov_lift, B), -2) / n
    grad_rep = (
        mm(U.mT, adapted) / n
        - alpha * ((np.add.reduce(cov_lift, -2) / n)[..., None] * row)
        - alpha * mm(inner_res.mT, UB) / n
    )
    return grad_head, grad_rep, adapted, None


def _full_adaptation(B, w, row, inner, alpha, mm, mv):
    """Adapted heads and representations of the full-adaptation variants,
    with the inner residual directions ``p_i`` (rows) that move ``B``;
    ``row`` is ``w`` with a task axis."""
    inner_res = inner.residual(mv(B, w))
    adapted = row - alpha * mm(inner_res, B)
    adapted_reps = B[..., None, :, :] - alpha * inner_res[..., None] * row[..., None, :]
    return inner_res, adapted, adapted_reps


def _grads_fo_maml(B, w, inner, outer, alpha, n):
    mm, mv = _PRODUCTS[B.ndim]
    row = w[..., None, :]
    inner_res, adapted, adapted_reps = _full_adaptation(B, w, row, inner, alpha, mm, mv)
    outer_res = outer.residual(np.einsum("...ndk,...nk->...nd", adapted_reps, adapted))
    lift_dots = np.einsum("...nd,...nd->...n", inner_res, outer_res)
    grad_head = np.add.reduce(mm(outer_res, B) - alpha * lift_dots[..., None] * row, -2) / n
    grad_rep = mm(outer_res.mT, adapted) / n
    return grad_head, grad_rep, adapted, adapted_reps


def _grads_exact_maml(B, w, inner, outer, alpha, n):
    mm, mv = _PRODUCTS[B.ndim]
    row = w[..., None, :]
    inner_res, adapted, adapted_reps = _full_adaptation(B, w, row, inner, alpha, mm, mv)
    # Adapted-point gradient of task i's outer loss: (u_i, q_i w_i^T).
    q = outer.residual(np.einsum("...ndk,...nk->...nd", adapted_reps, adapted))
    u = np.einsum("...ndk,...nd->...nk", adapted_reps, q)
    # Hessian-vector product of the inner loss at the unadapted parameters,
    # applied to (u_i, q_i w_i^T); ``inner_res`` is its gradient direction.
    overlaps = mv(adapted, w)[..., None]
    cov_Bu = inner.times(mm(u, B.mT))
    cov_q = inner.times(q)
    hess_head = (
        mm(cov_Bu, B)
        + np.einsum("...nd,...nd->...n", q, inner_res)[..., None] * adapted
        + overlaps * mm(cov_q, B)
    )
    grad_head = np.add.reduce(u - alpha * hess_head, -2) / n
    grad_rep = (
        mm(q.mT, adapted)
        - alpha * (np.add.reduce(cov_Bu + overlaps * cov_q, -2)[..., None] * row)
        - alpha * mm(inner_res.mT, u)
    ) / n
    return grad_head, grad_rep, adapted, adapted_reps


def _grads_avg(B, w, inner, outer, alpha, n):
    del inner, alpha  # no inner adaptation
    mm, mv = _PRODUCTS[B.ndim]
    res = outer.residual(mv(B, w))
    row = w[..., None, :]
    grad_head = np.add.reduce(mm(res, B), -2) / n
    grad_rep = (np.add.reduce(res, -2) / n)[..., None] * row
    return grad_head, grad_rep, row.repeat(res.shape[-2], axis=-2), None


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
    ``data_rng``, which it requires: its sketch normals and roots from two
    streams spawned from it (``env._rounds``).

    Records are taken at iteration 0, at every multiple of
    ``record_every``, and at the final iteration; each record describes the
    parameters *before* that round's step, alongside the round's
    adapted-head spectrum.  The final record's round is sampled and stepped
    like every other, but its step is not applied, so a full run takes
    ``iters + 1`` steps.  Divergent runs are truncated at the offending
    iteration and never record a divergent state; a record whose
    representation has collapsed is such an iteration.  The run is the
    one-cell case of the trajectory loop ``_run_cells``.
    """
    samples = None if hp.mode is Mode.POPULATION else (hp.m_in, hp.m_out)
    (result,) = _run_cells(env, hp, init, rng, record_every, samples, data_rng)
    return result


def _run_cells(env: TaskEnvironment, hp: HyperParams, init: ModelParams, rng,
               record_every: int, samples, data_rng) -> list[RunResult]:
    """The trajectory loop: ``run_trajectory``'s run of one cell, or one
    run of a stack of finite-sample cells that differ only in their sample
    sizes, one ``RunResult`` per cell.

    ``samples`` is None for a population run, ``(m_in, m_out)`` for one
    finite-sample cell, or a ``C x 2`` array of them for a stack of ``C``
    cells, which draw their data from the one stream ``data_rng``.  The
    cells share ``env``, ``init``, ``hp``'s other fields and the heads drawn
    from ``rng``, so they share each round's task statistics.  They also
    share each block's sketch normals, drawn once from ``data_rng``'s
    normals stream, and each cell draws its roots from its own copy of the
    roots stream, in the block layout it has alone (``env._rounds``): a
    cell's sketches are those it draws alone, and the rank-generic step
    moves every cell with the bits it has alone.  A round is one step call
    and one ``diversity_stats`` lookup for all cells.

    A cell is frozen where it diverges or where its record collapses: its
    trajectory is truncated there and ``diverged_at`` set, as when it runs
    alone.  A frozen cell of a stack steps on from zero parameters, where
    every kernel's gradient is exactly zero, so that it neither trips the
    stack's divergence test nor needs a check of its own.  The run ends when
    every cell is frozen or the horizon is reached.
    """
    if isinstance(record_every, bool) or not isinstance(record_every, (int, np.integer)):
        raise ValueError(f"record_every must be an integer, got {record_every!r}")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    step = step_for(hp)
    perp = orth_complement(env.ground_truth_rep)
    rep_limit = _DIVERGENCE_NORM / math.sqrt(hp.alpha)
    # Frobenius norms bound spectral norms, and a stack's sums of squares
    # bound each cell's: below the limits by more than the rounding of
    # either, two dot products clear a step for every cell (a NaN square
    # fails the comparison).  The limits of that test, computed once.
    head_sq_max, rep_sq_max = ((1.0 - _SHORTCUT_MARGIN) * limit**2
                               for limit in (_DIVERGENCE_NORM, rep_limit))
    stacked = samples is not None and np.ndim(samples) == 2
    cells = len(samples) if stacked else 1
    # One cell's head is a vector, whose dot skips np.vdot's dispatch.
    head_dot = np.vdot if stacked else np.ndarray.dot
    params = init
    if stacked:
        params = _trusted(ModelParams, rep=np.repeat(init.rep[None], cells, axis=0),
                          head=np.repeat(init.head[None], cells, axis=0))

    def cell(params: ModelParams, c: int) -> ModelParams:
        """Cell ``c``'s parameters, copied out of a stack."""
        if not stacked:
            return params
        return _trusted(ModelParams, rep=params.rep[c].copy(), head=params.head[c].copy())

    # Snapshots not yet recorded, each a ``_Snapshots`` row of the stack;
    # per cell, the recorded chunks, the iteration it is frozen at and its
    # final parameters there.
    pending: list[tuple] = []
    chunks: list[list[np.recarray]] = [[] for _ in range(cells)]
    diverged_at: list[int | None] = [None] * cells
    final: list[ModelParams | None] = [None] * cells
    frozen: list[int] = []

    def freeze(c: int, t: int, params_c: ModelParams) -> None:
        if diverged_at[c] is None:
            frozen.append(c)
        diverged_at[c], final[c] = t, params_c

    def flush() -> None:
        """Record each cell's pending snapshots before its frozen iteration,
        up to one whose representation has collapsed; at such a snapshot
        the cell is frozen, with the snapshot's parameters as its final
        ones."""
        kept = _Snapshots(*map(np.array, zip(*pending)))
        pending.clear()
        for c in range(cells):
            rows = kept
            if stacked:
                rows = kept._replace(**{name: np.ascontiguousarray(getattr(kept, name)[:, c])
                                        for name in ("rep", "head", "adapted_heads")})
            if diverged_at[c] is not None:
                rows = _Snapshots(*(column[:np.searchsorted(rows.t, diverged_at[c])]
                                    for column in rows))
            done = _records(rows, env, perp, hp.alpha)
            chunks[c].append(done)
            if len(done) < len(rows.t):
                row = len(done)
                freeze(c, int(rows.t[row]), ModelParams(rep=rows.rep[row], head=rows.head[row]))

    mu_sq = eta = math.inf
    L_sq = L_max = -math.inf
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
                if len(pending) == _RECORD_CHUNK:
                    flush()
            if t == hp.iters or len(frozen) == cells:
                break
            params = outcome.params_next
            head, rep = params.head, params.rep
            if not (head_dot(head, head) <= head_sq_max and np.vdot(rep, rep) <= rep_sq_max):
                for c in range(cells):
                    if diverged_at[c] is None and _is_diverged(cell(params, c), rep_limit):
                        freeze(c, t + 1, cell(params, c))
                if len(frozen) == cells:
                    break
            if frozen:
                rep[frozen], head[frozen] = 0.0, 0.0
        if pending:
            flush()

    results = []
    for c in range(cells):
        trajectory = np.concatenate(chunks[c]).view(_Trajectory)
        head_stats = None
        if len(trajectory):
            last = trajectory[-1]
            head_stats = DiversityStats(last.mu_sq, last.L_sq, last.eta, last.L_max)
        results.append(RunResult(
            trajectory=trajectory,
            final_params=cell(params, c) if final[c] is None else final[c],
            diverged=diverged_at[c] is not None,
            diverged_at=diverged_at[c],
            head_stats=head_stats,
        ))
    return results
