"""Meta-learning outer-loop updates and the trajectory driver.

One vectorized gradient kernel per algorithm/mode pair.  Each kernel adapts
every task in the round's batch with one inner gradient step and averages
the resulting outer-loop gradient; ``step_for`` builds the outer step on it,
which returns the updated shared parameters together with the adapted
per-task states; the spectrum of the adapted-head second-moment matrix is
computed only when a record reads it.
``run_trajectory`` iterates steps over freshly sampled batches, records
subspace diagnostics on a fixed schedule, and stops early when the iterates
diverge.

Population steps use the closed-form expected risk; finite-sample steps
consume the round's stacked inner/outer data sets through their sufficient
statistics ``(X^T X/m, X^T y/m)``.  A finite-sample round draws the heads,
then every task's inner set, then every task's outer set.  The average-risk
baseline skips inner adaptation entirely and descends the mean unadapted
risk.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError

from .env import (
    DiversityStats,
    TaskBatch,
    TaskEnvironment,
    diversity_stats,
    sample_dataset,
    sample_task_batch,
)
from .metrics import (
    TrajectoryRecord,
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


@dataclass(frozen=True)
class StepOutcome:
    """Result of one outer-loop step.

    ``adapted_heads`` (``n x k``) holds the round's inner-loop heads in task
    order; ``adapted_reps`` (``n x d x k``) holds the adapted
    representations of the full-adaptation variants and is None for
    algorithms that adapt the head only.  ``psi_min``/``psi_max`` are the
    extreme eigenvalues of the adapted-head second-moment matrix
    ``(1/n) sum_i w_i w_i^T``, computed on first access.  For the
    average-risk baseline (``adapts`` False) every row of ``adapted_heads``
    is the unadapted head and the spectrum is that of ``w w^T``.
    """

    params_next: ModelParams
    adapted_heads: np.ndarray
    adapted_reps: np.ndarray | None
    adapts: bool = True

    @cached_property
    def _psi(self) -> tuple[float, float]:
        # Steps of a diverging run see overflowing iterates; their spectrum
        # is NaN rather than a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.adapts:
                return _psi_spectrum(self.adapted_heads)
            return _avg_psi(self.adapted_heads[0])

    @property
    def psi_min(self) -> float:
        return self._psi[0]

    @property
    def psi_max(self) -> float:
        return self._psi[1]


@dataclass(frozen=True)
class RunResult:
    """A recorded training trajectory.

    ``trajectory`` contains one record per scheduled iteration, always
    including iteration 0 and, for runs that do not diverge, the final
    iteration.  ``gt_stats_running`` mirrors ``trajectory`` and holds the
    running aggregate of the sampled task-diversity statistics (minimum
    ``mu_sq``/``eta``, maximum ``L_sq``/``L_max`` over all rounds so far);
    ``head_stats`` is its last entry.  Diverged runs are truncated: no
    record describes a divergent state, and ``diverged_at`` is the first
    iteration index whose parameters failed the finiteness/norm checks.
    """

    trajectory: tuple[TrajectoryRecord, ...]
    final_params: ModelParams
    diverged: bool
    diverged_at: int | None
    head_stats: DiversityStats | None
    gt_stats_running: tuple[DiversityStats, ...]


# --------------------------------------------------------------------------
# Outer-loop gradients (vectorized over the task batch)
# --------------------------------------------------------------------------
# Each helper returns (grad_head, grad_rep, adapted_heads, adapted_reps)
# with adapted_heads of shape (n, k) and adapted_reps of shape (n, d, k)
# or None when the algorithm adapts heads only.

def _adapted_heads(B: np.ndarray, w: np.ndarray, heads: np.ndarray, alpha: float, cross: np.ndarray) -> np.ndarray:
    """Heads after one population inner step: ``(I - a B^T B) w + a B^T B* w*_i``."""
    delta = np.eye(B.shape[1]) - alpha * (B.T @ B)
    return (delta @ w)[None, :] + alpha * heads @ cross.T


def _grads_fo_anil_pop(params, env, batch, alpha):
    B, w, heads = params.rep, params.head, batch.heads
    n = batch.n
    gram = B.T @ B
    cross = B.T @ env.ground_truth_rep
    adapted = _adapted_heads(B, w, heads, alpha, cross)
    grad_head = gram @ adapted.mean(axis=0) - cross @ heads.mean(axis=0)
    psi = adapted.T @ adapted / n
    coupling = heads.T @ adapted / n
    grad_rep = B @ psi - env.ground_truth_rep @ coupling
    return grad_head, grad_rep, adapted, None


def _grads_exact_anil_pop(params, env, batch, alpha):
    B, w, heads = params.rep, params.head, batch.heads
    n = batch.n
    Bstar = env.ground_truth_rep
    gram = B.T @ B
    delta = np.eye(B.shape[1]) - alpha * gram
    cross = B.T @ Bstar
    adapted = _adapted_heads(B, w, heads, alpha, cross)

    residuals = (B @ w)[None, :] - heads @ Bstar.T
    # Rows: post-adaptation residuals (I - alpha B B^T) r_i.
    adapted_residuals = residuals - alpha * (residuals @ B) @ B.T
    grad_head = delta @ (delta @ (B.T @ residuals.mean(axis=0)))
    grad_rep = (
        adapted_residuals.T @ adapted / n
        - alpha * np.outer(B @ (B.T @ adapted_residuals.mean(axis=0)), w)
        - alpha * (residuals.T @ (adapted_residuals @ B)) / n
    )
    return grad_head, grad_rep, adapted, None


def _grads_fo_maml_pop(params, env, batch, alpha):
    B, w, heads = params.rep, params.head, batch.heads
    n = batch.n
    Bstar = env.ground_truth_rep
    cross = B.T @ Bstar
    adapted = _adapted_heads(B, w, heads, alpha, cross)

    targets = heads @ Bstar.T  # row i is B* w*_i
    lam = np.eye(B.shape[1]) - alpha * np.outer(w, w)
    overlaps = adapted @ w
    # Row i is the post-adaptation residual B_i w_i - B* w*_i.
    errors = (adapted @ lam) @ B.T + (alpha * overlaps - 1.0)[:, None] * targets
    target_dots = np.einsum("nd,nd->n", targets, errors)
    grad_head = lam @ (B.T @ errors.mean(axis=0)) + alpha * target_dots.mean() * w
    grad_rep = errors.T @ adapted / n
    adapted_reps = (B @ lam)[None, :, :] + alpha * targets[:, :, None] * w[None, None, :]
    return grad_head, grad_rep, adapted, adapted_reps


def _grads_exact_maml_pop(params, env, batch, alpha):
    B, w, heads = params.rep, params.head, batch.heads
    n = batch.n
    Bstar = env.ground_truth_rep
    gram = B.T @ B
    delta = np.eye(B.shape[1]) - alpha * gram
    cross = B.T @ Bstar
    adapted = _adapted_heads(B, w, heads, alpha, cross)

    Bw = B @ w
    residuals = Bw[None, :] - heads @ Bstar.T
    omega = float(w @ (delta @ w))
    align = heads @ (Bstar.T @ Bw)
    scalars = alpha * omega + alpha**2 * align  # per-task contraction scalar

    RB = residuals @ B
    # V rows: (I - alpha B B^T - scalar_i I) applied to each residual.
    V = residuals - alpha * RB @ B.T - scalars[:, None] * residuals
    VB = V @ B
    VM = V - alpha * VB @ B.T - scalars[:, None] * V
    dots = np.einsum("nd,nd->n", residuals, V)
    mean_dot = dots.mean()
    weighted_heads = (dots[:, None] * heads).mean(axis=0)

    grad_head = (
        delta @ VB.mean(axis=0)
        - (scalars[:, None] * VB).mean(axis=0)
        - 2.0 * alpha * mean_dot * (delta @ w)
        - alpha**2 * (B.T @ (Bstar @ weighted_heads))
    )
    grad_rep = (
        np.outer(VM.mean(axis=0), w)
        - alpha * (V.T @ RB) / n
        - alpha * (residuals.T @ VB) / n
        + 2.0 * alpha**2 * mean_dot * np.outer(Bw, w)
        - alpha**2 * np.outer(Bstar @ weighted_heads, w)
    )
    adapted_reps = B[None, :, :] - alpha * residuals[:, :, None] * w[None, None, :]
    return grad_head, grad_rep, adapted, adapted_reps


def _grads_avg_pop(params, env, batch, alpha):
    del alpha  # no inner adaptation
    B, w, heads = params.rep, params.head, batch.heads
    residual = B @ w - env.ground_truth_rep @ heads.mean(axis=0)
    grad_head = B.T @ residual
    grad_rep = np.outer(residual, w)
    return grad_head, grad_rep, np.tile(w, (batch.n, 1)), None


def _require_sets(batch: TaskBatch, *, inner: bool = True) -> None:
    if batch.outer_sets is None or (inner and batch.inner_sets is None):
        raise ValueError("finite-sample steps require per-task data sets in the batch")


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Rows ``M_i v_i`` for stacked ``mats`` (``n x d x d``) and ``vecs`` (``n x d``)."""
    return (mats @ vecs[..., None])[..., 0]


def _grads_fo_anil_fs(params, env, batch, alpha):
    del env
    _require_sets(batch)
    B, w = params.rep, params.head
    n = batch.n
    inner_res = batch.inner_sets.residual(B @ w)
    adapted = w[None, :] - alpha * (inner_res @ B)
    outer_res = batch.outer_sets.residual(adapted @ B.T)
    grad_head = (outer_res @ B).mean(axis=0)
    grad_rep = outer_res.T @ adapted / n
    return grad_head, grad_rep, adapted, None


def _grads_exact_anil_fs(params, env, batch, alpha):
    del env
    _require_sets(batch)
    B, w = params.rep, params.head
    n = batch.n
    inner_res = batch.inner_sets.residual(B @ w)  # row i: grad of head pre-projection
    adapted = w[None, :] - alpha * (inner_res @ B)

    U = batch.outer_sets.residual(adapted @ B.T)
    UB = U @ B
    # Inner-sample second moment applied to B (B^T u), per task.
    cov_lift = _matvec(batch.inner_sets.cov, UB @ B.T)
    grad_head = (UB - alpha * (cov_lift @ B)).mean(axis=0)
    grad_rep = (
        U.T @ adapted / n
        - alpha * np.outer(cov_lift.mean(axis=0), w)
        - alpha * (inner_res.T @ UB) / n
    )
    return grad_head, grad_rep, adapted, None


def _fs_full_adaptation(B, w, batch, alpha):
    """Adapted heads and representations of the full-adaptation variants,
    with the inner residual directions ``p_i`` (rows) that move ``B``."""
    inner_res = batch.inner_sets.residual(B @ w)
    adapted = w[None, :] - alpha * (inner_res @ B)
    adapted_reps = B[None, :, :] - alpha * inner_res[:, :, None] * w[None, None, :]
    return inner_res, adapted, adapted_reps


def _grads_fo_maml_fs(params, env, batch, alpha):
    del env
    _require_sets(batch)
    B, w = params.rep, params.head
    n = batch.n
    inner_res, adapted, adapted_reps = _fs_full_adaptation(B, w, batch, alpha)
    outer_res = batch.outer_sets.residual(np.einsum("ndk,nk->nd", adapted_reps, adapted))
    lift_dots = np.einsum("nd,nd->n", inner_res, outer_res)
    grad_head = (outer_res @ B - alpha * lift_dots[:, None] * w[None, :]).mean(axis=0)
    grad_rep = outer_res.T @ adapted / n
    return grad_head, grad_rep, adapted, adapted_reps


def _grads_exact_maml_fs(params, env, batch, alpha):
    del env
    _require_sets(batch)
    B, w = params.rep, params.head
    n = batch.n
    outer = batch.outer_sets
    inner_res, adapted, adapted_reps = _fs_full_adaptation(B, w, batch, alpha)
    # Adapted-point gradient of task i's outer loss: (u_i, q_i w_i^T).
    q = outer.residual(np.einsum("ndk,nk->nd", adapted_reps, adapted))
    u = np.einsum("ndk,nd->nk", adapted_reps, q)
    # Hessian-vector product of the outer loss at the unadapted parameters,
    # applied to (u_i, q_i w_i^T); ``lifted`` is its gradient direction there.
    lifted = outer.residual(B @ w)
    overlaps = adapted @ w
    cov_Bu = _matvec(outer.cov, u @ B.T)
    cov_q = _matvec(outer.cov, q)
    hess_head = (
        cov_Bu @ B
        + np.einsum("nd,nd->n", q, lifted)[:, None] * adapted
        + overlaps[:, None] * (cov_q @ B)
    )
    grad_head = (u - alpha * hess_head).mean(axis=0)
    grad_rep = (
        q.T @ adapted
        - alpha * np.outer((cov_Bu + overlaps[:, None] * cov_q).sum(axis=0), w)
        - alpha * (lifted.T @ u)
    ) / n
    return grad_head, grad_rep, adapted, adapted_reps


def _grads_avg_fs(params, env, batch, alpha):
    del env, alpha
    _require_sets(batch, inner=False)
    B, w = params.rep, params.head
    res = batch.outer_sets.residual(B @ w)
    grad_head = (res @ B).mean(axis=0)
    grad_rep = np.outer(res.mean(axis=0), w)
    return grad_head, grad_rep, np.tile(w, (batch.n, 1)), None


_GRADS: dict[tuple[Algorithm, Mode], Callable] = {
    (Algorithm.FO_ANIL, Mode.POPULATION): _grads_fo_anil_pop,
    (Algorithm.EXACT_ANIL, Mode.POPULATION): _grads_exact_anil_pop,
    (Algorithm.FO_MAML, Mode.POPULATION): _grads_fo_maml_pop,
    (Algorithm.EXACT_MAML, Mode.POPULATION): _grads_exact_maml_pop,
    (Algorithm.AVG_RISK_MIN, Mode.POPULATION): _grads_avg_pop,
    (Algorithm.FO_ANIL, Mode.FINITE): _grads_fo_anil_fs,
    (Algorithm.EXACT_ANIL, Mode.FINITE): _grads_exact_anil_fs,
    (Algorithm.FO_MAML, Mode.FINITE): _grads_fo_maml_fs,
    (Algorithm.EXACT_MAML, Mode.FINITE): _grads_exact_maml_fs,
    (Algorithm.AVG_RISK_MIN, Mode.FINITE): _grads_avg_fs,
}


def meta_gradients(
    params: ModelParams, env: TaskEnvironment, batch: TaskBatch, hp: HyperParams
) -> tuple[np.ndarray, np.ndarray]:
    """Averaged outer-loop gradient ``(grad_head, grad_rep)`` for one round.

    The outer step moves the parameters by ``-beta`` times this pair.
    """
    grad_head, grad_rep, _, _ = _GRADS[(hp.algo, hp.mode)](params, env, batch, hp.alpha)
    return grad_head, grad_rep


def _psi_spectrum(adapted: np.ndarray) -> tuple[float, float]:
    psi = adapted.T @ adapted / adapted.shape[0]
    try:
        eigenvalues = np.linalg.eigvalsh(psi)
    except np.linalg.LinAlgError:  # non-finite second moment
        return math.nan, math.nan
    low, high = float(eigenvalues[0]), float(eigenvalues[-1])
    if not (math.isfinite(low) and math.isfinite(high)):
        return math.nan, math.nan
    return max(low, 0.0), max(high, 0.0)


def _avg_psi(head: np.ndarray) -> tuple[float, float]:
    w_sq = float(head @ head)
    return (w_sq, w_sq) if head.shape[0] == 1 else (0.0, w_sq)


def step_for(hp: HyperParams) -> Callable[..., StepOutcome]:
    """The outer step ``step(params, env, batch, hp)`` for ``hp``'s
    algorithm/mode pair.

    The step reads the step sizes from its own ``hp`` argument, so one step
    serves every configuration of the pair.  The average-risk baseline does
    not adapt; its psi spectrum is that of the unadapted head.
    """
    grads = _GRADS[(hp.algo, hp.mode)]
    adapts = hp.algo is not Algorithm.AVG_RISK_MIN

    def step(
        params: ModelParams, env: TaskEnvironment, batch: TaskBatch, hp: HyperParams
    ) -> StepOutcome:
        grad_head, grad_rep, heads, reps = grads(params, env, batch, hp.alpha)
        return StepOutcome(
            params_next=ModelParams(
                rep=params.rep - hp.beta * grad_rep, head=params.head - hp.beta * grad_head
            ),
            adapted_heads=heads,
            adapted_reps=reps,
            adapts=adapts,
        )

    return step


# --------------------------------------------------------------------------
# Trajectory driver
# --------------------------------------------------------------------------

def _sample_round(env: TaskEnvironment, hp: HyperParams, rng) -> TaskBatch:
    """Sample one round's tasks (and data sets in finite-sample mode).

    The draw order is fixed — the heads, then all tasks' inner sets in one
    call, then all tasks' outer sets in one call — so that every algorithm
    consumes the random stream identically and trajectories are comparable
    across algorithms.
    """
    tasks = sample_task_batch(env, hp.n, rng)
    if hp.mode is Mode.POPULATION:
        return tasks
    return TaskBatch(
        heads=tasks.heads,
        inner_sets=sample_dataset(env, tasks.heads, hp.m_in, rng),
        outer_sets=sample_dataset(env, tasks.heads, hp.m_out, rng),
    )


def _merge_stats(agg: DiversityStats | None, new: DiversityStats) -> DiversityStats:
    if agg is None:
        return new
    return DiversityStats(
        mu_sq=min(agg.mu_sq, new.mu_sq),
        L_sq=max(agg.L_sq, new.L_sq),
        eta=min(agg.eta, new.eta),
        L_max=max(agg.L_max, new.L_max),
    )


def _rep_norm_exceeds(rep: np.ndarray, limit: float) -> bool:
    largest = float(np.abs(rep).max())
    if largest * math.sqrt(rep.size) <= limit:
        return False  # Frobenius bound already below the limit
    gram = rep.T @ rep
    top = float(np.linalg.eigvalsh(gram)[-1])
    return math.sqrt(max(top, 0.0)) > limit


def _is_diverged(params: ModelParams, rep_limit: float) -> bool:
    head_sq = float(params.head @ params.head)
    if not (math.isfinite(head_sq) and np.isfinite(params.rep).all()):
        return True
    if head_sq > _DIVERGENCE_NORM * _DIVERGENCE_NORM:
        return True
    return _rep_norm_exceeds(params.rep, rep_limit)


def _try_record(
    t: int,
    params: ModelParams,
    outcome: StepOutcome,
    batch: TaskBatch,
    env: TaskEnvironment,
    perp: np.ndarray,
    alpha: float,
) -> TrajectoryRecord | None:
    """Build the diagnostic record for iteration ``t``, or None if the
    representation has numerically collapsed and the geometry is undefined."""
    try:
        dist = principal_angle_dist(params.rep, perp)
        bperp = spectral_norm(perp.T @ params.rep)
    except LinAlgError:
        return None
    residuals = (params.rep @ params.head)[None, :] - batch.heads @ env.ground_truth_rep.T
    loss = 0.5 * float(np.einsum("nd,nd->n", residuals, residuals).mean()) + 0.5 * env.noise_std**2
    return TrajectoryRecord(
        t=t,
        dist=dist,
        delta_norm=delta_norm(params.rep, alpha),
        w_norm=float(np.linalg.norm(params.head)),
        psi_min=outcome.psi_min,
        psi_max=outcome.psi_max,
        bperp_norm=bperp,
        loss=loss,
    )


def run_trajectory(
    env: TaskEnvironment,
    hp: HyperParams,
    init: ModelParams,
    rng,
    record_every: int = 1,
    *,
    fixed_batch: bool = False,
) -> RunResult:
    """Run ``hp.iters`` outer steps from ``init`` and record diagnostics.

    Records are taken at iteration 0, at every multiple of
    ``record_every``, and at the final iteration; each record describes the
    parameters *before* that round's step, alongside the round's
    adapted-head spectrum.  The final record uses a freshly sampled
    diagnostic batch whose step is discarded.  With ``fixed_batch`` the
    first sampled round is reused for every iteration.  Divergent runs are
    truncated at the offending iteration and never record a divergent
    state.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    step = step_for(hp)
    perp = orth_complement(env.ground_truth_rep)
    rep_limit = _DIVERGENCE_NORM / math.sqrt(hp.alpha)

    records: list[TrajectoryRecord] = []
    running: list[DiversityStats] = []
    aggregate: DiversityStats | None = None
    params = init
    diverged = False
    diverged_at: int | None = None
    first_batch: TaskBatch | None = None

    def next_batch() -> TaskBatch:
        nonlocal first_batch
        if fixed_batch and first_batch is not None:
            return first_batch
        batch = _sample_round(env, hp, rng)
        if fixed_batch:
            first_batch = batch
        return batch

    for t in range(hp.iters):
        batch = next_batch()
        aggregate = _merge_stats(aggregate, diversity_stats(batch))
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = step(params, env, batch, hp)
        if t % record_every == 0:
            record = _try_record(t, params, outcome, batch, env, perp, hp.alpha)
            if record is None:
                diverged, diverged_at = True, t
                break
            records.append(record)
            running.append(aggregate)
        params = outcome.params_next
        if _is_diverged(params, rep_limit):
            diverged, diverged_at = True, t + 1
            break

    if not diverged:
        batch = next_batch()
        aggregate = _merge_stats(aggregate, diversity_stats(batch))
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = step(params, env, batch, hp)
        record = _try_record(hp.iters, params, outcome, batch, env, perp, hp.alpha)
        if record is None:
            diverged, diverged_at = True, hp.iters
        else:
            records.append(record)
            running.append(aggregate)

    return RunResult(
        trajectory=tuple(records),
        final_params=params,
        diverged=diverged,
        diverged_at=diverged_at,
        head_stats=running[-1] if running else None,
        gt_stats_running=tuple(running),
    )
