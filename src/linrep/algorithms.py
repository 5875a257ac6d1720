"""Meta-learning outer-loop updates and the trajectory driver.

One vectorized gradient kernel per algorithm/mode pair.  Each kernel adapts
every task in the round's batch with one inner gradient step and averages
the resulting outer-loop gradient; ``step_for`` builds the outer step on it,
which returns the updated shared parameters together with the adapted
per-task states and the spectrum of the adapted-head second-moment matrix.
``run_trajectory`` iterates steps over freshly sampled batches, records
subspace diagnostics on a fixed schedule, and stops early when the iterates
diverge.

Population steps use the closed-form expected risk; finite-sample steps
consume per-task inner/outer data sets.  The average-risk baseline skips
inner adaptation entirely and descends the mean unadapted risk.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

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
from .model import Algorithm, HyperParams, Mode, ModelParams, fs_grad_B, fs_grad_w

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
    ``(1/n) sum_i w_i w_i^T``.
    """

    params_next: ModelParams
    adapted_heads: np.ndarray
    adapted_reps: np.ndarray | None
    psi_min: float
    psi_max: float


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


def _stacked(sets) -> tuple[np.ndarray, np.ndarray]:
    inputs = np.stack([ds.inputs for ds in sets])
    labels = np.stack([ds.labels for ds in sets])
    return inputs, labels


def _require_sets(batch: TaskBatch, *, inner: bool = True) -> None:
    if batch.outer_sets is None or (inner and batch.inner_sets is None):
        raise ValueError("finite-sample steps require per-task data sets in the batch")


def _grads_fo_anil_fs(params, env, batch, alpha):
    del env
    _require_sets(batch)
    B, w = params.rep, params.head
    n = batch.n
    X_in, y_in = _stacked(batch.inner_sets)
    X_out, y_out = _stacked(batch.outer_sets)
    m_in, m_out = X_in.shape[1], X_out.shape[1]

    Z_in = X_in @ B
    res_in = Z_in @ w - y_in
    inner_grads = np.einsum("nmk,nm->nk", Z_in, res_in) / m_in
    adapted = w[None, :] - alpha * inner_grads

    Z_out = X_out @ B
    res_out = np.einsum("nmk,nk->nm", Z_out, adapted) - y_out
    grad_head = (np.einsum("nmk,nm->nk", Z_out, res_out) / m_out).mean(axis=0)
    lifted = np.einsum("nmd,nm->nd", X_out, res_out) / m_out
    grad_rep = lifted.T @ adapted / n
    return grad_head, grad_rep, adapted, None


def _grads_exact_anil_fs(params, env, batch, alpha):
    del env
    _require_sets(batch)
    B, w = params.rep, params.head
    n = batch.n
    X_in, y_in = _stacked(batch.inner_sets)
    X_out, y_out = _stacked(batch.outer_sets)
    m_in, m_out = X_in.shape[1], X_out.shape[1]

    Z_in = X_in @ B
    res_in = Z_in @ w - y_in
    lifted_in = np.einsum("nmd,nm->nd", X_in, res_in) / m_in  # row i: grad of head pre-projection
    adapted = w[None, :] - alpha * (lifted_in @ B)

    Z_out = X_out @ B
    res_out = np.einsum("nmk,nk->nm", Z_out, adapted) - y_out
    U = np.einsum("nmd,nm->nd", X_out, res_out) / m_out
    UB = U @ B
    # Apply the inner-sample second moment to B (B^T u) columnwise per task.
    through = np.einsum("nmk,nk->nm", Z_in, UB)
    cov_UB = np.einsum("nmk,nm->nk", Z_in, through) / m_in
    grad_head = (UB - alpha * cov_UB).mean(axis=0)

    cov_lift = np.einsum("nmd,nm->nd", X_in, through) / m_in
    grad_rep = (
        U.T @ adapted / n
        - alpha * np.outer(cov_lift.mean(axis=0), w)
        - alpha * (lifted_in.T @ UB) / n
    )
    return grad_head, grad_rep, adapted, None


def _grads_fo_maml_fs(params, env, batch, alpha):
    del env
    _require_sets(batch)
    B, w = params.rep, params.head
    n = batch.n
    X_in, y_in = _stacked(batch.inner_sets)
    X_out, y_out = _stacked(batch.outer_sets)
    m_in, m_out = X_in.shape[1], X_out.shape[1]

    Z_in = X_in @ B
    res_in = Z_in @ w - y_in
    inner_grads = np.einsum("nmk,nm->nk", Z_in, res_in) / m_in
    adapted = w[None, :] - alpha * inner_grads
    lifted_in = np.einsum("nmd,nm->nd", X_in, res_in) / m_in  # row i: p_i, rep step direction

    overlaps = adapted @ w
    Z_out = X_out @ B
    projected_lift = np.einsum("nmd,nd->nm", X_out, lifted_in)
    res_out = (
        np.einsum("nmk,nk->nm", Z_out, adapted)
        - alpha * overlaps[:, None] * projected_lift
        - y_out
    )
    lifted_out = np.einsum("nmd,nm->nd", X_out, res_out) / m_out
    lift_dots = np.einsum("nd,nd->n", lifted_in, lifted_out)
    grad_head = (lifted_out @ B - alpha * lift_dots[:, None] * w[None, :]).mean(axis=0)
    grad_rep = lifted_out.T @ adapted / n
    adapted_reps = B[None, :, :] - alpha * lifted_in[:, :, None] * w[None, None, :]
    return grad_head, grad_rep, adapted, adapted_reps


def _grads_exact_maml_fs(params, env, batch, alpha):
    del env
    _require_sets(batch)
    B, w = params.rep, params.head
    n = batch.n
    grad_head = np.zeros_like(w)
    grad_rep = np.zeros_like(B)
    adapted_list = []
    rep_list = []
    for i in range(n):
        task_params = ModelParams(
            rep=B - alpha * fs_grad_B(params, batch.inner_sets[i]),
            head=w - alpha * fs_grad_w(params, batch.inner_sets[i]),
        )
        adapted_list.append(task_params.head)
        rep_list.append(task_params.rep)

        ds_out = batch.outer_sets[i]
        u = fs_grad_w(task_params, ds_out)
        V = fs_grad_B(task_params, ds_out)

        X, m = ds_out.inputs, ds_out.m
        base_residual = X @ (B @ w) - ds_out.labels
        lifted = X.T @ base_residual / m

        def second_moment(mat):
            return X.T @ (X @ mat) / m

        cov_Bu = second_moment(B @ u)
        cov_V = second_moment(V)
        # Hessian-vector product of the empirical loss at the unadapted
        # parameters, applied to the adapted-point gradient (u, V).
        hess_head = B.T @ cov_Bu + V.T @ lifted + (B.T @ cov_V) @ w
        hess_rep = np.outer(cov_Bu, w) + np.outer(lifted, u) + cov_V @ np.outer(w, w)
        grad_head += (u - alpha * hess_head) / n
        grad_rep += (V - alpha * hess_rep) / n
    return grad_head, grad_rep, np.stack(adapted_list), np.stack(rep_list)


def _grads_avg_fs(params, env, batch, alpha):
    del env, alpha
    _require_sets(batch, inner=False)
    B, w = params.rep, params.head
    X_out, y_out = _stacked(batch.outer_sets)
    m_out = X_out.shape[1]
    Z_out = X_out @ B
    res = Z_out @ w - y_out
    grad_head = (np.einsum("nmk,nm->nk", Z_out, res) / m_out).mean(axis=0)
    lifted = np.einsum("nmd,nm->nd", X_out, res) / m_out
    grad_rep = np.outer(lifted.mean(axis=0), w)
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


def _avg_psi(params: ModelParams) -> tuple[float, float]:
    w_sq = float(params.head @ params.head)
    return (w_sq, w_sq) if params.rep.shape[1] == 1 else (0.0, w_sq)


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
        psi_min, psi_max = _psi_spectrum(heads) if adapts else _avg_psi(params)
        return StepOutcome(
            params_next=ModelParams(
                rep=params.rep - hp.beta * grad_rep, head=params.head - hp.beta * grad_head
            ),
            adapted_heads=heads,
            adapted_reps=reps,
            psi_min=psi_min,
            psi_max=psi_max,
        )

    return step


# --------------------------------------------------------------------------
# Trajectory driver
# --------------------------------------------------------------------------

def _sample_round(env: TaskEnvironment, hp: HyperParams, rng) -> TaskBatch:
    """Sample one round's tasks (and data sets in finite-sample mode).

    The draw order is fixed — heads first, then per task the inner set
    followed by the outer set — so that every algorithm consumes the random
    stream identically and trajectories are comparable across algorithms.
    """
    tasks = sample_task_batch(env, hp.n, rng)
    if hp.mode is Mode.POPULATION:
        return tasks
    inner, outer = [], []
    for head in tasks.heads:
        inner.append(sample_dataset(env, head, hp.m_in, rng))
        outer.append(sample_dataset(env, head, hp.m_out, rng))
    return TaskBatch(heads=tasks.heads, inner_sets=tuple(inner), outer_sets=tuple(outer))


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
