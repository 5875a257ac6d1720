"""Independent numerical oracles used by the test suite.

Everything here is deliberately implemented without importing the package
under test: central finite differences, dense SVD-based subspace geometry,
and brute-force loops. Tests compare package output against these.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from types import SimpleNamespace

import numpy as np


def central_diff(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function, elementwise."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def central_diff_pair(
    f: Callable[[np.ndarray, np.ndarray], float],
    rep: np.ndarray,
    head: np.ndarray,
    h: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray]:
    """Central finite differences of f(rep, head) with respect to both arguments."""
    g_head = central_diff(lambda v: f(rep, v), head, h)
    g_rep = central_diff(lambda m: f(m, head), rep, h)
    return g_head, g_rep


def svd_subspace_dist(B: np.ndarray, Bstar: np.ndarray) -> float:
    """Principal-angle distance computed straight from dense SVD factorizations."""
    Q, _ = np.linalg.qr(B)
    Qs, _ = np.linalg.qr(Bstar)
    # sin of largest principal angle = largest singular value of the
    # projection of col(B) onto the orthogonal complement of col(Bstar).
    proj = Q - Qs @ (Qs.T @ Q)
    return float(np.linalg.svd(proj, compute_uv=False)[0])


def spectral_norm_svd(M: np.ndarray) -> float:
    """Largest singular value via dense SVD."""
    if min(M.shape) == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def rayleigh_min_bruteforce(psi: np.ndarray, n_dirs: int, seed: int) -> float:
    """Minimum Rayleigh quotient of a symmetric matrix over random unit vectors."""
    rng = np.random.default_rng(seed)
    k = psi.shape[0]
    best = np.inf
    for _ in range(n_dirs):
        u = rng.normal(size=k)
        u /= np.linalg.norm(u)
        best = min(best, float(u @ psi @ u))
    return best


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    """Norm-wise relative error with a floor to avoid division by ~0."""
    denom = max(float(np.linalg.norm(exact)), 1e-12)
    return float(np.linalg.norm(np.asarray(approx) - np.asarray(exact))) / denom


def hypothesis_margins_loop(records, alpha, beta, stats, dist0, c_a1=1.0):
    """Per-record loop over the A1-A6 margins of ``check_hypotheses``.

    ``records`` carry ``t, dist, delta_norm, w_norm, psi_min, psi_max,
    bperp_norm``; ``stats`` is ``(mu_sq, L_sq, eta)`` or None.  Returns the
    margin lists by name (A4 as ``a4_lower``/``a4_upper``) and the first
    violating ``t`` per condition.
    """
    nan = math.nan
    e0 = 0.9 - dist0**2
    if stats is not None:
        mu_sq, l_sq, eta = stats
        rho = 1.0 - 0.5 * beta * alpha * e0 * mu_sq
        a1_bound = math.sqrt(alpha) * min(1.0, mu_sq / eta**2) * eta * c_a1 if eta > 0.0 else 0.0
    margins = {name: [] for name in ("a1", "a2", "a3", "a4_lower", "a4_upper", "a5", "a6")}
    previous = None
    for r in records:
        first = previous is None
        margins["a3"].append(0.1 - r.delta_norm)
        if stats is None:
            for name in ("a1", "a2", "a4_lower", "a4_upper", "a5", "a6"):
                margins[name].append(nan)
        else:
            margins["a1"].append(a1_bound - r.w_norm)
            margins["a4_lower"].append(nan if first else r.psi_min - 0.9 * alpha * e0 * mu_sq)
            margins["a4_upper"].append(nan if first else 1.2 * alpha * l_sq - r.psi_max)
            if r.t >= 1:
                margins["a6"].append(rho ** (r.t - 1) - r.dist)
            else:
                margins["a6"].append((1.0 / rho if rho != 0.0 else math.inf) - r.dist)
            margins["a2"].append(nan if first else (
                rho * previous.delta_norm
                + 1.25 * alpha**2 * beta**2 * l_sq**2 * previous.dist**2
                - r.delta_norm
            ))
            margins["a5"].append(nan if first else rho * previous.bperp_norm - r.bperp_norm)
        previous = r
    groups = {"A1": ["a1"], "A2": ["a2"], "A3": ["a3"], "A4": ["a4_lower", "a4_upper"],
              "A5": ["a5"], "A6": ["a6"]}
    first_violation = {}
    for condition, names in groups.items():
        hits = [r.t for name in names for r, v in zip(records, margins[name]) if v < 0.0]
        first_violation[condition] = min(hits) if hits else None
    return margins, first_violation


def box_muller_two_calls(rng: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller normals from two uniform draws, the radial uniforms then
    the angular ones, joined by concatenation (the reference transform)."""
    if count == 0:
        return np.zeros(0)
    half = (count + 1) // 2
    u_radial = 1.0 - rng.random(half)  # in (0, 1]
    u_angle = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u_radial))
    angle = 2.0 * np.pi * u_angle
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]


_RANK_TOL = 1e-12


def _orthonormal_basis(M: np.ndarray) -> np.ndarray:
    """Q of the thin QR of M with a nonnegative R diagonal; LinAlgError when
    M is numerically column-rank deficient."""
    singular_values = np.linalg.svd(M, compute_uv=False)
    largest = float(singular_values[0])
    smallest = float(singular_values[-1])
    if largest == 0.0 or smallest <= _RANK_TOL * largest:
        raise np.linalg.LinAlgError("matrix is numerically rank deficient")
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def _top_singular_value(M: np.ndarray) -> float:
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _psi_extremes(adapted: np.ndarray) -> tuple[float, float]:
    psi = adapted.T @ adapted / adapted.shape[0]
    try:
        eigenvalues = np.linalg.eigvalsh(psi)
    except np.linalg.LinAlgError:
        return math.nan, math.nan
    low, high = float(eigenvalues[0]), float(eigenvalues[-1])
    if not (math.isfinite(low) and math.isfinite(high)):
        return math.nan, math.nan
    return max(low, 0.0), max(high, 0.0)


def record_loop(snapshots, ground_truth_rep, perp, noise_std, alpha):
    """Per-record loop over the diagnostic records of a trajectory.

    ``snapshots`` holds stacked columns ``t``, ``rep``, ``head``,
    ``adapted_heads``, ``task_heads`` and ``stats`` (the running task
    statistics ``mu_sq``, ``L_sq``, ``eta``, ``L_max``).  Each record is
    checked and built on its own matrices, one at a time; the loop stops at
    the first snapshot whose representation is numerically rank deficient,
    so the number of records returned is that snapshot's index.  A record is
    the tuple ``(t, dist, delta_norm, w_norm, psi_min, psi_max, bperp_norm,
    loss, mu_sq, L_sq, eta, L_max)``, the statistics passed through.
    """
    records = []
    rows = zip(snapshots.t, snapshots.rep, snapshots.head, snapshots.adapted_heads,
               snapshots.task_heads, snapshots.stats)
    for t, rep, head, adapted, task_heads, stats in rows:
        try:
            Q = _orthonormal_basis(rep)
            dist = min(max(_top_singular_value(perp.T @ Q), 0.0), 1.0)
            bperp = _top_singular_value(perp.T @ rep)
        except np.linalg.LinAlgError:
            break
        residuals = (rep @ head)[None, :] - task_heads @ ground_truth_rep.T
        loss = 0.5 * float(np.einsum("nd,nd->n", residuals, residuals).mean()) + 0.5 * noise_std**2
        with np.errstate(over="ignore", invalid="ignore"):
            psi_min, psi_max = _psi_extremes(adapted)
        k = rep.shape[1]
        delta = float(np.abs(np.linalg.eigvalsh(np.eye(k) - alpha * (rep.T @ rep))).max())
        w_norm = float(np.linalg.norm(head))
        records.append((int(t), dist, delta, w_norm, psi_min, psi_max, bperp, loss,
                        *(float(value) for value in stats)))
    return records


def diversity_stats_loop(heads: np.ndarray) -> tuple[float, float, float, float]:
    """``(mu_sq, L_sq, eta, L_max)`` of one round's ``n x k`` heads, each
    reduction made on that round's arrays alone."""
    n = heads.shape[0]
    eigenvalues = np.linalg.eigvalsh(heads.T @ heads / n)
    mean = heads.sum(axis=0) / n
    row_sq = np.einsum("ij,ij->i", heads, heads)
    return (
        max(float(eigenvalues[0]), 0.0),
        float(eigenvalues[-1]),
        math.sqrt(float(mean @ mean)),
        math.sqrt(float(row_sq.max())),
    )


def _diverged_loop(rep: np.ndarray, head: np.ndarray, rep_limit: float) -> bool:
    """Divergence verdict from dense norms: a non-finite entry, a head norm
    above 1e6 or a representation spectral norm above ``rep_limit``."""
    if not (np.isfinite(rep).all() and np.isfinite(head).all()):
        return True
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(head)) > 1e6 or spectral_norm_svd(rep) > rep_limit


def run_loop(env, hp, init, rng, record_every, *, step, sample_task_batch, perp):
    """Reference population run, one round at a time.

    ``step`` is the package's outer step for ``hp`` and ``sample_task_batch``
    the package's one-round head draw, called on ``rng`` once per round, so
    the run's rounds are redrawn in order.  Everything else is done here: the
    running task statistics are ``min``/``max`` of ``diversity_stats_loop``
    over every round so far; a scheduled record is ``record_loop`` on that
    round's snapshot alone, and a collapsed one ends the run at its
    iteration with its parameters; a step's result ends the run at the next
    iteration when ``_diverged_loop`` says so, with the limit
    ``1e6 / sqrt(alpha)``.  Returns ``(records, final_params, diverged_at,
    head_stats)``, ``head_stats`` the last record's running statistics or
    None.
    """
    rep_limit = 1e6 / math.sqrt(hp.alpha)
    mu_sq = eta = math.inf
    L_sq = L_max = -math.inf
    records = []
    params, diverged_at = init, None
    for t in range(hp.iters + 1):
        batch = sample_task_batch(env, hp.n, rng)
        round_mu_sq, round_L_sq, round_eta, round_L_max = diversity_stats_loop(batch.heads)
        mu_sq, L_sq = min(mu_sq, round_mu_sq), max(L_sq, round_L_sq)
        eta, L_max = min(eta, round_eta), max(L_max, round_L_max)
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = step(params, env, batch, hp)
        if t % record_every == 0 or t == hp.iters:
            snapshot = SimpleNamespace(
                t=[t], rep=[params.rep], head=[params.head], adapted_heads=[outcome.adapted_heads],
                task_heads=[batch.heads], stats=[(mu_sq, L_sq, eta, L_max)],
            )
            record = record_loop(snapshot, env.ground_truth_rep, perp, env.noise_std, hp.alpha)
            if not record:
                diverged_at = t
                break
            records += record
        if t == hp.iters:
            break
        params = outcome.params_next
        if _diverged_loop(params.rep, params.head, rep_limit):
            diverged_at = t + 1
            break
    head_stats = records[-1][-4:] if records else None
    return records, params, diverged_at, head_stats
