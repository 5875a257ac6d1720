"""Subspace geometry, spectral utilities, and convergence diagnostics.

The central quantity is the principal-angle distance between the column
space of a learned representation and a ground-truth subspace: the largest
sine of a principal angle, computed as the spectral norm of the projection
of the orthonormalized representation onto the complement of the truth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # imported for annotations only; no runtime dependency
    from .env import DiversityStats
    from .model import HyperParams

__all__ = [
    "HypothesisReport",
    "TrajectoryRecord",
    "check_hypotheses",
    "delta_norm",
    "fit_log_linear_rate",
    "orth_complement",
    "principal_angle_dist",
    "qr_orthonormalize",
    "spectral_norm",
]

_RANK_TOL = 1e-12


@dataclass(frozen=True)
class TrajectoryRecord:
    """Diagnostics captured for one recorded iteration of a trajectory.

    Attributes
    ----------
    t:
        Iteration index of the recorded state.
    dist:
        Principal-angle distance of the representation to the truth.
    delta_norm:
        Spectral norm of ``I_k - alpha * B^T B``.
    w_norm:
        Euclidean norm of the shared head.
    psi_min, psi_max:
        Extreme eigenvalues of the round's adapted-head second moment.
    bperp_norm:
        Spectral norm of the unnormalized misalignment ``Bperp^T B``.
    loss:
        Mean population task loss over the round's sampled heads.
    """

    t: int
    dist: float
    delta_norm: float
    w_norm: float
    psi_min: float
    psi_max: float
    bperp_norm: float
    loss: float


@dataclass(frozen=True)
class HypothesisReport:
    """Per-record margins for the six trajectory conditions A1-A6.

    Each margin is nonnegative exactly when the corresponding condition
    holds at that record; NaN marks "not evaluated" (first record for the
    two-record conditions A2/A5, or missing head statistics). The
    constants used to form the margins are carried alongside.
    """

    iters: tuple[int, ...]
    a1: tuple[float, ...]
    a2: tuple[float, ...]
    a3: tuple[float, ...]
    a4_lower: tuple[float, ...]
    a4_upper: tuple[float, ...]
    a5: tuple[float, ...]
    a6: tuple[float, ...]
    rho: float
    e0: float
    mu_sq: float
    l_sq: float
    eta: float
    first_violation: dict[str, int | None] = field(default_factory=dict)


def qr_orthonormalize(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization with a nonnegative-diagonal sign convention.

    Returns ``(Q, R)`` with orthonormal ``Q``, upper-triangular ``R`` whose
    diagonal entries are nonnegative, and ``Q @ R == M``. Raises
    ``numpy.linalg.LinAlgError`` when ``M`` is (numerically) column-rank
    deficient, reporting the offending singular-value ratio.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix with at least one column, got shape {M.shape}")
    singular_values = np.linalg.svd(M, compute_uv=False)
    largest = float(singular_values[0])
    smallest = float(singular_values[-1])
    if largest == 0.0 or smallest <= _RANK_TOL * largest:
        ratio = smallest / largest if largest > 0.0 else 0.0
        raise np.linalg.LinAlgError(
            f"matrix is numerically rank deficient: singular value ratio {ratio:.3e}"
            f" <= {_RANK_TOL:.0e}"
        )
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs, signs[:, None] * R


def orth_complement(Bstar: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``col(Bstar)``.

    ``Bstar`` must already have orthonormal columns; the result ``P`` is
    ``d x (d - k)`` with ``Bstar^T P == 0`` to working precision.
    """
    Bstar = np.asarray(Bstar, dtype=float)
    d, k = Bstar.shape
    if np.abs(Bstar.T @ Bstar - np.eye(k)).max() > 1e-10:
        raise ValueError("input columns are not orthonormal")
    full_q, _ = np.linalg.qr(Bstar, mode="complete")
    return full_q[:, k:]


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of ``M`` (one LAPACK singular-value solve).

    Raises ``ValueError`` for input that is not 2-D or has non-finite
    entries; an empty matrix has norm 0.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    if min(M.shape) == 0:
        return 0.0
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    return float(np.linalg.svd(M, compute_uv=False)[0])


def principal_angle_dist(B: np.ndarray, Bstar_perp: np.ndarray) -> float:
    """Principal-angle distance between ``col(B)`` and the subspace whose
    orthogonal complement is spanned by ``Bstar_perp``.

    Equals the largest sine of a principal angle and lies in [0, 1].
    """
    Q, _ = qr_orthonormalize(B)
    value = spectral_norm(np.asarray(Bstar_perp, dtype=float).T @ Q)
    return min(max(value, 0.0), 1.0)


def delta_norm(B: np.ndarray, alpha: float) -> float:
    """Spectral norm of ``I_k - alpha * B^T B`` (symmetric eigensolve)."""
    B = np.asarray(B, dtype=float)
    k = B.shape[1]
    eigenvalues = np.linalg.eigvalsh(np.eye(k) - alpha * (B.T @ B))
    return float(np.abs(eigenvalues).max())


def fit_log_linear_rate(
    dist_series: Sequence[float],
    tail_fraction: float,
    *,
    iters: Sequence[int] | None = None,
) -> tuple[float, float]:
    """Least-squares slope of ``log(dist)`` over the trailing window.

    Parameters
    ----------
    dist_series:
        Positive distance values, one per record.
    tail_fraction:
        Fraction (0, 1] of trailing records to fit.
    iters:
        Optional iteration numbers matching ``dist_series``; defaults to
        record indices, in which case the slope is per record.

    Returns
    -------
    (slope, r_squared)
        Per-iteration log-slope and the coefficient of determination.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    values = np.asarray(list(dist_series), dtype=float)
    if iters is None:
        xs = np.arange(len(values), dtype=float)
    else:
        xs = np.asarray(list(iters), dtype=float)
        if xs.shape != values.shape:
            raise ValueError("iters must match dist_series in length")
    n_tail = int(math.ceil(len(values) * tail_fraction))
    if n_tail < 5:
        raise ValueError(f"log-linear fit needs at least 5 points in the tail, got {n_tail}")
    tail_y = values[-n_tail:]
    tail_x = xs[-n_tail:]
    if np.any(~np.isfinite(tail_y)) or np.any(tail_y <= 0.0):
        raise ValueError("dist values in the fitted tail must be finite and positive")
    log_y = np.log(tail_y)
    slope, intercept = np.polyfit(tail_x, log_y, 1)
    predicted = slope * tail_x + intercept
    ss_res = float(np.sum((log_y - predicted) ** 2))
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return float(slope), float(r_squared)


def check_hypotheses(
    trajectory: Sequence[TrajectoryRecord],
    hp: "HyperParams",
    env_stats: "DiversityStats | None",
    dist0: float,
    *,
    c_a1: float = 1.0,
) -> HypothesisReport:
    """Evaluate the six trajectory-condition margins at every record.

    The conditions, with margins defined so that "holds" means margin >= 0:

    - A1: head-norm bound ``||w_t|| <= sqrt(alpha) * min(1, mu^2/eta^2) * eta * C``.
    - A2: one-step growth bound on ``||Delta_t||`` (uses the previous record).
    - A3: ``||Delta_t|| <= 1/10``.
    - A4: adapted-head spectrum bounds ``psi_min >= 0.9 * alpha * E0 * mu^2``
      and ``psi_max <= 1.2 * alpha * L^2`` (lower and upper margins).
    - A5: per-record contraction of the misalignment norm by factor rho.
    - A6: ``dist_t <= rho^(t-1)``.

    Margins that need head statistics are NaN when ``env_stats`` is None.
    A2/A5 compare consecutive records and A4 describes a completed round's
    adapted heads, so all three are NaN at the first record. Statistics
    are per-run aggregates: mu_sq/eta are minima and L_sq/L_max maxima
    over the run's rounds.
    """
    e0 = 0.9 - dist0**2
    if env_stats is not None:
        mu_sq = env_stats.mu_sq
        l_sq = env_stats.L_sq
        eta = env_stats.eta
        rho = 1.0 - 0.5 * hp.beta * hp.alpha * e0 * mu_sq
    else:
        mu_sq = math.nan
        l_sq = math.nan
        eta = math.nan
        rho = math.nan

    iters: list[int] = []
    a1: list[float] = []
    a2: list[float] = []
    a3: list[float] = []
    a4_lower: list[float] = []
    a4_upper: list[float] = []
    a5: list[float] = []
    a6: list[float] = []

    if env_stats is not None:
        if eta > 0.0:
            a1_bound = math.sqrt(hp.alpha) * min(1.0, mu_sq / eta**2) * eta * c_a1
        else:
            a1_bound = 0.0
    else:
        a1_bound = math.nan

    previous: TrajectoryRecord | None = None
    for record in trajectory:
        iters.append(record.t)
        a1.append(a1_bound - record.w_norm if env_stats is not None else math.nan)
        a3.append(0.1 - record.delta_norm)
        if env_stats is not None:
            if previous is None:
                a4_lower.append(math.nan)
                a4_upper.append(math.nan)
            else:
                a4_lower.append(record.psi_min - 0.9 * hp.alpha * e0 * mu_sq)
                a4_upper.append(1.2 * hp.alpha * l_sq - record.psi_max)
            if record.t >= 1:
                a6.append(rho ** (record.t - 1) - record.dist)
            else:
                a6.append((1.0 / rho if rho != 0.0 else math.inf) - record.dist)
        else:
            a4_lower.append(math.nan)
            a4_upper.append(math.nan)
            a6.append(math.nan)
        if previous is None or env_stats is None:
            a2.append(math.nan)
            a5.append(math.nan)
        else:
            a2.append(
                rho * previous.delta_norm
                + 1.25 * hp.alpha**2 * hp.beta**2 * l_sq**2 * previous.dist**2
                - record.delta_norm
            )
            a5.append(rho * previous.bperp_norm - record.bperp_norm)
        previous = record

    margins: dict[str, list[list[float]]] = {
        "A1": [a1],
        "A2": [a2],
        "A3": [a3],
        "A4": [a4_lower, a4_upper],
        "A5": [a5],
        "A6": [a6],
    }
    first_violation: dict[str, int | None] = {}
    for name, series_list in margins.items():
        found: int | None = None
        for series in series_list:
            for t, value in zip(iters, series):
                if not math.isnan(value) and value < 0.0:
                    found = t if found is None else min(found, t)
                    break
        first_violation[name] = found

    return HypothesisReport(
        iters=tuple(iters),
        a1=tuple(a1),
        a2=tuple(a2),
        a3=tuple(a3),
        a4_lower=tuple(a4_lower),
        a4_upper=tuple(a4_upper),
        a5=tuple(a5),
        a6=tuple(a6),
        rho=rho,
        e0=e0,
        mu_sq=mu_sq,
        l_sq=l_sq,
        eta=eta,
        first_violation=first_violation,
    )
