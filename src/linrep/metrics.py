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
    deficient or its singular values are not finite, reporting the offending
    singular-value ratio.  A stack of
    matrices (leading axes) is factored matrix by matrix, and raises if any
    one of them is deficient.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] < 1:
        raise ValueError(
            f"expected a 2-D matrix (or a stack of them) with at least one column,"
            f" got shape {M.shape}"
        )
    singular_values = np.linalg.svd(M, compute_uv=False)
    largest = singular_values[..., 0]
    smallest = singular_values[..., -1]
    # NaN singular values (LAPACK's answer to infinite entries) count as
    # deficient: the comparison is False for them and for a zero matrix.
    deficient = ~(smallest > _RANK_TOL * largest)
    if deficient.any():
        index = tuple(int(i) for i in np.argwhere(deficient)[0])
        top, bottom = float(largest[index]), float(smallest[index])
        ratio = bottom / top if top != 0.0 else 0.0  # NaN when not finite
        where = f" {index}" if index else ""
        raise np.linalg.LinAlgError(
            f"matrix{where} is numerically rank deficient: singular value ratio {ratio:.3e}"
            f" <= {_RANK_TOL:.0e}"
        )
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return Q * signs[..., None, :], signs[..., :, None] * R


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


def spectral_norm(M: np.ndarray) -> float | np.ndarray:
    """Largest singular value of ``M`` (one LAPACK singular-value solve).

    A 2-D ``M`` gives a float; a stack of matrices (leading axes) gives an
    array of their norms.  Raises ``ValueError`` for input that is not at
    least 2-D or has non-finite entries; an empty matrix has norm 0.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2:
        raise ValueError(f"expected a 2-D matrix (or a stack of them), got shape {M.shape}")
    if min(M.shape[-2:]) == 0:
        norms = np.zeros(M.shape[:-2])
    else:
        if not np.isfinite(M).all():
            raise ValueError("matrix contains non-finite entries")
        norms = np.linalg.svd(M, compute_uv=False)[..., 0]
    return float(norms) if M.ndim == 2 else norms


def principal_angle_dist(B: np.ndarray, Bstar_perp: np.ndarray) -> float | np.ndarray:
    """Principal-angle distance between ``col(B)`` and the subspace whose
    orthogonal complement is spanned by ``Bstar_perp``.

    Equals the largest sine of a principal angle and lies in [0, 1].  A
    stack of representations ``B`` gives an array of distances.
    """
    Q, _ = qr_orthonormalize(B)
    value = spectral_norm(np.asarray(Bstar_perp, dtype=float).T @ Q)
    if Q.ndim == 2:
        return min(max(value, 0.0), 1.0)
    return np.minimum(np.maximum(value, 0.0), 1.0)


def delta_norm(B: np.ndarray, alpha: float) -> float | np.ndarray:
    """Spectral norm of ``I_k - alpha * B^T B`` (symmetric eigensolve); a
    stack of representations ``B`` gives an array of norms."""
    B = np.asarray(B, dtype=float)
    k = B.shape[-1]
    eigenvalues = np.linalg.eigvalsh(np.eye(k) - alpha * (np.swapaxes(B, -1, -2) @ B))
    norms = np.abs(eigenvalues).max(axis=-1)
    return float(norms) if B.ndim == 2 else norms


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
    trajectory: np.recarray,
    hp: "HyperParams",
    env_stats: "DiversityStats | None",
    dist0: float,
    *,
    c_a1: float = 1.0,
) -> HypothesisReport:
    """Evaluate the six trajectory-condition margins at every record of a
    trajectory (the record array of ``RunResult.trajectory``).

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
    mu_sq = l_sq = eta = rho = a1_bound = math.nan
    if env_stats is not None:
        mu_sq, l_sq, eta = env_stats.mu_sq, env_stats.L_sq, env_stats.eta
        rho = 1.0 - 0.5 * hp.beta * hp.alpha * e0 * mu_sq
        a1_bound = (
            math.sqrt(hp.alpha) * min(1.0, mu_sq / eta**2) * eta * c_a1 if eta > 0.0 else 0.0
        )

    iters = trajectory.t.tolist()
    dist, delta, bperp = trajectory.dist, trajectory.delta_norm, trajectory.bperp_norm
    # The squares here and the powers of rho in A6 are Python float powers
    # (libm ``pow``); numpy squares by multiplying, which can round apart.
    dist_sq = np.array([value**2 for value in dist.tolist()], dtype=float)

    # Without head statistics the constants are NaN, and so is every margin
    # that reads one.
    a1 = a1_bound - trajectory.w_norm
    a2 = np.full(len(iters), math.nan)
    a2[1:] = rho * delta[:-1] + 1.25 * hp.alpha**2 * hp.beta**2 * l_sq**2 * dist_sq[:-1] - delta[1:]
    a3 = 0.1 - delta
    a4_lower = trajectory.psi_min - 0.9 * hp.alpha * e0 * mu_sq
    a4_upper = 1.2 * hp.alpha * l_sq - trajectory.psi_max
    a4_lower[:1] = a4_upper[:1] = math.nan
    a5 = np.full(len(iters), math.nan)
    a5[1:] = rho * bperp[:-1] - bperp[1:]
    a6 = np.full(len(iters), math.nan)
    if env_stats is not None:
        first = 1.0 / rho if rho != 0.0 else math.inf
        a6 = np.array([rho ** (t - 1) if t >= 1 else first for t in iters], dtype=float) - dist

    # fmin skips a NaN side, so A4 fails where either of its bounds does.
    margins = {"A1": a1, "A2": a2, "A3": a3, "A4": np.fmin(a4_lower, a4_upper), "A5": a5, "A6": a6}
    first_violation: dict[str, int | None] = {}
    for name, series in margins.items():
        hits = np.flatnonzero(series < 0.0)
        first_violation[name] = iters[hits[0]] if hits.size else None

    return HypothesisReport(
        iters=tuple(iters),
        a1=tuple(a1.tolist()),
        a2=tuple(a2.tolist()),
        a3=tuple(a3.tolist()),
        a4_lower=tuple(a4_lower.tolist()),
        a4_upper=tuple(a4_upper.tolist()),
        a5=tuple(a5.tolist()),
        a6=tuple(a6.tolist()),
        rho=rho,
        e0=e0,
        mu_sq=mu_sq,
        l_sq=l_sq,
        eta=eta,
        first_violation=first_violation,
    )
