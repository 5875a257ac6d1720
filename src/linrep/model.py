"""Model parameters, initialization schemes, losses, and their gradients.

The model is a linear predictor factored as ``x -> <B w, x>`` with a
shared representation ``B`` (``d x k``) and a head ``w`` (``k``).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .env import DataSet, TaskEnvironment
from .metrics import orth_complement, principal_angle_dist, qr_orthonormalize
from .rng import standard_normal

__all__ = [
    "Algorithm",
    "HyperParams",
    "InitScheme",
    "Mode",
    "ModelParams",
    "finite_task_loss",
    "fs_grad_B",
    "fs_grad_w",
    "init_model",
    "pop_grad_B",
    "pop_grad_w",
    "population_task_loss",
    "rate_matched_alpha",
]


class Algorithm(enum.Enum):
    """Outer-loop update rule."""

    FO_ANIL = "FO_ANIL"
    EXACT_ANIL = "EXACT_ANIL"
    FO_MAML = "FO_MAML"
    EXACT_MAML = "EXACT_MAML"
    AVG_RISK_MIN = "AVG_RISK_MIN"


class Mode(enum.Enum):
    """Whether updates use exact task risks or finite samples."""

    POPULATION = "POPULATION"
    FINITE = "FINITE"


class InitScheme(enum.Enum):
    """Initialization of the representation and head.

    - ``SPEC``: orthonormal columns scaled by ``1/sqrt(alpha)`` (so that
      ``alpha * B0^T B0 = I_k``) spanning a uniformly random subspace,
      with ``w0 = 0``.
    - ``RANDOM``: iid Gaussian entries rescaled so the spectral norm is
      ``1/sqrt(alpha)`` (matching the other schemes' normalization while
      leaving the columns non-orthogonal), ``w0 = 0``.
    - ``NEAR_TRUTH``: scaled-orthonormal representation whose distance to
      the ground-truth subspace is calibrated into a requested band.
    """

    SPEC = "SPEC"
    RANDOM = "RANDOM"
    NEAR_TRUTH = "NEAR_TRUTH"


@dataclass(frozen=True)
class ModelParams:
    """Representation ``rep`` (``d x k``) and head ``head`` (``k``)."""

    rep: np.ndarray
    head: np.ndarray

    def __post_init__(self) -> None:
        rep = np.asarray(self.rep, dtype=float)
        head = np.asarray(self.head, dtype=float)
        if rep.ndim != 2:
            raise ValueError(f"rep must be 2-D, got shape {rep.shape}")
        if head.shape != (rep.shape[1],):
            raise ValueError(f"head must have shape ({rep.shape[1]},), got {head.shape}")
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "head", head)


@dataclass(frozen=True)
class HyperParams:
    """Algorithm selection and step-size/sample-size settings.

    ``m_in``/``m_out`` are per-task sample counts for adaptation and for
    the outer update; they are required (positive) only in FINITE mode.
    ``n``, ``iters``, ``m_in`` and ``m_out`` are integers (numpy's included),
    never a bool or a float.
    """

    algo: Algorithm
    mode: Mode
    alpha: float
    beta: float
    n: int
    iters: int
    m_in: int = 0
    m_out: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "iters", "m_in", "m_out"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.iters < 0:
            raise ValueError(f"iters must be nonnegative, got {self.iters}")
        if self.mode is Mode.FINITE and (self.m_in < 1 or self.m_out < 1):
            raise ValueError(
                f"FINITE mode requires m_in >= 1 and m_out >= 1, got {self.m_in}, {self.m_out}"
            )


_BISECTION_MAX_ITERS = 60


def init_model(
    env: TaskEnvironment,
    alpha: float,
    scheme: InitScheme,
    rng: np.random.Generator,
    *,
    target_band: tuple[float, float] | None = None,
) -> ModelParams:
    """Initialize parameters under the chosen scheme (see ``InitScheme``).

    ``target_band`` is required for ``NEAR_TRUTH`` and gives the closed
    interval the initial subspace distance must land in; the calibration
    bisects a blend coefficient and raises ``ValueError`` if the band is
    not reached within 60 iterations.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    d, k = env.d, env.k
    scale = 1.0 / math.sqrt(alpha)
    head = np.zeros(k)
    if scheme is InitScheme.SPEC:
        basis, _ = qr_orthonormalize(standard_normal(rng, (d, k)))
        return ModelParams(rep=scale * basis, head=head)
    if scheme is InitScheme.RANDOM:
        gaussian = standard_normal(rng, (d, k))
        top = float(np.linalg.norm(gaussian, 2))
        return ModelParams(rep=(scale / top) * gaussian, head=head)

    # NEAR_TRUTH: blend the truth with a fixed Gaussian direction and
    # bisect the blend coefficient until the distance lands in the band.
    if target_band is None:
        raise ValueError("NEAR_TRUTH initialization requires target_band=(lo, hi)")
    lo, hi = float(target_band[0]), float(target_band[1])
    if not 0.0 < lo < hi < 1.0:
        raise ValueError(f"target_band must satisfy 0 < lo < hi < 1, got ({lo}, {hi})")
    direction = standard_normal(rng, (d, k))
    perp = orth_complement(env.ground_truth_rep)

    def dist_at(c: float) -> float:
        return principal_angle_dist(env.ground_truth_rep + c * direction, perp)

    def build(c: float) -> ModelParams:
        basis, _ = qr_orthonormalize(env.ground_truth_rep + c * direction)
        return ModelParams(rep=scale * basis, head=head)

    iterations = 0
    c_low, c_high = 0.0, 1.0
    while dist_at(c_high) < hi:
        c_low = c_high
        c_high *= 2.0
        iterations += 1
        if iterations >= _BISECTION_MAX_ITERS:
            raise ValueError(
                f"could not reach distance band [{lo}, {hi}] within "
                f"{_BISECTION_MAX_ITERS} bisection iterations"
            )
    while iterations < _BISECTION_MAX_ITERS:
        c_mid = 0.5 * (c_low + c_high)
        value = dist_at(c_mid)
        if value < lo:
            c_low = c_mid
        elif value > hi:
            c_high = c_mid
        else:
            return build(c_mid)
        iterations += 1
    raise ValueError(
        f"could not reach distance band [{lo}, {hi}] within "
        f"{_BISECTION_MAX_ITERS} bisection iterations"
    )


def population_task_loss(
    params: ModelParams, env: TaskEnvironment, head_true: np.ndarray
) -> float:
    """Expected risk on one task: ``0.5 ||B w - B* w*||^2 + 0.5 sigma^2``."""
    residual = params.rep @ params.head - env.ground_truth_rep @ np.asarray(head_true, float)
    return 0.5 * float(residual @ residual) + 0.5 * env.noise_std**2


def finite_task_loss(params: ModelParams, dataset: DataSet) -> float:
    """Empirical risk ``(1/2m) ||X B w - y||^2`` on one task's sample, from
    its statistics: ``0.5 (y^T y/m - 2 b^T beta + beta^T S beta)`` with
    ``beta = B w``, ``S = X^T X / m`` and ``b = X^T y / m``."""
    beta = params.rep @ params.head
    return 0.5 * float(dataset.yty - 2.0 * dataset.xty @ beta + beta @ (dataset.cov @ beta))


def pop_grad_w(params: ModelParams, env: TaskEnvironment, head_true: np.ndarray) -> np.ndarray:
    """Head gradient of the population task loss: ``B^T (B w - B* w*)``."""
    residual = params.rep @ params.head - env.ground_truth_rep @ np.asarray(head_true, float)
    return params.rep.T @ residual


def pop_grad_B(params: ModelParams, env: TaskEnvironment, head_true: np.ndarray) -> np.ndarray:
    """Representation gradient of the population task loss: ``(B w - B* w*) w^T``."""
    residual = params.rep @ params.head - env.ground_truth_rep @ np.asarray(head_true, float)
    return np.outer(residual, params.head)


def fs_grad_w(params: ModelParams, dataset: DataSet) -> np.ndarray:
    """Head gradient of the empirical task loss: ``B^T (S B w - b)``."""
    return params.rep.T @ dataset.residual(params.rep @ params.head)


def fs_grad_B(params: ModelParams, dataset: DataSet) -> np.ndarray:
    """Representation gradient of the empirical task loss: ``(S B w - b) w^T``."""
    return np.outer(dataset.residual(params.rep @ params.head), params.head)


def rate_matched_alpha(k: int, l_star: float, iters: int, constant: float = 0.25) -> float:
    """Inner step size scaling as ``C * k^(-2/3) / (L* * T^(1/4))``.

    Matches the horizon-coupled step-size schedule under which the
    full-adaptation variants admit convergence guarantees; ``l_star`` is
    the largest head second-moment scale and ``iters`` the horizon ``T``.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0.0 < l_star < math.inf:
        raise ValueError(f"l_star must be positive and finite, got {l_star}")
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    if not 0.0 < constant < math.inf:
        raise ValueError(f"constant must be positive and finite, got {constant}")
    return constant * k ** (-2.0 / 3.0) / (l_star * iters**0.25)
