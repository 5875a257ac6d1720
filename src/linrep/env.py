"""Task environments and data generation for multi-task linear regression.

A task environment fixes a ground-truth subspace: labels are generated as
``y = <B* w*, x> + z`` with isotropic Gaussian inputs ``x``, a shared
column-orthonormal representation ``B*``, per-task heads ``w*`` drawn from
a Gaussian, and independent Gaussian label noise ``z``.

Finite samples are kept as their sufficient statistics: every empirical
loss and gradient of the package reads a task's ``(X, y)`` only through
``X^T X / m``, ``X^T y / m`` and ``y^T y / m``.  The sampler draws these
directly, in ``O(d^2)`` work whatever ``m`` is, from the Bartlett
decomposition of the Wishart matrix ``X^T X`` (Smith and Hocking 1972,
algorithm AS 53), in its singular form when ``m < d`` (Srivastava 2003,
Ann. Statist. 31(5)); raw inputs are never formed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import qr_orthonormalize
from .rng import chi_square, standard_normal

__all__ = [
    "DataSet",
    "DiversityStats",
    "TaskBatch",
    "TaskEnvironment",
    "diversity_stats",
    "sample_dataset",
    "sample_environment",
    "sample_task_batch",
]

_ORTHONORMAL_TOL = 1e-12


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, without ``__post_init__``: for values that are known to pass its
    checks, such as rows of a validated block or an update of validated
    parameters."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


@dataclass(frozen=True)
class TaskEnvironment:
    """Ground-truth description of a task distribution.

    Attributes
    ----------
    d:
        Ambient input dimension.
    k:
        Dimension of the shared subspace (``1 <= k < d``).
    ground_truth_rep:
        ``d x k`` matrix with orthonormal columns spanning the true subspace.
    head_mean:
        Mean of the per-task head distribution, shape ``(k,)``.
    head_scale:
        Standard deviation of each head coordinate.
    noise_std:
        Standard deviation of the label noise.
    """

    d: int
    k: int
    ground_truth_rep: np.ndarray
    head_mean: np.ndarray
    head_scale: float
    noise_std: float

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.d:
            raise ValueError(f"require 1 <= k < d, got k={self.k}, d={self.d}")
        rep = np.asarray(self.ground_truth_rep, dtype=float)
        if rep.shape != (self.d, self.k):
            raise ValueError(f"ground_truth_rep must have shape ({self.d}, {self.k})")
        if not np.isfinite(rep).all():
            raise ValueError("ground_truth_rep must be finite")
        gram_error = np.abs(rep.T @ rep - np.eye(self.k)).max()
        if not gram_error <= _ORTHONORMAL_TOL:
            raise ValueError(
                f"ground_truth_rep columns must be orthonormal (max Gram deviation {gram_error:.3e})"
            )
        mean = np.asarray(self.head_mean, dtype=float)
        if mean.shape != (self.k,) or not np.isfinite(mean).all():
            raise ValueError(f"head_mean must be finite with shape ({self.k},), got {mean}")
        for name, value in (("head_scale", self.head_scale), ("noise_std", self.noise_std)):
            if not 0.0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        object.__setattr__(self, "ground_truth_rep", rep)
        object.__setattr__(self, "head_mean", mean)


@dataclass(frozen=True)
class DataSet:
    """Sufficient statistics of ``m`` labeled samples ``(X, y)`` per task.

    ``cov = X^T X / m`` (``d x d``), ``xty = X^T y / m`` (``d``) and
    ``yty = y^T y / m`` (scalar), each with an optional leading task axis:
    ``(n, d, d)``, ``(n, d)`` and ``(n,)`` for ``n >= 1`` stacked sets, all of
    which share ``m``.  ``ds[i]`` is task ``i``'s set and ``ds[a:b]`` the
    stacked sets of tasks ``a`` to ``b - 1``.
    """

    cov: np.ndarray
    xty: np.ndarray
    yty: np.ndarray
    m: int

    def __post_init__(self) -> None:
        cov = np.asarray(self.cov, dtype=float)
        xty = np.asarray(self.xty, dtype=float)
        yty = np.asarray(self.yty, dtype=float)
        if cov.ndim not in (2, 3) or cov.shape[-1] != cov.shape[-2]:
            raise ValueError(f"cov must be (d, d) or (n, d, d), got shape {cov.shape}")
        if cov.ndim == 3 and cov.shape[0] < 1:
            raise ValueError("a stacked DataSet needs at least one task")
        if xty.shape != cov.shape[:-1]:
            raise ValueError(f"xty must have shape {cov.shape[:-1]}, got {xty.shape}")
        if yty.shape != cov.shape[:-2]:
            raise ValueError(f"yty must have shape {cov.shape[:-2]}, got {yty.shape}")
        for name, value in (("cov", cov), ("xty", xty), ("yty", yty)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if isinstance(self.m, bool) or int(self.m) != self.m or self.m < 1:
            raise ValueError(f"need at least one sample, got m={self.m}")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "xty", xty)
        object.__setattr__(self, "yty", yty)
        object.__setattr__(self, "m", int(self.m))

    @classmethod
    def from_samples(cls, inputs: np.ndarray, labels: np.ndarray) -> DataSet:
        """Reduce raw samples, ``(m, d)``/``(m,)`` or stacked
        ``(n, m, d)``/``(n, m)``, to their statistics."""
        inputs = np.asarray(inputs, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if inputs.ndim not in (2, 3):
            raise ValueError(f"inputs must be (m, d) or (n, m, d), got shape {inputs.shape}")
        if labels.shape != inputs.shape[:-1]:
            raise ValueError(f"labels must have shape {inputs.shape[:-1]}, got {labels.shape}")
        m = inputs.shape[-2]
        if m < 1:
            raise ValueError("need at least one sample, got m=0")
        return cls(
            cov=np.swapaxes(inputs, -1, -2) @ inputs / m,
            xty=np.einsum("...md,...m->...d", inputs, labels) / m,
            yty=np.einsum("...m,...m->...", labels, labels) / m,
            m=m,
        )

    def residual(self, beta: np.ndarray) -> np.ndarray:
        """``S beta - b = (1/m) X^T (X beta - y)``, the gradient of the
        empirical loss in the predictor ``beta``; a stacked set takes a shared
        ``beta`` (``d``) or one per task (``n x d``) and returns ``n x d``."""
        return (self.cov @ beta[..., None])[..., 0] - self.xty

    @property
    def n(self) -> int | None:
        """Number of stacked tasks, or None for a single task's set."""
        return self.cov.shape[0] if self.cov.ndim == 3 else None

    def __getitem__(self, i: int | slice) -> DataSet:
        if self.cov.ndim != 3:
            raise TypeError("only a stacked DataSet can be indexed by task")
        cov = self.cov[i]
        if cov.ndim == 3 and cov.shape[0] < 1:
            raise ValueError("a stacked DataSet needs at least one task")
        # Rows of a validated stack are valid.
        return _trusted(DataSet, cov=cov, xty=self.xty[i], yty=self.yty[i, ...], m=self.m)


@dataclass(frozen=True)
class TaskBatch:
    """The tasks of one outer round: heads plus optional finite samples.

    ``inner_sets``/``outer_sets`` are stacked data sets, one task per entry
    of the leading axis, used by finite-sample algorithms for adaptation and
    for the outer update respectively; population-mode batches carry heads
    only.  A round of a sampled block also carries its task statistics, which
    ``_block_rounds`` computed and checked with the block's (``_stats``, see
    ``diversity_stats``); they take no part in equality or ``repr``, and
    ``dataclasses.replace`` drops them.
    """

    heads: np.ndarray
    inner_sets: DataSet | None = None
    outer_sets: DataSet | None = None
    _stats: DiversityStats | None = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        heads = np.asarray(self.heads, dtype=float)
        if heads.ndim != 2 or heads.shape[0] < 1:
            raise ValueError(f"heads must be (n, k) with n >= 1, got shape {heads.shape}")
        if not np.isfinite(heads).all():
            raise ValueError("heads must be finite")
        for name in ("inner_sets", "outer_sets"):
            sets = getattr(self, name)
            if sets is not None and sets.n != heads.shape[0]:
                raise ValueError(f"{name} must stack one data set per task")
        object.__setattr__(self, "heads", heads)

    @property
    def n(self) -> int:
        """Number of tasks in the round."""
        return self.heads.shape[0]


def _block_rounds(
    heads: np.ndarray, inner_sets: DataSet | None = None, outer_sets: DataSet | None = None
) -> list[TaskBatch]:
    """The rounds of a sampled block, each carrying its task statistics.

    ``heads`` is ``(R, n, k)``; the data sets, if any, stack the block's
    ``R n`` tasks round after round.  Round ``r`` holds ``heads[r]``, rows
    ``r n : (r + 1) n`` of each set and its task statistics.  This call
    validates the block once, as one batch of ``R n`` tasks, and computes and
    checks the statistics of all its rounds in one stacked pass, so a broken
    block raises here; one loop over those rows builds the rounds, which skip
    ``TaskBatch.__post_init__``.
    """
    count, n, k = heads.shape
    whole = TaskBatch(heads.reshape(count * n, k), inner_sets, outer_sets)
    heads = whole.heads.reshape(count, n, k)
    stats = _head_statistics(heads)
    _check_statistics(stats)
    # Each side's rows per round; None in every round of a population block.
    sides = [[None] * count if sets is None else [sets[r * n:(r + 1) * n] for r in range(count)]
             for sets in (inner_sets, outer_sets)]
    return [
        _trusted(TaskBatch, heads=heads_r, inner_sets=inner, outer_sets=outer,
                 _stats=_trusted(DiversityStats, mu_sq=mu_sq, L_sq=L_sq, eta=eta, L_max=L_max))
        for heads_r, inner, outer, (mu_sq, L_sq, eta, L_max) in zip(heads, *sides, stats.tolist())
    ]


@dataclass(frozen=True)
class DiversityStats:
    """Spectral statistics of a batch's head second moment.

    ``mu_sq``/``L_sq`` are the extreme eigenvalues of ``(1/n) sum w w^T``,
    ``eta`` the norm of the mean head, ``L_max`` the largest head norm.
    """

    mu_sq: float
    L_sq: float
    eta: float
    L_max: float

    def __post_init__(self) -> None:
        _check_statistics(np.array([[self.mu_sq, self.L_sq, self.eta, self.L_max]]))


def _check_statistics(stats: np.ndarray) -> None:
    """Check the invariant chain of ``DiversityStats`` on every row of
    ``stats`` (``R x 4``, rows of ``[mu_sq, L_sq, eta, L_max]``) at once:
    ``0 <= mu_sq <= L_sq``, ``L_sq <= L_max^2`` and ``eta^2 <= L_sq``, each to
    within ``1e-9 max(1, L_max^2)``.  Raises ``ValueError`` naming the first
    invariant that the first breaking row breaks.
    """
    mu_sq, L_sq, eta, L_max = stats.T
    L_max_sq, eta_sq = L_max**2, eta**2
    slop = 1e-9 * np.fmax(1.0, L_max_sq)  # a NaN L_max leaves the slop at 1e-9
    chain = (
        ("0 <= mu_sq <= L_sq", (0.0 <= mu_sq) & (mu_sq <= L_sq + slop), mu_sq, L_sq),
        ("L_sq <= L_max^2", ~(L_sq > L_max_sq + slop), L_sq, L_max_sq),
        ("eta^2 <= L_sq", ~(eta_sq > L_sq + slop), eta_sq, L_sq),
    )
    holds = chain[0][1] & chain[1][1] & chain[2][1]
    if holds.all():
        return
    row = int(np.argmin(holds))
    for name, link, left, right in chain:
        if not link[row]:
            raise ValueError(f"require {name}, got {float(left[row])}, {float(right[row])}")


def sample_environment(
    d: int,
    k: int,
    head_mean: float | np.ndarray,
    head_scale: float,
    noise_std: float,
    rng: np.random.Generator,
) -> TaskEnvironment:
    """Draw a ground-truth subspace and package the task distribution.

    The representation is the orthonormalized factor of a ``d x k``
    standard Gaussian matrix (a uniformly random subspace). ``head_mean``
    may be a scalar (broadcast to all ``k`` coordinates) or a vector.
    """
    if not 1 <= k < d:
        raise ValueError(f"require 1 <= k < d, got k={k}, d={d}")
    gaussian = standard_normal(rng, (d, k))
    rep, _ = qr_orthonormalize(gaussian)
    mean = np.broadcast_to(np.asarray(head_mean, dtype=float), (k,)).copy()
    return TaskEnvironment(
        d=d,
        k=k,
        ground_truth_rep=rep,
        head_mean=mean,
        head_scale=float(head_scale),
        noise_std=float(noise_std),
    )


def sample_task_batch(env: TaskEnvironment, n: int, rng: np.random.Generator) -> TaskBatch:
    """Draw ``n`` task heads ``w* ~ N(head_mean, head_scale^2 I_k)``."""
    return TaskBatch(heads=_round_heads(env, 1, n, rng)[0])


def _round_heads(
    env: TaskEnvironment, rounds: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """The ``(rounds, n, k)`` task heads of ``rounds`` successive rounds of
    ``n`` tasks, drawn with one ``standard_normal`` call: bitwise the heads of
    ``rounds`` calls of ``sample_task_batch`` made in turn."""
    if n < 1:
        raise ValueError(f"need at least one task per batch, got n={n}")
    normals = standard_normal(rng, (rounds, n, env.k), rows=rounds)
    return env.head_mean + env.head_scale * normals


def sample_dataset(
    env: TaskEnvironment, heads: np.ndarray, m: int, rng: np.random.Generator
) -> DataSet:
    """Draw ``m`` labeled samples for each task of a round, as statistics.

    Task ``i`` has inputs ``X ~ N(0, I_d)`` (``m x d``) and labels
    ``y = X beta_i + sigma z`` with ``beta_i = B* heads[i]`` and
    ``z ~ N(0, I_m)``; the result stacks the ``n = len(heads)`` sets.  The
    heads may span several rounds: ``run_trajectory`` passes a block of
    rounds' heads stacked round after round and gives round ``r`` the rows
    ``r n : (r + 1) n``, so one call draws one side of the whole block.

    The statistics are drawn exactly without forming ``X``.  With
    ``X^T = L Q^T`` (``Q`` an ``m x min(m, d)`` Haar frame, independent of
    ``L``), ``L`` is the lower-triangular Bartlett factor of ``W = X^T X``:
    ``L_jj`` is ``sqrt(chi2(max(m - j, 0)))`` for ``j = 0..d-1``, the entries
    below the diagonal are ``N(0, 1)``, and when ``m < d`` the columns
    ``m..d-1`` are zero, so ``W`` has rank ``min(m, d)``.  Then ``X^T z = L g``
    with ``g ~ N(0, I_d)`` (of which ``L`` reads the first ``min(m, d)``
    entries) and ``||z||^2 = ||g[:m]||^2 + chi2(max(m - d, 0))``, all
    independent.  The stream is consumed by two calls: ``n x (d + 1)``
    chi-squares (per task the ``d`` diagonal ones, then the remainder; a
    zero-dof one is exactly 0 and draws nothing), then ``n x (d(d-1)/2 + d)``
    normals (per task the below-diagonal entries in row-major order, then
    ``g``), drawn whatever ``m`` and ``noise_std`` are; only the chi-square
    sampler's rejection retries depend on ``m``.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be a positive integer sample count, got m={m!r}")
    heads = np.asarray(heads, dtype=float)
    if heads.ndim != 2 or heads.shape[1] != env.k:
        raise ValueError(f"heads must have shape (n, {env.k}), got {heads.shape}")
    n, d, sigma = heads.shape[0], env.d, env.noise_std
    betas = heads @ env.ground_truth_rep.T  # row i is B* w*_i
    chi2 = chi_square(rng, np.broadcast_to(np.maximum(m - np.arange(d + 1), 0), (n, d + 1)))
    below = d * (d - 1) // 2
    normals = standard_normal(rng, (n, below + d))
    factor = np.zeros((n, d, d))
    factor[:, np.tri(d, k=-1, dtype=bool)] = normals[:, :below]  # row-major
    factor[:, :, m:] = 0.0  # rank m when m < d
    diagonal = np.arange(d)
    factor[:, diagonal, diagonal] = np.sqrt(chi2[:, :d])
    g = normals[:, below:]
    z_sq = np.einsum("nd,nd->n", g[:, :m], g[:, :m]) + chi2[:, d]

    wishart = factor @ np.swapaxes(factor, 1, 2)
    w_beta = np.einsum("nij,nj->ni", wishart, betas)
    l_g = np.einsum("nij,nj->ni", factor, g)
    return DataSet(
        cov=wishart / m,
        xty=(w_beta + sigma * l_g) / m,
        yty=(
            np.einsum("nd,nd->n", betas, w_beta)
            + 2.0 * sigma * np.einsum("nd,nd->n", betas, l_g)
            + sigma**2 * z_sq
        ) / m,
        m=m,
    )


def diversity_stats(batch: TaskBatch) -> DiversityStats:
    """Spectral statistics of the batch's ground-truth heads.

    A round of a sampled block returns the statistics it was built with (see
    ``_block_rounds``); any other batch is computed and checked as a block of
    one round, with the same bits.
    """
    if batch._stats is not None:
        return batch._stats
    return DiversityStats(*_head_statistics(batch.heads[None])[0].tolist())


def _head_statistics(heads: np.ndarray) -> np.ndarray:
    """The ``R x 4`` rows ``[mu_sq, L_sq, eta, L_max]`` of each round of
    ``(R, n, k)`` heads, ``mu_sq`` clipped at 0.

    Every reduction is the one a round on its own makes (matmul's dot product
    for the mean head's squared norm, where an einsum rounds apart), and a
    stacked LAPACK call factors its matrices one by one, so a round's row has
    the same bits whatever the block around it.  Finite heads whose squares
    overflow raise ``ValueError`` naming the heads.
    """
    n = heads.shape[-2]
    with np.errstate(over="ignore", invalid="ignore"):
        second = np.swapaxes(heads, -1, -2) @ heads / n
        mean = heads.sum(axis=-2) / n
        eta_sq = (mean[:, None, :] @ mean[:, :, None])[:, 0, 0]
        row_sq = np.einsum("rnk,rnk->rn", heads, heads).max(axis=-1)
    if not all(np.isfinite(part).all() for part in (second, eta_sq, row_sq)):
        raise ValueError("task heads too large: their second moment overflows float64")
    eigenvalues = np.linalg.eigvalsh(second)
    low, high = eigenvalues[:, 0], eigenvalues[:, -1]
    return np.stack([np.where(low < 0.0, 0.0, low), high, np.sqrt(eta_sq), np.sqrt(row_sq)], axis=1)
