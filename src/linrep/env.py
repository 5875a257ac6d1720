"""Task environments and data generation for multi-task linear regression.

A task environment fixes a ground-truth subspace: labels are generated as
``y = <B* w*, x> + z`` with isotropic Gaussian inputs ``x``, a shared
column-orthonormal representation ``B*``, per-task heads ``w*`` drawn from
a Gaussian, and independent Gaussian label noise ``z``.

Finite samples are kept as their sufficient statistics: every empirical
loss and gradient of the package reads a task's ``(X, y)`` only through
``X^T X / m``, ``X^T y / m`` and ``y^T y / m``.  ``sample_dataset`` draws
these directly, in ``O(d^2)`` work whatever ``m`` is, from the Bartlett
decomposition of the Wishart matrix ``X^T X`` (Smith and Hocking 1972,
algorithm AS 53), in its singular form when ``m < d`` (Srivastava 2003,
Ann. Statist. 31(5)); raw inputs are never formed.  A finite-sample run
draws only ``O(d)`` variates per task and side: the first Bartlett columns
of ``X~^T X~`` for ``X~ = [X, z]`` (``_Sketch``), one per read its
algorithm's kernel makes of the side, which a step reveals along the
directions it reads.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator
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

    def times(self, vecs: np.ndarray) -> np.ndarray:
        """``S v``, shaped as ``residual``'s result."""
        return (self.cov @ vecs[..., None])[..., 0]

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


class _Sketch:
    """A side of a finite-sample run's round: per task, the randomness of the
    first ``J`` Bartlett columns of ``W = X~^T X~ ~ Wishart_{d+1}(m, I)``,
    roots ``sqrt(chi2(max(m - r, 0)))`` (``n x J``) and normals (``n x J x
    (d + 1)``, zero for ``r >= m``), with the targets ``B* w*_i`` and the
    noise level ``sigma``, revealed along the directions a step reads.  ``J``
    is the number of reads the run's kernel makes of the side, so a step
    reveals every column drawn.

    ``S beta - b`` is ``(1/m) [W u]_{:d}`` for ``u = (beta - B* w*_i;
    -sigma)``, ``S v`` for ``u = (v; 0)``; ``residual`` starts a reveal and
    ``times`` continues it.  Reveal ``t`` projects ``u`` off the basis
    ``q_0..q_{t-1}`` (twice, for nearly dependent directions) into ``q_t``
    (a ``u`` in the basis, 0 included, takes the axis farthest from it),
    forms the column ``l_t = sqrt(chi2) q_t + P(q_0..q_t)^perp g_t`` and
    returns ``(1/m) sum_{r <= t} l_r (l_r . u)``: the Bartlett factor of
    ``W`` in a basis that starts with the directions asked for, exact in law
    even for directions that depend on earlier results, since given its
    first columns the rest of ``W`` is again Wishart and rotation
    invariant.

    The first reveal is closed form.  With ``r = beta - B* w*_i``, ``|u|^2 =
    r . r + sigma^2``, ``q_0 = u / |u|`` and ``q_0 . g_0 = (r . g_0[:d] -
    sigma g_0[d]) / |u|``, the column is ``l_0 = g_0 + q_0 (root - q_0 .
    g_0)`` and ``l_0 . u = root |u|``, so ``residual`` returns ``(root / m)
    (|u| g_0[:d] + (root - q_0 . g_0) r)`` without forming ``u``, ``q_0`` or
    ``l_0``; the first ``times`` forms them from its intermediates.
    """

    __slots__ = ("roots", "normals", "m", "sigma", "targets", "first", "basis", "cols", "calls")

    def __init__(self, roots: np.ndarray, normals: np.ndarray, m: int, sigma: float,
                 targets: np.ndarray) -> None:
        self.roots, self.normals, self.m = roots, normals, m
        self.sigma, self.targets = sigma, targets

    @property
    def n(self) -> int:
        return len(self.roots)

    def residual(self, beta: np.ndarray) -> np.ndarray:
        """Rows ``S_i beta_i - b_i``, the first reveal of a step."""
        r = beta - self.targets
        g, root, sigma = self.normals[:, 0], self.roots[:, 0], self.sigma
        sigma_sq = sigma * sigma
        length = np.sqrt(np.vecdot(r, r) + sigma_sq)  # |u|
        dots = np.vecdot(r, g[:, :-1]) - sigma * g[:, -1]  # u . g_0
        # q_0 = (q_r; -sigma) / q_len.  Only a noiseless side can read u = 0:
        # it reads exactly 0, and its q_0 is the axis e_0 (q_r = e_0, q_len = 1).
        q_r, q_len = r, length
        if not sigma_sq and np.count_nonzero(length) < len(length):
            zero = length == 0.0
            q_r = np.where(zero[:, None], np.eye(1, r.shape[1]), r)
            q_len, dots = np.where(zero, 1.0, length), np.where(zero, g[:, 0], dots)
        qg = dots / q_len
        self.first, self.calls = (q_r, q_len, qg), 1
        return (root / self.m)[:, None] * (length[:, None] * g[:, :-1] + (root - qg)[:, None] * r)

    def times(self, vecs: np.ndarray) -> np.ndarray:
        """Rows ``S_i v_i``, a later reveal of the step."""
        if self.calls == 1:
            self._first_column()
        return self._reveal(vecs)

    def _first_column(self) -> None:
        """``q_0`` and ``l_0``, the first rows of the basis and columns, from
        the intermediates ``(q_r, q_len, q_0 . g_0)`` of ``residual``."""
        q_r, q_len, qg = self.first
        self.basis, self.cols = np.empty(self.normals.shape), np.empty(self.normals.shape)
        q = self.basis[:, 0]
        q[:, :-1], q[:, -1] = q_r, -self.sigma
        q /= q_len[:, None]
        self.cols[:, 0] = self.normals[:, 0] + q * (self.roots[:, 0] - qg)[:, None]

    def _reveal(self, vecs: np.ndarray) -> np.ndarray:
        t, basis = self.calls, self.basis[:, :self.calls]
        u = np.zeros((len(self.roots), self.basis.shape[-1]))
        u[:, :-1] = vecs
        rest = u - _project(basis, u)
        rest -= _project(basis, rest)
        norms = np.sqrt(np.vecdot(rest, rest))
        if np.count_nonzero(norms) < len(norms):
            zero, known = norms == 0.0, basis[norms == 0.0]
            fill = np.eye(u.shape[1])[np.einsum("nrd,nrd->nd", known, known).argmin(axis=1)]
            fill -= _project(known, fill)  # leaves a norm of at least sqrt(1/3)
            rest[zero], norms[zero] = fill, np.sqrt(np.vecdot(fill, fill))
        q = rest / norms[:, None]
        g, root = self.normals[:, t], self.roots[:, t]
        self.basis[:, t], self.calls = q, t + 1
        self.cols[:, t] = root[:, None] * q + (g - _project(self.basis[:, :t + 1], g))
        return _project(self.cols[:, :t + 1], u)[:, :-1] / self.m


def _project(rows: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Rows ``sum_r a_r (a_r . v_i)`` for ``n`` stacked ``t x D`` row arrays."""
    return np.vecmat(np.matvec(rows, vecs), rows)


@dataclass(frozen=True)
class TaskBatch:
    """The tasks of one outer round: heads plus optional finite samples.

    ``inner_sets``/``outer_sets`` are stacked data sets (a run's ``_Sketch``
    each), one task per entry of the leading axis, used by finite-sample
    algorithms for adaptation and for the outer update respectively;
    population-mode batches carry heads only.  A round of a block also
    carries its checked task statistics (``_stats``, see ``diversity_stats``),
    which take no part in equality or ``repr``; ``dataclasses.replace`` drops
    them.
    """

    heads: np.ndarray
    inner_sets: DataSet | _Sketch | None = None
    outer_sets: DataSet | _Sketch | None = None
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


# Floats a block of rounds may hold: a finite-sample block the ``n (J_in +
# J_out) (d + 2)`` sketch floats of each round, up to ``_BLOCK_FLOATS``; a
# population block its rounds' ``n k`` heads, up to ``_HEAD_BLOCK_FLOATS``,
# sized by the heads alone.  Drawing, validating and reducing a block of
# heads briefly takes several times their size, so the population budget is
# the smaller: at n = k = 3, blocks of 2^10 head floats keep the peak memory
# of five 10^4-step runs within noise of blocks of 13 rounds.  Not settings:
# a finite-sample block size must depend only on the run's dimensions and
# algorithm for artifacts to stay byte-identical across hosts.
_BLOCK_FLOATS = 2**14
_HEAD_BLOCK_FLOATS = 2**10


def _rounds(env: TaskEnvironment, n: int, total: int, rng: np.random.Generator,
            samples: tuple[int, int] | None, data_rng: np.random.Generator | None = None,
            columns: tuple[int, int] | None = None) -> Iterator[TaskBatch]:
    """The next ``total`` rounds of ``n`` tasks, heads drawn from ``rng``,
    with ``(m_in, m_out)`` inner and outer sketches of ``columns = (J_in,
    J_out)`` Bartlett columns drawn from ``data_rng`` given ``samples`` (both
    required then), heads only given None.

    The rounds are drawn in blocks of ``R`` (see ``_BLOCK_FLOATS``), the last
    one trimmed: a block draws its heads in one call (``_round_heads``) and
    ``_block_rounds`` builds its rounds.  Every algorithm consumes the heads
    stream alike, and the data stream as its columns ask.  Heads have the
    same bits in any block, so a population run's bytes do not depend on
    ``R``, and a finite-sample run with a data stream of its own steps on the
    population run's heads; its data depend on ``R``, which depends only on
    ``(n, d)`` and the columns.
    """
    if samples is not None and (data_rng is None or columns is None):
        raise ValueError("finite-sample rounds need a data stream of their own and their "
                         "sketch columns")
    if samples is None:
        size = max(1, _HEAD_BLOCK_FLOATS // (n * env.k))
    else:
        size = max(1, _BLOCK_FLOATS // (n * sum(columns) * (env.d + 2)))
    for start in range(0, total, size):
        heads = _round_heads(env, min(size, total - start), n, rng)
        yield from _block_rounds(env, heads, data_rng, samples, columns)


def _block_rounds(env: TaskEnvironment, heads: np.ndarray, rng: np.random.Generator | None,
                  samples: tuple[int, int] | None,
                  columns: tuple[int, int] | None = None) -> list[TaskBatch]:
    """The rounds of a block of ``(R, n, k)`` heads, each with its task
    statistics and, given ``samples`` and ``columns`` (see ``_rounds``), its
    sketches.

    The block is validated once, as one batch; the statistics of all its
    rounds are computed and checked in one stacked pass before anything else
    is drawn; a finite-sample block then draws from ``rng`` the roots of its
    ``R n`` tasks' sketch columns (the inner ones, then the outer) in one
    call, then their normals in one, round ``r`` taking rows ``r n : (r + 1)
    n`` and its targets ``B* w*_i``, formed from its own heads.
    """
    count, n, k = heads.shape
    tasks = TaskBatch(heads.reshape(count * n, k)).heads
    heads = tasks.reshape(count, n, k)
    stats = _head_statistics(heads)
    _check_statistics(stats)
    if samples is None:
        sides = [[None] * count] * 2
    else:
        j = columns[0]
        rank = np.concatenate([np.arange(side) for side in columns])
        sizes = np.repeat(samples, columns)
        roots = np.sqrt(chi_square(rng, np.broadcast_to(np.maximum(sizes - rank, 0),
                                                        (count * n, len(rank)))))
        normals = standard_normal(rng, (count * n, len(rank), env.d + 1))
        normals[:, rank >= sizes] = 0.0  # the factor has rank m
        targets = [heads_r.dot(env.ground_truth_rep.T) for heads_r in heads]
        sides = [[_Sketch(roots[r * n:(r + 1) * n, cols], normals[r * n:(r + 1) * n, cols], m,
                          env.noise_std, targets[r]) for r in range(count)]
                 for cols, m in ((slice(0, j), samples[0]), (slice(j, None), samples[1]))]
    return [
        _trusted(TaskBatch, heads=heads_r, inner_sets=inner_r, outer_sets=outer_r,
                 _stats=_trusted(DiversityStats, mu_sq=mu_sq, L_sq=L_sq, eta=eta, L_max=L_max))
        for heads_r, inner_r, outer_r, (mu_sq, L_sq, eta, L_max)
        in zip(heads, *sides, stats.tolist())
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
        # Statistics given directly may overflow the chain's products, which
        # the check refuses without a warning; a block's cannot.
        with np.errstate(over="ignore", invalid="ignore"):
            _check_statistics(np.array([[self.mu_sq, self.L_sq, self.eta, self.L_max]]))


def _check_statistics(stats: np.ndarray) -> None:
    """Check the invariants of ``DiversityStats`` on every row of ``stats``
    (``R x 4``, rows of ``[mu_sq, L_sq, eta, L_max]``) at once: the chain
    ``0 <= mu_sq <= L_sq``, ``L_sq <= L_max^2``, ``eta^2 <= L_sq``, each to
    within ``1e-9 max(1, L_max^2)``, every field finite, ``eta, L_max >= 0``
    and ``L_max^2`` finite with that slop added (a larger ``L_max`` would
    make the slop infinite and the chain vacuous).  Only when the verdict on
    all rows fails is the first breaking row named, by a ``ValueError``
    naming the first of these it breaks.
    """
    mu_sq, L_sq, eta, L_max = stats.T
    L_max_sq = L_max * L_max
    slop = 1e-9 * np.fmax(1.0, L_max_sq)
    top = L_sq + slop
    bound = L_max_sq + slop
    # ``maximum``/``minimum`` carry a NaN into the verdict, and a row whose
    # verdict holds with a finite ``bound`` has every field finite: an
    # infinite field other than ``L_max`` breaks a link of the chain.
    holds = np.maximum(mu_sq, eta * eta) <= top
    holds &= L_sq <= bound
    holds &= np.minimum(mu_sq, np.minimum(eta, L_max)) >= 0.0
    if holds.all() and np.isfinite(bound).all():
        return
    mu_sq, L_sq, eta, L_max = row = stats[np.argmin(holds & np.isfinite(bound))].tolist()
    L_max_sq, eta_sq = L_max * L_max, eta * eta
    slop = 1e-9 * max(1.0, L_max_sq)  # a NaN L_max leaves the slop at 1e-9
    # A NaN passes the last two links of the chain, to be named as a field.
    broken = (
        ("0 <= mu_sq <= L_sq", 0.0 <= mu_sq <= L_sq + slop, (mu_sq, L_sq)),
        ("L_sq <= L_max^2", not L_sq > L_max_sq + slop, (L_sq, L_max_sq)),
        ("eta^2 <= L_sq", not eta_sq > L_sq + slop, (eta_sq, L_sq)),
        *((f"{name} finite", math.isfinite(value), (value,))
          for name, value in zip(("mu_sq", "L_sq", "eta", "L_max"), row)),
        ("eta >= 0", eta >= 0.0, (eta,)),
        ("L_max >= 0", L_max >= 0.0, (L_max,)),
        ("L_max^2 finite", math.isfinite(L_max_sq + slop), (L_max,)),
    )
    name, _, values = next(link for link in broken if not link[1])
    raise ValueError(f"require {name}, got {', '.join(map(str, values))}")


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
    ``z ~ N(0, I_m)``; the result stacks the ``n = len(heads)`` sets.

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
    sampler's rejection retries depend on ``m``.  The chi-squares' dof grid
    is one C-contiguous ``n x (d + 1)`` array, and the factor is filled as
    flat ``n x d^2`` rows through the cached flat indices of the strict lower
    triangle and of the diagonal (``_factor_indices``).  Non-finite heads
    raise ``ValueError`` naming the heads before anything is drawn.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be a positive integer sample count, got m={m!r}")
    heads = np.asarray(heads, dtype=float)
    if heads.ndim != 2 or heads.shape[1] != env.k:
        raise ValueError(f"heads must have shape (n, {env.k}), got {heads.shape}")
    if not np.isfinite(heads).all():
        raise ValueError("heads must be finite")
    n, d, sigma = heads.shape[0], env.d, env.noise_std
    betas = heads @ env.ground_truth_rep.T  # row i is B* w*_i
    dof = np.empty((n, d + 1))
    dof[:] = np.maximum(m - np.arange(d + 1), 0)
    chi2 = chi_square(rng, dof)
    below = d * (d - 1) // 2
    normals = standard_normal(rng, (n, below + d))
    lower, diagonal = _factor_indices(d)
    flat = np.zeros((n, d * d))
    flat[:, lower] = normals[:, :below]
    factor = flat.reshape(n, d, d)
    factor[:, :, m:] = 0.0  # rank m when m < d
    flat[:, diagonal] = np.sqrt(chi2[:, :d])
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


@functools.lru_cache(maxsize=None)
def _factor_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a C-ordered ``d x d`` matrix of its strict lower
    triangle, row after row, and of its diagonal."""
    rows, cols = np.tril_indices(d, -1)
    return rows * d + cols, np.arange(d) * (d + 1)


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
    if not (np.isfinite(second).all() and np.isfinite(eta_sq).all()
            and np.isfinite(row_sq).all()):
        raise ValueError("task heads too large: their second moment overflows float64")
    eigenvalues = np.linalg.eigvalsh(second)
    low = eigenvalues[:, 0]
    stats = np.empty((heads.shape[0], 4))
    stats[:, 0] = np.where(low < 0.0, 0.0, low)
    stats[:, 1] = eigenvalues[:, -1]
    np.sqrt(eta_sq, out=stats[:, 2])
    np.sqrt(row_sq, out=stats[:, 3])
    return stats
