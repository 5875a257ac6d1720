"""Deterministic random-number utilities.

All randomness in the package flows through named substreams of a single
master seed. A substream is identified by a tuple of tags (for example
``(master_seed, trial_index, "tasks")``); the tuple is hashed with SHA-256
into the seed of a counter-based Philox generator, so streams are
independent, reproducible across platforms, and insensitive to how many
draws other streams consume.

Gaussian variates are produced by an explicit Box-Muller transform over
uniform draws rather than the generator's built-in ziggurat sampler, which
keeps the mapping from uniforms to normals simple and stable; the variates
are written over the uniforms they came from.  Chi-square
variates are built on the same footing: ``chi_square`` draws
``2 * Gamma(dof / 2)`` by Marsaglia-Tsang rejection over ``standard_normal``
and the generator's uniforms, with the ``U^(1/a)`` boost for shapes below
one, so every variate of the package is an explicit transform of uniforms.
"""
from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["chi_square", "standard_normal", "substream"]


def substream(master_seed: int, *tags: int | str) -> np.random.Generator:
    """Return a counter-based generator for a named substream.

    Parameters
    ----------
    master_seed:
        Master seed of the experiment (any non-negative integer).
    *tags:
        Arbitrary identifying tags, typically a trial index and a stream
        name such as ``"env"``, ``"init"``, or ``"tasks"``.

    Returns
    -------
    numpy.random.Generator
        A Philox-based generator seeded from SHA-256 of the tag tuple.
    """
    digest = hashlib.sha256()
    digest.update(str(int(master_seed)).encode())
    for tag in tags:
        digest.update(b"/")
        digest.update(str(tag).encode())
    entropy = int.from_bytes(digest.digest(), "big")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def standard_normal(
    rng: np.random.Generator, shape: int | tuple[int, ...], *, rows: int = 1
) -> np.ndarray:
    """Draw standard normal variates via the Box-Muller transform.

    Uses ``1 - U`` for the radial uniform so the logarithm never sees an
    exact zero. Consumes ``2 * ceil(count / 2)`` uniforms from ``rng`` in
    one draw, the radial ones first and then the angular ones; the cosine
    branch gives the first half of the variates and the sine branch the rest,
    each written over the uniforms it came from, so the uniforms' buffer is
    the result.

    ``rows`` (a positive integer dividing ``count``) splits the draw into
    that many successive transforms of ``count // rows`` variates each,
    filled into the result in C order: the variates, and the stream position
    after them, are bitwise those of ``rows`` calls of that size made in
    turn.  The uniforms of every row still come from one ``rng.random`` call.
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    count = 1
    for dim in shape:
        count *= int(dim)
    if (isinstance(rows, bool) or not isinstance(rows, (int, np.integer))
            or rows < 1 or count % rows):
        raise ValueError(f"rows must be a positive divisor of the {count} variates, got {rows!r}")
    if count == 0:
        return np.zeros(shape)
    per_row = count // rows
    half = (per_row + 1) // 2
    uniforms = rng.random((rows, 2 * half))
    radius = np.sqrt(-2.0 * np.log(1.0 - uniforms[:, :half]))  # 1 - U in (0, 1]
    angle = 2.0 * np.pi * uniforms[:, half:]
    np.multiply(radius, np.cos(angle), out=uniforms[:, :half])
    np.multiply(radius, np.sin(angle), out=uniforms[:, half:])
    return uniforms[:, :per_row].reshape(shape)


def chi_square(rng: np.random.Generator, dof: float | np.ndarray) -> np.ndarray:
    """Draw chi-square variates with the given degrees of freedom.

    ``dof`` is a nonnegative scalar or array; the result has its shape, and
    entries with ``dof == 0`` are exactly 0.  A variate is ``2 * G`` with
    ``G ~ Gamma(a = dof / 2)``, sampled by Marsaglia and Tsang's method
    (ACM TOMS 26, 2000) at shape ``a`` (or ``a + 1`` when ``a < 1``, then
    multiplied by ``U^(1/a)``).  Each rejection pass draws one normal per
    still-pending entry, in flat (C) order, then one uniform per entry; the
    boost uniforms follow the last pass.  Deterministic given the stream,
    but the number of uniforms consumed depends on how many candidates are
    rejected: about 5% at shape 1, fewer at larger shapes.  The first pass,
    which takes every entry, works on the whole arrays; only later passes
    gather their pending entries.
    """
    dof = np.asarray(dof, dtype=float)
    if not np.isfinite(dof).all() or (dof < 0.0).any():
        raise ValueError("dof must be finite and nonnegative")
    half = dof.ravel() / 2.0
    positive = half > 0.0
    every = positive.all()
    if not every:
        half = half[positive]
    boosted = half < 1.0
    d = half + boosted - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    gamma = np.empty(d.size)
    pending = np.arange(d.size)
    c_pending, d_pending = c, d  # the first pass takes every entry: no gathers
    while pending.size:
        x = standard_normal(rng, pending.size)
        u = 1.0 - rng.random(pending.size)  # in (0, 1]
        v = (1.0 + c_pending * x) ** 3
        with np.errstate(invalid="ignore", divide="ignore"):
            accept = (v > 0.0) & (
                np.log(u) < 0.5 * x * x + d_pending * (1.0 - v + np.log(v))
            )
        # A rejected entry's value is overwritten by the pass that accepts it.
        gamma[pending] = d_pending * v
        pending = pending[~accept]
        c_pending, d_pending = c[pending], d[pending]
    if boosted.any():
        gamma[boosted] *= (1.0 - rng.random(int(boosted.sum()))) ** (1.0 / half[boosted])
    if every:
        return (2.0 * gamma).reshape(dof.shape)
    out = np.zeros(dof.size)
    out[positive] = 2.0 * gamma
    return out.reshape(dof.shape)
