"""Tests for deterministic substreams, Gaussian and chi-square sampling."""
from __future__ import annotations

import numpy as np
import pytest

from linrep.rng import chi_square, standard_normal, substream
from oracles import box_muller_two_calls, chi_square_gathers


def test_same_substream_identical_draws() -> None:
    a = substream(123, 0, "tasks").random(32)
    b = substream(123, 0, "tasks").random(32)
    np.testing.assert_array_equal(a, b)


def test_distinct_tags_and_trials_decorrelate_streams() -> None:
    base = substream(123, 0, "tasks").random(64)
    other_tag = substream(123, 0, "env").random(64)
    other_trial = substream(123, 1, "tasks").random(64)
    other_seed = substream(124, 0, "tasks").random(64)
    assert not np.array_equal(base, other_tag)
    assert not np.array_equal(base, other_trial)
    assert not np.array_equal(base, other_seed)


def test_standard_normal_shapes_and_determinism() -> None:
    draws = standard_normal(substream(7, 0, "x"), (3, 5))
    assert draws.shape == (3, 5)
    again = standard_normal(substream(7, 0, "x"), (3, 5))
    np.testing.assert_array_equal(draws, again)
    # Odd element counts exercise the pair-splitting path.
    odd = standard_normal(substream(7, 0, "y"), 7)
    assert odd.shape == (7,)
    scalar_shape = standard_normal(substream(7, 0, "z"), ())
    assert scalar_shape.shape == ()


@pytest.mark.parametrize("count", [0, 1, 9, 210, 8400])
def test_standard_normal_is_the_two_draw_transform_bitwise(count: int) -> None:
    rng, reference = substream(8, count, "bm"), substream(8, count, "bm")
    draws = standard_normal(rng, count)
    want = box_muller_two_calls(reference, count)
    assert draws.shape == want.shape == (count,)
    assert np.array_equal(draws.view(np.uint64), want.view(np.uint64))
    # Both leave the stream at the same place.
    assert np.array_equal(rng.random(4), reference.random(4))


@pytest.mark.parametrize("rows", [1, 2, 13])
@pytest.mark.parametrize("per_row", [1, 9, 21])
def test_rows_are_successive_two_draw_transforms_bitwise(per_row: int, rows: int) -> None:
    rng, reference = substream(9, per_row, rows, "bm"), substream(9, per_row, rows, "bm")
    draws = standard_normal(rng, (rows, per_row), rows=rows)
    want = np.stack([box_muller_two_calls(reference, per_row) for _ in range(rows)])
    assert draws.shape == want.shape == (rows, per_row)
    assert np.array_equal(draws.view(np.uint64), want.view(np.uint64))
    # Both leave the stream at the same place.
    assert np.array_equal(rng.random(4), reference.random(4))


def test_rows_fill_any_shape_in_c_order() -> None:
    draws = standard_normal(substream(9, "shape"), (5, 3, 3), rows=5)
    flat = standard_normal(substream(9, "shape"), (5, 9), rows=5)
    assert draws.shape == (5, 3, 3)
    np.testing.assert_array_equal(draws.reshape(5, 9), flat)


@pytest.mark.parametrize("rows", [0, -1, 4, 3.0, np.float64(3.0), True, "3"],
                         ids=["0", "-1", "4", "float", "np-float", "bool", "str"])
def test_rows_must_divide_the_variates(rows) -> None:
    with pytest.raises(ValueError, match="rows"):
        standard_normal(substream(9, "rows"), (3, 3), rows=rows)


def test_numpy_integer_rows_accepted() -> None:
    draws = standard_normal(substream(9, "np-rows"), (3, 3), rows=np.int64(3))
    np.testing.assert_array_equal(draws, standard_normal(substream(9, "np-rows"), (3, 3), rows=3))


def test_standard_normal_moments_match_gaussian() -> None:
    m = 200_000
    draws = standard_normal(substream(99, 0, "moments"), m)
    assert np.all(np.isfinite(draws))
    assert abs(float(draws.mean())) < 5.0 / np.sqrt(m)
    assert abs(float(draws.var()) - 1.0) < 10.0 / np.sqrt(m)
    # Tail mass sanity: P(|Z| > 3) ~ 0.0027.
    tail = float(np.mean(np.abs(draws) > 3.0))
    assert 0.001 < tail < 0.005


def test_standard_normal_consumes_stream_sequentially() -> None:
    gen = substream(5, 0, "seq")
    first = standard_normal(gen, 4)
    second = standard_normal(gen, 4)
    assert not np.array_equal(first, second)

    gen2 = substream(5, 0, "seq")
    both = standard_normal(gen2, 4), standard_normal(gen2, 4)
    np.testing.assert_array_equal(first, both[0])
    np.testing.assert_array_equal(second, both[1])


@pytest.mark.parametrize("dof", [1, 3, 81, 781])
def test_chi_square_mean_and_variance(dof: int) -> None:
    # Mean nu, variance 2 nu; each checked to 5 standard errors of its
    # estimator (central fourth moment of chi2(nu) is 12 nu^2 + 48 nu).
    count = 20_000
    draws = chi_square(substream(2024, "chi2", dof), np.full(count, dof))
    assert draws.shape == (count,)
    assert np.all(draws > 0.0)
    mean_se = np.sqrt(2.0 * dof / count)
    assert abs(float(draws.mean()) - dof) <= 5.0 * mean_se
    var_se = np.sqrt((12.0 * dof**2 + 48.0 * dof - 4.0 * dof**2) / count)
    assert abs(float(draws.var(ddof=1)) - 2.0 * dof) <= 5.0 * var_se


def test_chi_square_zero_dof_is_exactly_zero() -> None:
    draws = chi_square(substream(5, "chi2-zero"), np.array([0, 4, 0, 1]))
    assert draws[0] == 0.0 and draws[2] == 0.0
    assert draws[1] > 0.0 and draws[3] > 0.0
    assert chi_square(substream(5, "chi2-zero"), 0).shape == ()
    assert float(chi_square(substream(5, "chi2-zero"), 0)) == 0.0


def test_chi_square_same_substream_identical_draws() -> None:
    dof = np.array([[1, 2, 7], [30, 0, 500]])
    a = chi_square(substream(8, 0, "chi2"), dof)
    b = chi_square(substream(8, 0, "chi2"), dof)
    assert a.shape == dof.shape
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dof", [-1, np.inf, np.nan])
def test_chi_square_rejects_invalid_dof(dof: float) -> None:
    with pytest.raises(ValueError):
        chi_square(substream(8, 0, "chi2"), [3, dof])


# Zero dofs, shapes below 1 (boosted), shapes near 1 (the most rejections)
# and large ones, as flat, stacked and scalar arrays.
CHI_SQUARE_GRIDS = {
    "bartlett": np.maximum(7 - np.arange(21), 0)[None].repeat(3, axis=0),
    "ramp": np.linspace(0.0, 3.0, 301),
    "mixed": np.where(np.arange(77).reshape(7, 11) % 5 == 0, 0.0,
                      np.linspace(0.05, 2.5, 77).reshape(7, 11)),
    "wide": np.array([0.0, 1.0, 2.0, 2.5, 781.0, 1e6]),
    "scalar-zero": np.array(0.0),
    "scalar-boosted": np.array(0.5),
}


@pytest.mark.parametrize("grid", CHI_SQUARE_GRIDS)
def test_chi_square_is_the_gathering_sampler_bitwise(grid: str) -> None:
    dof = CHI_SQUARE_GRIDS[grid]
    for seed in range(8):
        rng, reference = substream(10, grid, seed), substream(10, grid, seed)
        draws = chi_square(rng, dof)
        want = chi_square_gathers(reference, dof)
        assert draws.shape == want.shape == dof.shape
        assert np.array_equal(draws.view(np.uint64), want.view(np.uint64))
        # Both leave the stream at the same place.
        assert np.array_equal(rng.random(4), reference.random(4))
