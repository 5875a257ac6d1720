"""Tests for subspace geometry, spectral utilities, and convergence diagnostics."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrep.metrics import (
    HypothesisReport,
    TrajectoryRecord,
    check_hypotheses,
    delta_norm,
    fit_log_linear_rate,
    orth_complement,
    principal_angle_dist,
    qr_orthonormalize,
    spectral_norm,
)
from oracles import spectral_norm_svd, svd_subspace_dist


def _random_matrix(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    return rng.normal(size=(d, k))


class TestQrOrthonormalize:
    def test_reconstructs_input_with_nonnegative_diagonal(self) -> None:
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 12))
            k = int(rng.integers(1, d + 1))
            M = _random_matrix(rng, d, k)
            Q, R = qr_orthonormalize(M)
            assert Q.shape == (d, k)
            assert R.shape == (k, k)
            np.testing.assert_allclose(Q @ R, M, atol=1e-12 * max(1.0, np.abs(M).max()))
            np.testing.assert_allclose(Q.T @ Q, np.eye(k), atol=1e-12)
            assert np.all(np.diag(R) >= 0)

    def test_idempotent_on_orthonormal_input(self) -> None:
        rng = np.random.default_rng(1)
        M = _random_matrix(rng, 9, 4)
        Q, _ = qr_orthonormalize(M)
        Q2, R2 = qr_orthonormalize(Q)
        np.testing.assert_allclose(Q2, Q, atol=1e-12)
        np.testing.assert_allclose(R2, np.eye(4), atol=1e-12)

    def test_rank_deficient_input_raises_with_singular_value_ratio(self) -> None:
        col = np.arange(1.0, 6.0)
        M = np.column_stack([col, 2.0 * col])
        with pytest.raises(np.linalg.LinAlgError, match="ratio"):
            qr_orthonormalize(M)


class TestOrthComplement:
    def test_completes_basis_with_tiny_cross_products(self) -> None:
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(3, 15))
            k = int(rng.integers(1, d))
            Q, _ = qr_orthonormalize(_random_matrix(rng, d, k))
            P = orth_complement(Q)
            assert P.shape == (d, d - k)
            assert np.abs(Q.T @ P).max() <= 1e-12
            np.testing.assert_allclose(P.T @ P, np.eye(d - k), atol=1e-12)

    def test_rejects_non_orthonormal_input(self) -> None:
        with pytest.raises(ValueError, match="orthonormal"):
            orth_complement(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


class TestSpectralNorm:
    def test_matches_dense_svd_on_random_matrices(self) -> None:
        rng = np.random.default_rng(3)
        for _ in range(100):
            rows = int(rng.integers(1, 12))
            cols = int(rng.integers(1, 12))
            M = rng.normal(size=(rows, cols)) * float(rng.uniform(0.1, 10.0))
            got = spectral_norm(M)
            want = spectral_norm_svd(M)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_known_diagonal_value(self) -> None:
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-12)

    def test_zero_and_empty_matrices(self) -> None:
        assert spectral_norm(np.zeros((4, 3))) == 0.0
        assert spectral_norm(np.zeros((4, 0))) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad: float) -> None:
        M = np.ones((3, 2))
        M[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norm(M)

    def test_one_dimensional_input_rejected(self) -> None:
        with pytest.raises(ValueError, match="2-D"):
            spectral_norm(np.ones(4))

    def test_transpose_invariance(self) -> None:
        rng = np.random.default_rng(4)
        for _ in range(50):
            M = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            assert spectral_norm(M) == pytest.approx(spectral_norm(M.T), rel=1e-10, abs=1e-13)

    def test_repeated_top_singular_value_converges(self) -> None:
        # Equal leading singular values stall the eigenvector but not the value.
        Q1, _ = qr_orthonormalize(np.random.default_rng(5).normal(size=(6, 6)))
        M = Q1 @ np.diag([2.0, 2.0, 1.0, 0.5, 0.1, 0.0])
        assert spectral_norm(M) == pytest.approx(2.0, rel=1e-10)

    def test_nearly_tied_top_singular_values_converge(self) -> None:
        # Gaps of ~1e-3 .. 1e-11 between the top two singular values make the
        # mixing angle of plain power iteration decay slower than the
        # iteration budget; the result must still match the SVD oracle.
        rng = np.random.default_rng(6)
        for gap in [1e-3, 1e-5, 1e-7, 1e-9, 1e-11]:
            left, _ = qr_orthonormalize(rng.normal(size=(17, 3)))
            right, _ = qr_orthonormalize(rng.normal(size=(3, 3)))
            M = left @ np.diag([0.996, 0.996 - gap, 0.886]) @ right.T
            got = spectral_norm(M)
            want = spectral_norm_svd(M)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_three_way_near_tie_converges(self) -> None:
        rng = np.random.default_rng(7)
        left, _ = qr_orthonormalize(rng.normal(size=(10, 3)))
        right, _ = qr_orthonormalize(rng.normal(size=(3, 3)))
        M = left @ np.diag([1.0, 1.0 - 2e-6, 1.0 - 5e-6]) @ right.T
        assert spectral_norm(M) == pytest.approx(1.0, rel=1e-9)


class TestPrincipalAngleDist:
    def test_same_subspace_is_zero_and_orthogonal_subspace_is_one(self) -> None:
        B = np.array([[1.0], [0.0], [0.0]])
        Bstar = B
        perp = orth_complement(Bstar)
        assert principal_angle_dist(B * 3.7, perp) == pytest.approx(0.0, abs=1e-12)
        other = np.array([[0.0], [1.0], [0.0]])
        perp_other = orth_complement(other)
        assert principal_angle_dist(B, perp_other) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_svd_oracle_and_satisfies_sine_cosine_identity(self) -> None:
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = int(rng.integers(3, 14))
            k = int(rng.integers(1, min(d, 5)))
            B = _random_matrix(rng, d, k)
            Bstar, _ = qr_orthonormalize(_random_matrix(rng, d, k))
            perp = orth_complement(Bstar)
            dist = principal_angle_dist(B, perp)
            assert 0.0 <= dist <= 1.0
            assert dist == pytest.approx(svd_subspace_dist(B, Bstar), abs=1e-10)
            Bhat, _ = qr_orthonormalize(B)
            sigma_min = float(np.linalg.svd(Bstar.T @ Bhat, compute_uv=False)[-1])
            assert dist**2 + sigma_min**2 == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_right_multiplication(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        d, k = 8, 3
        B = _random_matrix(rng, d, k)
        Bstar, _ = qr_orthonormalize(_random_matrix(rng, d, k))
        perp = orth_complement(Bstar)
        # Well-conditioned invertible right factor.
        Q1, _ = qr_orthonormalize(_random_matrix(rng, k, k))
        Q2, _ = qr_orthonormalize(_random_matrix(rng, k, k))
        R = Q1 @ np.diag(rng.uniform(0.5, 2.0, size=k)) @ Q2
        assert principal_angle_dist(B @ R, perp) == pytest.approx(
            principal_angle_dist(B, perp), abs=1e-10
        )


class TestDeltaNorm:
    def test_zero_when_columns_scaled_orthonormal(self) -> None:
        rng = np.random.default_rng(7)
        alpha = 0.17
        Q, _ = qr_orthonormalize(_random_matrix(rng, 10, 3))
        assert delta_norm(Q / math.sqrt(alpha), alpha) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_norm_of_residual(self) -> None:
        rng = np.random.default_rng(8)
        for _ in range(30):
            alpha = float(rng.uniform(0.01, 0.5))
            B = _random_matrix(rng, 7, 3)
            want = spectral_norm_svd(np.eye(3) - alpha * B.T @ B)
            assert delta_norm(B, alpha) == pytest.approx(want, rel=1e-12)


class TestFitLogLinearRate:
    def test_exact_geometric_series_recovers_rate(self) -> None:
        rho = 0.93
        series = [0.8 * rho**t for t in range(40)]
        slope, r2 = fit_log_linear_rate(series, 0.5)
        assert slope == pytest.approx(math.log(rho), rel=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_respects_iteration_spacing(self) -> None:
        rho = 0.93
        iters = [10 * t for t in range(40)]
        series = [0.8 * rho**t for t in iters]
        slope, r2 = fit_log_linear_rate(series, 0.5, iters=iters)
        assert slope == pytest.approx(math.log(rho), rel=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_noise_lowers_r_squared(self) -> None:
        rng = np.random.default_rng(9)
        series = list(np.exp(rng.normal(size=60)))
        _, r2 = fit_log_linear_rate(series, 1.0)
        assert r2 < 0.5

    def test_too_few_points_raises(self) -> None:
        with pytest.raises(ValueError, match="5"):
            fit_log_linear_rate([1.0, 0.5, 0.25, 0.125], 1.0)

    def test_nonpositive_values_raise(self) -> None:
        with pytest.raises(ValueError, match="positive"):
            fit_log_linear_rate([1.0, 0.5, 0.0, 0.25, 0.1, 0.05], 1.0)


def _record(t: int, **kw: float) -> TrajectoryRecord:
    defaults = dict(
        dist=0.5, delta_norm=0.01, w_norm=0.02, psi_min=0.05, psi_max=0.3, bperp_norm=0.6, loss=1.0
    )
    defaults.update(kw)
    return TrajectoryRecord(t=t, **defaults)


class TestCheckHypotheses:
    def _stats(self):
        from linrep.env import DiversityStats

        return DiversityStats(mu_sq=0.4, L_sq=1.5, eta=0.9, L_max=1.6)

    def _hp(self):
        from linrep.model import Algorithm, HyperParams, Mode

        return HyperParams(
            algo=Algorithm.FO_ANIL,
            mode=Mode.POPULATION,
            alpha=0.1,
            beta=0.2,
            n=4,
            iters=2,
        )

    def test_margins_follow_stated_formulas(self) -> None:
        hp = self._hp()
        stats = self._stats()
        dist0 = 0.5
        trajectory = [_record(0, dist=0.5, bperp_norm=0.6), _record(1, dist=0.45, bperp_norm=0.55)]
        report = check_hypotheses(trajectory, hp, stats, dist0)
        assert isinstance(report, HypothesisReport)

        e0 = 0.9 - dist0**2
        rho = 1.0 - 0.5 * hp.beta * hp.alpha * e0 * stats.mu_sq
        assert report.e0 == pytest.approx(e0)
        assert report.rho == pytest.approx(rho)
        assert 0.0 < report.rho < 1.0

        # A1: sqrt(alpha) * min(1, mu_sq/eta^2) * eta * C - ||w||.
        bound = math.sqrt(hp.alpha) * min(1.0, stats.mu_sq / stats.eta**2) * stats.eta
        assert report.a1[0] == pytest.approx(bound - 0.02)
        # A2 needs the previous record: first entry not evaluated.
        assert math.isnan(report.a2[0])
        expected_a2 = (
            rho * 0.01 + 1.25 * hp.alpha**2 * hp.beta**2 * stats.L_sq**2 * 0.5**2 - 0.01
        )
        assert report.a2[1] == pytest.approx(expected_a2)
        # A3: 1/10 - delta_norm.
        assert report.a3[0] == pytest.approx(0.1 - 0.01)
        # A4 margins: (psi_min - 0.9 alpha E0 mu_sq, 1.2 alpha L_sq - psi_max);
        # the first record precedes any completed round, so it is skipped.
        assert math.isnan(report.a4_lower[0]) and math.isnan(report.a4_upper[0])
        assert report.a4_lower[1] == pytest.approx(0.05 - 0.9 * hp.alpha * e0 * stats.mu_sq)
        assert report.a4_upper[1] == pytest.approx(1.2 * hp.alpha * stats.L_sq - 0.3)
        # A5 contraction of the misalignment norm.
        assert math.isnan(report.a5[0])
        assert report.a5[1] == pytest.approx(rho * 0.6 - 0.55)
        # A6: rho^(t-1) - dist_t.
        assert report.a6[0] == pytest.approx(rho ** (-1) - 0.5)
        assert report.a6[1] == pytest.approx(1.0 - 0.45)

    def test_first_violation_indices(self) -> None:
        hp = self._hp()
        stats = self._stats()
        trajectory = [
            _record(0, delta_norm=0.01),
            _record(1, delta_norm=0.2),  # violates A3 (0.1 - 0.2 < 0)
            _record(2, delta_norm=0.3),
        ]
        report = check_hypotheses(trajectory, hp, stats, 0.5)
        assert report.first_violation["A3"] == 1
        assert report.first_violation["A1"] is None

    def test_missing_stats_marks_margins_not_evaluated(self) -> None:
        hp = self._hp()
        trajectory = [_record(0), _record(1)]
        report = check_hypotheses(trajectory, hp, None, 0.5)
        assert all(math.isnan(v) for v in report.a1)
        assert all(math.isnan(v) for v in report.a2)
        # A3 depends only on recorded quantities and stays evaluated.
        assert report.a3[0] == pytest.approx(0.09)
        assert report.first_violation["A1"] is None

    def test_c_a1_scales_the_head_norm_allowance(self) -> None:
        hp = self._hp()
        stats = self._stats()
        trajectory = [_record(0, w_norm=0.0)]
        base = check_hypotheses(trajectory, hp, stats, 0.5)
        doubled = check_hypotheses(trajectory, hp, stats, 0.5, c_a1=2.0)
        assert doubled.a1[0] == pytest.approx(2.0 * base.a1[0])
