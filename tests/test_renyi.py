import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from dpbudget import accounting, renyi
from dpbudget.errors import DomainError


def binomial_log_power(q, sigma, alpha):
    """Independent oracle for (alpha-1) * D_alpha(mixture || base) at integer
    alpha: expand the mixture power binomially; each cross term integrates in
    closed form to exp(j(j-1) / (2 sigma^2))."""
    j = np.arange(alpha + 1)
    terms = (
        gammaln(alpha + 1) - gammaln(j + 1) - gammaln(alpha - j + 1)
        + j * math.log(q) + (alpha - j) * math.log1p(-q)
        + j * (j - 1) / (2.0 * sigma * sigma)
    )
    return float(logsumexp(terms))


class TestDivergenceQuadrature:
    @pytest.mark.parametrize("q,sigma", [(0.01, 4.0), (0.01, 6.0), (0.005, 2.0), (0.03, 2.0), (0.1, 1.0), (0.5, 1.0), (0.9, 1.0), (0.5, 4.0)])
    @pytest.mark.parametrize("alpha", [2, 10, 50, 147, 200])
    def test_matches_binomial_oracle(self, q, sigma, alpha):
        oracle = binomial_log_power(q, sigma, alpha) / (alpha - 1)
        got = renyi.subsampled_renyi_divergence(q, sigma, float(alpha))
        assert got == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("sigma", [1.0, 4.0, 6.0])
    @pytest.mark.parametrize("alpha", [2.0, 7.5, 50.0])
    def test_gaussian_identity_at_q1(self, sigma, alpha):
        got = renyi.subsampled_renyi_divergence(1.0, sigma, alpha)
        assert got == pytest.approx(alpha / (2 * sigma * sigma), abs=1e-6)

    def test_moment_bound_single_point(self):
        d = renyi.subsampled_renyi_divergence(0.01, 6.0, 50.0)
        assert d <= 50 * 0.01 ** 2 / 36.0

    @pytest.mark.parametrize("q,sigma", [(0.01, 4.0), (0.03, 2.0)])
    def test_bound_near_order_one(self, q, sigma):
        # as alpha -> 1+ both sides shrink toward the KL scale and the
        # closed-form bound still dominates
        alpha = 1.0001
        d = renyi.subsampled_renyi_divergence(q, sigma, alpha)
        assert 0.0 <= d <= q * q * alpha / (sigma * sigma)

    def test_reverse_direction_is_bounded(self):
        # the base-vs-mixture density ratio is at most 1/(1-q), so the
        # reverse divergence stays below -log(1-q) at every order
        for alpha in (2.0, 50.0, 150.0):
            d = renyi.subsampled_renyi_divergence(0.01, 4.0, alpha, reverse=True)
            assert 0.0 <= d <= -math.log1p(-0.01) + 1e-9

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            renyi.subsampled_renyi_divergence(0.0, 4.0, 2.0)
        with pytest.raises(DomainError):
            renyi.subsampled_renyi_divergence(0.01, -1.0, 2.0)
        with pytest.raises(DomainError):
            renyi.subsampled_renyi_divergence(0.01, 4.0, 1.0)

    def test_nonconvergence_raises_with_diagnostics(self, monkeypatch):
        from dpbudget.errors import NumericalError

        monkeypatch.setattr(renyi, "_REFINE_RTOL", -1.0)  # force refinement mismatch
        with pytest.raises(NumericalError) as err:
            renyi.subsampled_renyi_divergence(0.013, 5.5, 17.0)
        assert err.value.diagnostics["q"] == 0.013
        assert err.value.diagnostics["alpha"] == 17.0
        with pytest.raises(NumericalError) as err:
            renyi.validate_moment_bound([5.5], q_step=1.0, q_start=0.011)
        assert err.value.diagnostics["q"] == 0.011
        assert "alpha" in err.value.diagnostics


class TestBatchedOrders:
    """One call evaluates many orders on a node set sized for the largest."""

    @pytest.mark.parametrize("q,sigma", [(0.01, 4.0), (0.01, 6.0), (0.005, 2.0), (0.03, 2.0), (0.1, 1.0), (0.5, 1.0), (0.9, 1.0), (0.5, 4.0)])
    def test_every_order_matches_binomial_oracle(self, q, sigma):
        alphas = np.arange(2.0, 201.0)
        got = renyi._log_renyi_powers(q, sigma, alphas, False)
        for alpha, value in zip(alphas, got):
            oracle = binomial_log_power(q, sigma, int(alpha))
            assert value == pytest.approx(oracle, rel=1e-9, abs=1e-12), alpha

    @pytest.mark.parametrize("q,sigma", [(0.01, 4.0), (0.005, 2.0), (0.5, 1.0)])
    def test_reverse_batch_equals_one_order_calls(self, q, sigma):
        alphas = np.array([2.0, 3.5, 17.0, 90.0, 200.0])
        batched = renyi._log_renyi_powers(q, sigma, alphas, True) / (alphas - 1.0)
        for alpha, value in zip(alphas, batched):
            single = renyi.subsampled_renyi_divergence(q, sigma, alpha, reverse=True)
            assert value == pytest.approx(single, rel=1e-12, abs=0.0)

    def test_block_size_does_not_change_values(self, monkeypatch):
        alphas = np.arange(2.0, 60.0)
        whole = renyi._log_renyi_powers(0.02, 3.0, alphas, False)
        monkeypatch.setattr(renyi, "_BLOCK_ENTRIES", 1)  # one order per block
        assert np.array_equal(renyi._log_renyi_powers(0.02, 3.0, alphas, False), whole)

    @pytest.mark.parametrize("alphas", [[], [2.0, 1.0], [2.0, math.nan], [math.inf]])
    def test_bad_orders_rejected(self, alphas):
        with pytest.raises(DomainError):
            renyi._log_renyi_powers(0.01, 4.0, alphas, False)


class TestFractionalOrderOracle:
    """Arbitrary-precision quadrature (mpmath, an entirely separate stack)
    as the oracle for non-integer orders, where the binomial expansion does
    not apply."""

    @pytest.mark.parametrize("q,sigma,alpha", [
        (0.01, 2.0, 2.5),
        (0.01, 6.0, 7.5),
        (0.3, 1.5, 3.25),
        (0.05, 4.0, 33.5),
    ])
    def test_matches_mpmath(self, q, sigma, alpha):
        import mpmath as mp

        with mp.workdps(40):
            mq, ms, ma = mp.mpf(q), mp.mpf(sigma), mp.mpf(alpha)
            norm = 1 / (ms * mp.sqrt(2 * mp.pi))

            def integrand(z):
                base = norm * mp.e ** (-(z ** 2) / (2 * ms ** 2))
                shift = norm * mp.e ** (-((z - 1) ** 2) / (2 * ms ** 2))
                mix = mq * shift + (1 - mq) * base
                return mix ** ma * base ** (1 - ma)

            points = [-mp.inf, -12 * ms, 0, 1, ma, ma + 12 * ms, mp.inf]
            total = mp.quad(integrand, points)
            oracle = float(mp.log(total) / (ma - 1))
        got = renyi.subsampled_renyi_divergence(q, sigma, alpha)
        assert got == pytest.approx(oracle, rel=1e-10, abs=1e-14)


class TestQuasiConvexityProperty:
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("sigma", [1.0, 4.0])
    @pytest.mark.parametrize("alpha", [2.0, 10.0, 50.0])
    def test_sampling_never_exceeds_unsampled_divergence(self, q, sigma, alpha):
        line = alpha / (2 * sigma * sigma)
        forward = renyi.subsampled_renyi_divergence(q, sigma, alpha)
        backward = renyi.subsampled_renyi_divergence(q, sigma, alpha, reverse=True)
        assert forward <= line + 1e-9
        assert backward <= line + 1e-9


class TestChangepoint:
    def test_knee_location_q001_sigma4(self):
        knee = renyi.divergence_changepoint(0.01, 4.0)
        assert abs(knee - 147) <= 5

    def test_curve_regimes(self):
        line_slope = 1.0 / 32.0
        d100 = renyi.subsampled_renyi_divergence(0.01, 4.0, 100.0)
        assert d100 < 0.01 * 100.0 * line_slope
        d189 = renyi.subsampled_renyi_divergence(0.01, 4.0, 189.0)
        d190 = renyi.subsampled_renyi_divergence(0.01, 4.0, 190.0)
        assert (d190 - d189) == pytest.approx(line_slope, rel=0.25)


class TestMomentsAccountant:
    def test_reported_endpoint(self):
        eps = renyi.moments_accountant_eps(0.01, 6.0, 40000, 1e-5).eps
        assert eps == pytest.approx(1.67, abs=0.05)

    def test_zero_steps(self):
        lmax = renyi.default_lambda_max(0.01, 6.0)
        eps = renyi.moments_accountant_eps(0.01, 6.0, 0, 1e-5).eps
        assert eps == pytest.approx(math.log(1e5) / lmax, rel=1e-12)

    def test_default_lambda_max(self):
        assert renyi.default_lambda_max(0.01, 6.0) == 102
        assert renyi.default_lambda_max(0.005, 30.0) == 200  # capped

    @pytest.mark.parametrize("steps", [1000, 10000, 40000])
    def test_never_above_order_capped_conversion(self, steps):
        q, sigma, delta = 0.01, 6.0, 1e-5
        ma = renyi.moments_accountant_eps(q, sigma, steps, delta).eps
        rho_hat = steps * q * q / (sigma * sigma)
        capped = accounting.rs_eps(rho_hat, accounting.rs_order_cap(q, sigma), delta)
        strong = accounting.amplified_strong_composition(
            accounting.classic_gaussian_dp(sigma, delta).eps, delta, q, steps, delta
        ).eps
        assert ma <= capped <= strong

    @pytest.mark.parametrize("q,sigma", [(0.005, 8.0), (0.01, 4.0), (0.02, 2.5)])
    @pytest.mark.parametrize("steps", [500, 20000])
    def test_ordering_across_parameter_grid(self, q, sigma, steps):
        delta = 1e-5
        ma = renyi.moments_accountant_eps(q, sigma, steps, delta).eps
        rho_hat = steps * q * q / (sigma * sigma)
        capped = accounting.rs_eps(rho_hat, accounting.rs_order_cap(q, sigma), delta)
        strong = accounting.amplified_strong_composition(
            accounting.classic_gaussian_dp(sigma, delta).eps, delta, q, steps, delta
        ).eps
        assert 0.0 < ma <= capped <= strong

    def test_lambda_cap_can_break_the_ordering(self):
        # When the usable-order cap u_alpha exceeds the accountant's default
        # moment-order ceiling of 200, the order-capped conversion optimizes
        # over orders the accountant never sees and can come out lower;
        # supplying lambda_max = ceil(u_alpha) restores the ordering.
        q, sigma, steps, delta = 0.002, 12.0, 500, 1e-5
        u_alpha = accounting.rs_order_cap(q, sigma)
        assert u_alpha > 201
        rho_hat = steps * q * q / (sigma * sigma)
        capped = accounting.rs_eps(rho_hat, u_alpha, delta)
        default_ma = renyi.moments_accountant_eps(q, sigma, steps, delta).eps
        assert default_ma > capped
        uncapped_ma = renyi.moments_accountant_eps(
            q, sigma, steps, delta, lambda_max=math.ceil(u_alpha)
        ).eps
        assert uncapped_ma <= capped

    @pytest.mark.parametrize(
        "iters,epochs,delta", [(100, -5, 1e-5), (-1, 5, 1e-5), (100, 5, 0.0), (100, 5, math.nan)]
    )
    def test_curve_rejects_invalid_arguments(self, iters, epochs, delta):
        with pytest.raises(DomainError):
            renyi.moments_accountant_curve(0.01, 6.0, iters, epochs, delta)

    def test_curve_matches_pointwise_eps(self):
        curve = renyi.moments_accountant_curve(0.01, 6.0, 100, 5, 1e-5)
        for epoch in (1, 3, 5):
            direct = renyi.moments_accountant_eps(0.01, 6.0, epoch * 100, 1e-5).eps
            assert curve[epoch - 1] == pytest.approx(direct, rel=1e-12)


class TestBoundValidation:
    def test_single_point(self):
        report = renyi.validate_moment_bound([4.0], q_step=1.0, q_start=0.01, alpha_cap=100)
        assert report.n_points > 0
        assert not report.violations
        assert report.worst_slack >= 0.0

    def test_small_grid_no_violations(self):
        report = renyi.validate_moment_bound([2.0, 3.0], q_step=0.01, alpha_cap=50)
        assert report.n_points > 0
        assert not report.violations

    def test_empty_grid(self):
        # q floor above 1/(16 sigma) leaves nothing to check
        report = renyi.validate_moment_bound([30.0], q_step=0.005, q_start=0.005)
        assert report.n_points == 0
        assert report.worst_slack == math.inf

    def test_violation_is_streamed_into_the_report(self, monkeypatch):
        # inflate the forward divergence at order 7 beyond the bound
        q, sigma = 0.01, 4.0
        real = renyi._log_renyi_powers

        def inflated(q_, sigma_, alphas, reverse):
            out = real(q_, sigma_, alphas, reverse)
            if not reverse:
                out = np.where(alphas == 7.0, 6.0 * 2.0 * q * q * 7.0 / (sigma * sigma), out)
            return out

        monkeypatch.setattr(renyi, "_log_renyi_powers", inflated)
        report = renyi.validate_moment_bound([sigma], q_step=1.0, q_start=q, alpha_cap=20)
        assert report.n_points == 19  # orders 2..20
        assert report.worst_slack == pytest.approx(-q * q * 7.0 / (sigma * sigma), rel=1e-12)
        assert report.worst_slack < 0.0
        [check] = report.violations
        assert (check.q, check.sigma, check.alpha) == (q, sigma, 7)
        assert check.bound == q * q * 7 / (sigma * sigma)
        assert check.divergence == pytest.approx(2.0 * check.bound, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigmas": [math.nan]},
            {"sigmas": [-4.0]},
            {"sigmas": [math.inf]},
            {"sigmas": [4.0], "q_step": 0.0},
            {"sigmas": [4.0], "q_step": math.nan},
            {"sigmas": [4.0], "q_start": math.nan},
            {"sigmas": [4.0], "q_start": 0.0},
            {"sigmas": [4.0], "alpha_cap": -3},
        ],
    )
    def test_invalid_arguments_rejected(self, kwargs):
        with pytest.raises(DomainError):
            renyi.validate_moment_bound(**kwargs)

    def test_grid_respects_ratio_cap(self):
        grid = renyi.moment_bound_grid([2.0], q_step=0.005, q_start=0.005)
        assert max(q for q, _ in grid) <= 1 / 32 + 1e-12
        assert len(grid) == 6
