import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln, logsumexp

from dpbudget import accounting, renyi
from dpbudget.errors import DomainError, NumericalError


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


def reference_log_moments(q, sigma, alphas):
    """The moment kernel as first written, the oracle for ``_log_moments``: one
    row per requested order, gathered from the log-factorial table at k =
    alpha - j, set to -inf where k < 0 and exponentiated everywhere.  The
    Toeplitz kernel forms the same IEEE terms in the same order and sums the
    same full-width rows, so the two agree bit for bit."""
    alphas = alphas.astype(np.int64)
    if q == 1.0:
        return alphas * (alphas - 1.0) / (2.0 * sigma * sigma)
    j = np.arange(2, int(alphas.max()) + 1)
    log_fact = renyi._log_factorials(int(j[-1]))
    x = j * (j - 1.0) / (2.0 * sigma * sigma)
    log_col = j * math.log(q) - log_fact[j] + x + np.log(-np.expm1(-x))
    out = np.empty(alphas.size)
    for rows in renyi._blocks(alphas.size, j.size):
        a = alphas[rows, None]
        k = a - j
        terms = log_fact[a] - log_fact[np.maximum(k, 0)] + k * math.log1p(-q) + log_col
        terms = np.where(k >= 0, terms, -math.inf)
        peak = terms.max(axis=1, keepdims=True)
        out[rows] = np.logaddexp(0.0, peak[:, 0] + np.log(np.sum(np.exp(terms - peak), axis=1)))
    return out


def mpmath_divergence(q, sigma, alpha, reverse=False):
    """Independent oracle at 40 digits: D_alpha(mixture || base), or
    D_alpha(base || mixture) if ``reverse``, by mpmath quadrature of the
    order-alpha integrand over the line."""
    import mpmath as mp

    with mp.workdps(40):
        mq, ms, ma = mp.mpf(q), mp.mpf(sigma), mp.mpf(alpha)
        norm = 1 / (ms * mp.sqrt(2 * mp.pi))

        def integrand(z):
            base = norm * mp.exp(-(z ** 2) / (2 * ms ** 2))
            mix = mq * norm * mp.exp(-((z - 1) ** 2) / (2 * ms ** 2)) + (1 - mq) * base
            p, r = (base, mix) if reverse else (mix, base)
            return p ** ma * r ** (1 - ma)

        peak = 1 if reverse else ma  # the forward integrand peaks near z = alpha
        total = mp.quad(integrand, [-mp.inf, -12 * ms, 0, 1, peak, peak + 12 * ms, mp.inf])
        return mp.log(total) / (ma - 1)


class TestDivergence:
    @pytest.mark.parametrize("q,sigma", [(0.01, 4.0), (0.01, 6.0), (0.005, 2.0), (0.03, 2.0), (0.1, 1.0), (0.5, 1.0), (0.9, 1.0), (0.5, 4.0)])
    @pytest.mark.parametrize("alpha", [2, 10, 50, 147, 200])
    def test_matches_binomial_oracle(self, q, sigma, alpha):
        oracle = binomial_log_power(q, sigma, alpha) / (alpha - 1)
        got = renyi.subsampled_renyi_divergence(q, sigma, float(alpha))
        assert got == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("sigma", [1.0, 4.0, 6.0])
    @pytest.mark.parametrize("alpha", [2, 7, 50])
    def test_gaussian_identity_at_q1(self, sigma, alpha):
        got = renyi.subsampled_renyi_divergence(1.0, sigma, alpha)
        assert got == pytest.approx(alpha / (2 * sigma * sigma), rel=1e-15)

    def test_moment_bound_single_point(self):
        d = renyi.subsampled_renyi_divergence(0.01, 6.0, 50.0)
        assert d <= 50 * 0.01 ** 2 / 36.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            renyi.subsampled_renyi_divergence(0.0, 4.0, 2.0)
        with pytest.raises(DomainError):
            renyi.subsampled_renyi_divergence(0.01, -1.0, 2.0)

    @pytest.mark.parametrize("alpha", [2.5, 1.0001, math.nan, math.inf, 1.0, 1, 0, -3.0, 199.999])
    def test_non_integer_or_small_order_rejected(self, alpha):
        with pytest.raises(DomainError):
            renyi.subsampled_renyi_divergence(0.01, 4.0, alpha)


class TestAllOrders:
    """One call evaluates every order of one (q, sigma) as one matrix."""

    @pytest.mark.parametrize("q,sigma", [(0.01, 4.0), (0.01, 6.0), (0.005, 2.0), (0.03, 2.0), (0.1, 1.0), (0.5, 1.0), (0.9, 1.0), (0.5, 4.0)])
    def test_every_order_matches_binomial_oracle(self, q, sigma):
        alphas = np.arange(2, 201)
        got = renyi._log_moments(q, sigma, 200)
        for alpha, value in zip(alphas, got):
            oracle = binomial_log_power(q, sigma, int(alpha))
            assert value == pytest.approx(oracle, rel=1e-9, abs=1e-12), alpha

    @pytest.mark.parametrize("q,sigma", [(0.01, 4.0), (0.005, 2.0), (0.5, 1.0)])
    def test_batch_equals_one_order_calls(self, q, sigma):
        # a single order builds only its own row, which is reduced as in the batch
        alphas = np.array([2, 3, 17, 90, 200])
        batched = renyi._log_moments(q, sigma, 200)[alphas - 2] / (alphas - 1.0)
        for alpha, value in zip(alphas, batched):
            assert value == renyi.subsampled_renyi_divergence(q, sigma, alpha)

    def test_log_factorial_table_matches_gammaln(self):
        n = np.arange(5001)
        np.testing.assert_allclose(renyi._log_factorials(5000), gammaln(n + 1.0), rtol=1e-15, atol=0.0)

    def test_block_size_does_not_change_values(self, monkeypatch):
        whole = renyi._log_moments(0.02, 3.0, 59)
        monkeypatch.setattr(renyi, "_BLOCK_ENTRIES", 1)  # one order per block
        assert np.array_equal(renyi._log_moments(0.02, 3.0, 59), whole)

    @pytest.mark.parametrize("alpha", [1, 2.5, math.nan, math.inf])
    def test_bad_orders_rejected(self, alpha):
        with pytest.raises(DomainError):
            renyi.subsampled_renyi_divergence(0.01, 4.0, alpha)

    @pytest.mark.parametrize("alpha_max", [1, 0, -3])
    def test_top_order_below_two_rejected(self, alpha_max):
        with pytest.raises(DomainError):
            renyi._log_moments(0.01, 4.0, alpha_max)

    def test_integral_float_orders_accepted(self):
        whole = renyi.subsampled_renyi_divergence(0.02, 3.0, 59)
        assert renyi.subsampled_renyi_divergence(0.02, 3.0, 59.0) == whole
        assert renyi.subsampled_renyi_divergence(0.02, 3.0, np.float64(59.0)) == whole


class TestKernelOracle:
    """``_log_moments`` is bit-identical to ``reference_log_moments``."""

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.floats(0.0, 1.0, exclude_min=True),
        sigma=st.floats(0.3, 80.0),
        alpha_max=st.one_of(st.integers(2, 1000), st.just(1000)),
    )
    @example(q=1.0, sigma=4.0, alpha_max=30)
    @example(q=0.0497, sigma=1.0, alpha_max=4)
    @example(q=0.01, sigma=4.0, alpha_max=2)
    def test_matches_reference(self, q, sigma, alpha_max):
        alphas = np.arange(2, alpha_max + 1)
        assert np.array_equal(renyi._log_moments(q, sigma, alpha_max), reference_log_moments(q, sigma, alphas), equal_nan=True)

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.floats(0.0, 1.0, exclude_min=True),
        sigma=st.floats(0.3, 40.0),
        alpha_max=st.integers(2, 600),
        lowest=st.floats(0.0, 1.0),  # where alpha_min lies between 2 and alpha_max
    )
    @example(q=1.0, sigma=4.0, alpha_max=30, lowest=0.5)
    @example(q=0.01, sigma=4.0, alpha_max=200, lowest=1.0)
    @example(q=0.0497, sigma=1.0, alpha_max=600, lowest=0.0)
    def test_lowest_order_slices_the_full_kernel(self, q, sigma, alpha_max, lowest):
        alpha_min = 2 + round(lowest * (alpha_max - 2))
        full = renyi._log_moments(q, sigma, alpha_max)
        assert np.array_equal(renyi._log_moments(q, sigma, alpha_max, alpha_min), full[alpha_min - 2 :], equal_nan=True)

    # Rows of these points hold terms whose exp is subnormal or rounds to
    # 0.0 (between -746 and -708.4 below the row's peak): hundreds at
    # orders 2..200, thousands at 2..1000.
    @pytest.mark.parametrize("q,sigma,alpha_max", [(0.002, 15.448, 200), (0.03, 2.0, 200), (0.0497, 1.0, 200), (1e-5, 80.0, 1000)])
    def test_matches_reference_where_exp_underflows(self, q, sigma, alpha_max):
        alphas = np.arange(2, alpha_max + 1)
        assert np.array_equal(renyi._log_moments(q, sigma, alpha_max), reference_log_moments(q, sigma, alphas))


class TestLogFactorialTable:
    """One table per process, grown on demand, holding math.lgamma's doubles
    whatever order the sizes are asked in."""

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(0, 1500), min_size=1, max_size=6))
    def test_same_doubles_in_any_order(self, sizes):
        for n in sizes:
            got = renyi._log_factorials(n)
            want = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
            assert got.tobytes() == want.tobytes()

    def test_built_once(self):
        table = renyi._log_factorials(300).base
        assert renyi._log_factorials(40).base is table
        assert not table.flags.writeable


class TestIntegerOrderOracle:
    """Arbitrary-precision quadrature (mpmath, an entirely separate stack) as
    the oracle for the closed form, including divergences far below 1e-6,
    where only a log-space sum of nonnegative terms keeps full accuracy."""

    @pytest.mark.parametrize("q,sigma,alpha", [
        (0.01, 2.0, 2),
        (0.001, 30.0, 2),
        (0.002, 29.9, 2),
        (0.002, 29.9, 200),
        (0.001, 30.0, 200),
        (0.03, 2.0, 200),
        (0.001, 2.0, 57),
        (0.01, 4.0, 100),
        (0.01, 4.0, 150),
        (0.0156, 4.0, 190),
        (0.005, 8.0, 33),
        (0.003, 12.0, 120),
        (0.3, 1.5, 3),
        (0.05, 1.0, 20),
    ])
    def test_matches_mpmath(self, q, sigma, alpha):
        oracle = float(mpmath_divergence(q, sigma, alpha))
        got = renyi.subsampled_renyi_divergence(q, sigma, alpha)
        assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)


def _grid_points(n, seed):
    """``n`` seeded (q, sigma, alpha) with sigma in [2, 30], q in [1e-4,
    1/(16 sigma)] and alpha in 2..the order cap of the bound validation."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        sigma = float(rng.uniform(2.0, 30.0))
        q = float(rng.uniform(1e-4, 1.0 / (16.0 * sigma)))
        cap = min(renyi.ORDER_CAP, math.floor(accounting.rs_order_cap(q, sigma)))
        points.append((q, sigma, int(rng.integers(2, cap + 1))))
    return points


@pytest.mark.parametrize("q,sigma,alpha", _grid_points(24, seed=20190908))
def test_reverse_divergence_never_exceeds_forward(q, sigma, alpha):
    # Mironov, Talwar & Zhang 2019 (Thm 5): the forward direction dominates,
    # which is why only the forward divergence is evaluated
    forward = mpmath_divergence(q, sigma, alpha)
    reverse = mpmath_divergence(q, sigma, alpha, reverse=True)
    assert reverse <= forward


class TestQuasiConvexityProperty:
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("sigma", [1.0, 4.0])
    @pytest.mark.parametrize("alpha", [2.0, 10.0, 50.0])
    def test_sampling_never_exceeds_unsampled_divergence(self, q, sigma, alpha):
        line = alpha / (2 * sigma * sigma)
        assert renyi.subsampled_renyi_divergence(q, sigma, alpha) <= line + 1e-9


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

    def test_no_knee_below_alpha_max_raises(self):
        # at q = 0.001, sigma = 30 the curve is still flat at order 10
        with pytest.raises(NumericalError, match="q=0.001, sigma=30.0 up to alpha=10"):
            renyi.divergence_changepoint(0.001, 30.0, alpha_max=10)


class TestMomentsAccountant:
    def test_reported_endpoint(self):
        eps = renyi.moments_accountant_eps(0.01, 6.0, 40000, 1e-5).eps
        assert eps == pytest.approx(1.67, abs=0.05)

    def test_zero_steps(self):
        lmax = renyi.default_lambda_max(0.01, 6.0)
        eps = renyi.moments_accountant_eps(0.01, 6.0, 0, 1e-5).eps
        assert eps == pytest.approx(math.log(1e5) / lmax, rel=1e-12)

    def test_negative_steps_rejected(self):
        with pytest.raises(DomainError, match="steps must be nonnegative"):
            renyi.moments_accountant_eps(0.01, 6.0, -1, 1e-5)

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
        # When the usable-order cap u_alpha exceeds the accountant's
        # moment-order ceiling of 200, the order-capped conversion optimizes
        # over orders the accountant never sees and can come out lower.
        q, sigma, steps, delta = 0.002, 12.0, 500, 1e-5
        u_alpha = accounting.rs_order_cap(q, sigma)
        assert u_alpha > 201
        rho_hat = steps * q * q / (sigma * sigma)
        capped = accounting.rs_eps(rho_hat, u_alpha, delta)
        default_ma = renyi.moments_accountant_eps(q, sigma, steps, delta).eps
        assert default_ma > capped

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

    def test_pairs_with_no_integer_order_are_skipped(self):
        # at sigma 0.5 the order cap sigma^2 log(1/(q sigma)) + 1 falls below 2
        # from q of about 0.037 up: those pairs have no order to check, and
        # each pair left checks order 2 alone, which breaks the bound below the floor
        grid = renyi.moment_bound_grid([0.5])
        no_order = {(q, sigma) for q, sigma in grid if accounting.rs_order_cap(q, sigma) < 2.0}
        assert (len(grid), len(no_order)) == (125, 89)
        report = renyi.validate_moment_bound([0.5])
        assert report.n_points == len(report.violations) == 36
        assert {(v.q, v.sigma) for v in report.violations} == set(grid) - no_order
        assert {v.alpha for v in report.violations} == {2}

    def test_empty_grid(self):
        # q floor above 1/(16 sigma) leaves nothing to check
        report = renyi.validate_moment_bound([30.0], q_step=0.005, q_start=0.005)
        assert report.n_points == 0
        assert report.worst_slack == math.inf

    def test_violation_is_streamed_into_the_report(self, monkeypatch):
        # inflate the divergence at order 7 beyond the bound
        q, sigma = 0.01, 4.0
        real = renyi._log_moments

        def inflated(q_, sigma_, alpha_max):
            alphas = np.arange(2, alpha_max + 1)
            return np.where(alphas == 7, 6.0 * 2.0 * q * q * 7.0 / (sigma * sigma), real(q_, sigma_, alpha_max))

        monkeypatch.setattr(renyi, "_log_moments", inflated)
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

    @pytest.mark.parametrize("q_start", [1e-13, 0.0123456789012345, 0.012])
    def test_grid_starts_at_q_start_exactly(self, q_start):
        grid = renyi.moment_bound_grid([4.0], q_step=0.005, q_start=q_start)
        assert grid[0] == (q_start, 4.0)
        # the later points are rounded to 12 decimals
        assert grid[1:] == [(round(q_start + i * 0.005, 12), 4.0) for i in range(1, len(grid))]

    def test_grid_respects_ratio_cap(self):
        grid = renyi.moment_bound_grid([2.0], q_step=0.005, q_start=0.005)
        assert max(q for q, _ in grid) <= 1 / 32 + 1e-12
        assert len(grid) == 6
