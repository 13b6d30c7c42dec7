import math
import tracemalloc
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dpbudget import accounting, renyi
from dpbudget.accounting import BUDGET_TOL, EpsDelta, PrivacyLedger
from dpbudget.errors import DomainError, PreconditionError, UsageError


class TestGaussianRho:
    def test_reported_value_sigma6(self):
        assert accounting.gaussian_rho(6.0) == pytest.approx(0.0139, abs=5e-5)

    def test_formula_identity(self):
        assert accounting.gaussian_rho(math.sqrt(0.5)) == pytest.approx(1.0, rel=1e-12)

    def test_uniform_budget_sums_exactly(self):
        total = sum(accounting.gaussian_rho(8.0) for _ in range(100))
        assert total == 0.78125

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(DomainError):
            accounting.gaussian_rho(0.0)
        with pytest.raises(DomainError):
            accounting.gaussian_rho(-3.0)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-163, 1e-162])
    def test_rejects_sigma_whose_square_underflows(self, sigma):
        # 2 sigma^2 is 0.0 there, and 1 / (2 sigma^2) divided by zero
        with pytest.raises(DomainError, match="underflow"):
            accounting.gaussian_rho(sigma)
        ledger = PrivacyLedger("rf")
        with pytest.raises(DomainError, match="underflow"):
            ledger.admit(sigma, 1.0)
        assert ledger.records == []

    def test_smallest_sigma_with_a_square_costs_inf(self):
        assert accounting.gaussian_rho(1e-160) == math.inf


class TestZcdpToDp:
    def test_zero_budget(self):
        assert accounting.zcdp_to_dp(0.0, 1e-5).eps == 0.0

    def test_rf_endpoint_400_epochs(self):
        eps = accounting.zcdp_to_dp(400.0 / 72.0, 1e-5).eps
        assert eps == pytest.approx(21.5, abs=0.1)

    def test_rs_crosscheck_value(self):
        eps = accounting.zcdp_to_dp(0.1111, 1e-5).eps
        assert eps == pytest.approx(2.373, abs=1e-3)

    def test_rejects_bad_delta(self):
        for delta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                accounting.zcdp_to_dp(0.1, delta)

    @pytest.mark.parametrize("rho", [-1.0, math.nan, math.inf])
    def test_rejects_bad_rho(self, rho):
        with pytest.raises(DomainError, match="rho must be"):
            accounting.zcdp_to_dp(rho, 1e-5)


class TestClassicGaussian:
    def test_sigma6(self):
        res = accounting.classic_gaussian_dp(6.0, 1e-5)
        assert res.eps == pytest.approx(0.808, abs=1e-3)
        assert res == EpsDelta(res.eps, 1e-5)

    def test_large_sigma_limit(self):
        assert accounting.classic_gaussian_dp(1e9, 1e-5).eps == pytest.approx(0.0, abs=1e-8)

    def test_small_sigma_flagged_invalid(self):
        res = accounting.classic_gaussian_dp(1.0, 1e-5)
        assert res.eps == pytest.approx(4.845, abs=1e-3)


class TestStrongComposition:
    def test_single_step_degenerate(self):
        eps0, dp = 0.5, 1e-6
        got = accounting.amplified_strong_composition(eps0, 1e-6, 1.0, 1, dp)
        want = eps0 * math.sqrt(2 * math.log(1 / dp)) + eps0 * (math.e ** eps0 - 1)
        assert got.eps == pytest.approx(want, rel=1e-12)

    def test_documented_endpoint(self):
        got = accounting.amplified_strong_composition(0.808, 1e-5, 0.01, 40000, 1e-5)
        assert got.eps == pytest.approx(18.0, abs=0.05)
        assert got.delta == pytest.approx(40000 * 0.01 * 1e-5 + 1e-5)

    def test_vanishing_sampling_ratio(self):
        got = accounting.amplified_strong_composition(0.808, 1e-5, 1e-9, 1000, 1e-5)
        assert got.eps < 1e-3

    def test_sqrt_k_dominated_growth(self):
        eps_100 = accounting.amplified_strong_composition(0.808, 1e-5, 0.01, 10000, 1e-5).eps
        eps_400 = accounting.amplified_strong_composition(0.808, 1e-5, 0.01, 40000, 1e-5).eps
        ratio = eps_400 / eps_100
        assert 2.0 <= ratio <= 3.0  # between pure sqrt(4x) and pure linear growth


class TestRsConversion:
    def test_interior_branch_endpoint(self):
        u = accounting.rs_order_cap(0.01, 6.0)
        assert u == pytest.approx(102.283, abs=1e-3)
        eps = accounting.rs_eps(40000 * 0.01 ** 2 / 36.0, u, 1e-5)
        assert eps == pytest.approx(2.37, abs=0.01)

    def test_capped_branch(self):
        # delta = 1e-9 < exp(-0.01 * 81) ~ 0.445 forces the order-capped branch
        eps = accounting.rs_eps(0.01, 10.0, 1e-9)
        assert eps == pytest.approx(0.1 - math.log(1e-9) / 9.0, rel=1e-12)

    def test_vanishing_rho_limit(self):
        # As rho_hat -> 0 at fixed delta the interior-branch validity
        # condition delta >= exp(-rho_hat (u-1)^2) fails, so the order-capped
        # branch governs and eps tends to -log(delta)/(u-1); eps -> 0 only
        # when the order cap also grows without bound.
        assert accounting.rs_eps(1e-18, 50.0, 1e-5) == pytest.approx(
            -math.log(1e-5) / 49.0, rel=1e-9
        )
        assert accounting.rs_eps(1e-18, 1e12, 1e-5) < 1e-6

    @pytest.mark.parametrize("rho_hat,u", [(0.01, 10.0), (0.1, 40.0), (2.0, 3.0)])
    def test_branches_agree_at_threshold(self, rho_hat, u):
        delta = math.exp(-rho_hat * (u - 1.0) ** 2)
        interior = rho_hat + 2.0 * math.sqrt(rho_hat * math.log(1.0 / delta))
        capped = rho_hat * u - math.log(delta) / (u - 1.0)
        assert interior == pytest.approx(capped, rel=1e-9)
        assert accounting.rs_eps(rho_hat, u, delta) == pytest.approx(interior, rel=1e-9)

    @pytest.mark.parametrize(
        "rho_hat,u_alpha,message",
        [(-1.0, 10.0, "rho_hat"), (math.nan, 10.0, "rho_hat"), (0.1, 1.0, "u_alpha"), (0.1, math.nan, "u_alpha")],
    )
    def test_rejects_bad_inputs(self, rho_hat, u_alpha, message):
        # NaN fails every comparison, so a check written as `x < 0` lets it through
        with pytest.raises(DomainError, match=message):
            accounting.rs_eps(rho_hat, u_alpha, 1e-5)

    def test_infinite_order_cap_allowed(self):
        # the cap of an rs ledger with no steps: the interior branch always holds
        assert accounting.rs_eps(0.1, math.inf, 1e-5) == accounting.zcdp_to_dp(0.1, 1e-5).eps

    @pytest.mark.parametrize("u_alpha", [math.inf, 1e12, 50.0, 1.5])
    def test_zero_spend_is_zero_eps(self, u_alpha):
        # no spend releases nothing: the interior branch, not the capped one's
        # -log(delta)/(u-1), and no NaN from 0 * inf at an infinite cap
        assert accounting.rs_eps(0.0, u_alpha, 1e-5) == 0.0

    @pytest.mark.parametrize("q,sigma,message", [(0.0, 4.0, "q must lie"), (1.0, 4.0, "q must lie"), (0.5, 4.0, "q \\* sigma")])
    def test_order_cap_domain(self, q, sigma, message):
        with pytest.raises(DomainError, match=message):
            accounting.rs_order_cap(q, sigma)


class TestRfLedger:
    def test_uniform_budget_row(self):
        ledger = PrivacyLedger("rf")
        for epoch in range(100):
            ledger.charge_rf_epoch(8.0, epoch=epoch)
        assert ledger.rho_sum == 0.78125

    def test_step_decay_hand_sum(self):
        ledger = PrivacyLedger("rf")
        for sigma, count in ((10.0, 10), (6.0, 10), (3.6, 10), (2.16, 1)):
            for _ in range(count):
                ledger.charge_rf_epoch(sigma)
        assert ledger.rho_sum == pytest.approx(0.68186, abs=5e-6)

    def test_single_charge(self):
        assert PrivacyLedger("rf").charge_rf_epoch(10.0).rho_sum == pytest.approx(0.005)

    def test_mode_mismatch(self):
        with pytest.raises(UsageError):
            PrivacyLedger("rs").charge_rf_epoch(8.0)
        with pytest.raises(UsageError):
            PrivacyLedger("rf").charge_rs_iteration(0.01, 6.0)

    def test_monotone_and_replayable(self):
        ledger = PrivacyLedger("rf")
        last = 0.0
        for epoch, sigma in enumerate((10.0, 9.0, 5.5, 2.0, 8.0)):
            ledger.charge_rf_epoch(sigma, epoch=epoch)
            assert ledger.rho_sum > last
            last = ledger.rho_sum
        replayed = ledger.replay()
        assert replayed.rho_sum == ledger.rho_sum
        assert replayed.records == ledger.records


class TestRsLedger:
    def test_forty_thousand_charges(self):
        ledger = PrivacyLedger("rs")
        for _ in range(40000):
            ledger.charge_rs_iteration(0.01, 6.0)
        assert ledger.rho_hat == pytest.approx(0.11111, abs=1e-5)
        assert ledger.u_alpha_min == pytest.approx(36 * math.log(1 / 0.06) + 1, rel=1e-12)
        assert ledger.to_dp(1e-5).eps == pytest.approx(2.37, abs=0.01)

    def test_single_charge(self):
        ledger = PrivacyLedger("rs").charge_rs_iteration(0.01, 6.0)
        assert ledger.rho_hat == pytest.approx(2.7778e-6, abs=1e-9)

    def test_ratio_precondition(self):
        with pytest.raises(PreconditionError):
            PrivacyLedger("rs").charge_rs_iteration(0.02, 6.0)  # 0.02 > 1/96

    @pytest.mark.parametrize("mode", ["rf", "rs"])
    def test_empty_ledger_reports_zero_eps(self, mode):
        assert PrivacyLedger(mode).to_dp(1e-5) == EpsDelta(0.0, 1e-5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(UsageError, match="'rf' or 'rs'"):
            PrivacyLedger("xs")

    def test_heterogeneous_order_cap_is_min(self):
        ledger = PrivacyLedger("rs")
        ledger.charge_rs_iteration(0.01, 6.0)
        cap_first = ledger.u_alpha_min
        ledger.charge_rs_iteration(0.005, 8.0)
        assert ledger.u_alpha_min == min(cap_first, accounting.rs_order_cap(0.005, 8.0))
        replayed = ledger.replay()
        assert replayed.rho_hat == ledger.rho_hat
        assert replayed.u_alpha_min == ledger.u_alpha_min

    def test_random_heterogeneous_sweep_monotonicity(self):
        import numpy as np

        rng = np.random.default_rng(42)
        ledger = PrivacyLedger("rs")
        last_rho, last_cap = 0.0, float("inf")
        for i in range(300):
            sigma = float(rng.uniform(2.0, 20.0))
            q = float(rng.uniform(1e-4, 1.0 / (16.0 * sigma)))
            ledger.charge_rs_iteration(q, sigma, epoch=i // 10, iteration=i % 10)
            assert ledger.rho_hat > last_rho
            assert ledger.u_alpha_min <= last_cap
            last_rho, last_cap = ledger.rho_hat, ledger.u_alpha_min
        replayed = ledger.replay()
        assert replayed.rho_hat == ledger.rho_hat
        assert replayed.u_alpha_min == ledger.u_alpha_min
        assert replayed.records == ledger.records


class TestRsSigmaFloor:
    """rs releases are priced only at sigma >= RS_SIGMA_MIN, where the moment
    bound behind the q^2/sigma^2 charge was validated."""

    def test_ledger_refuses_sigma_where_the_bound_fails(self):
        q, sigma = 0.0497, 1.0  # q <= 1/(16 sigma), yet D_4 exceeds the bound
        assert renyi.subsampled_renyi_divergence(q, sigma, 4) > 4 * q * q / (sigma * sigma)
        ledger = PrivacyLedger("rs")
        with pytest.raises(PreconditionError, match="sigma >= 2.0"):
            ledger.admit(sigma, 1e9, 1e-5, q=q)
        with pytest.raises(PreconditionError, match="sigma >= 2.0"):
            ledger.charge_rs_iteration(q, sigma)
        assert _state(ledger) == _state(PrivacyLedger("rs"))

    def test_floor_itself_is_admitted(self):
        ledger = PrivacyLedger("rs").charge_rs_iteration(1.0 / 32.0, accounting.RS_SIGMA_MIN)
        assert ledger.rho_hat == (1.0 / 32.0) ** 2 / 4.0

    def test_replay_refuses_a_step_below_the_floor(self):
        ledger = PrivacyLedger("rs")
        ledger.records.append(accounting.LedgerRecord(0, 0, 1, 1, 0.01, 1.9, 0.01 ** 2 / 1.9 ** 2))
        with pytest.raises(PreconditionError):
            ledger.replay()

    def test_rf_mode_has_no_floor(self):
        assert PrivacyLedger("rf").admit(1.0, 1.0, 1e-5)


class TestAmplification:
    def test_formula(self):
        dp = 1e-6
        got = accounting.amplified_strong_composition(0.808, 1e-5, 0.01, 1, dp)
        eps = math.log(1 + 0.01 * (math.exp(0.808) - 1))
        want = eps * math.sqrt(2 * math.log(1 / dp)) + eps * (math.exp(eps) - 1)
        assert got.eps == pytest.approx(want, rel=1e-12)
        assert got.delta == pytest.approx(1e-7 + dp)

    def test_identity_at_q1(self):
        dp = 1e-6
        got = accounting.amplified_strong_composition(0.7, 1e-6, 1.0, 3, dp)
        want = 0.7 * math.sqrt(6 * math.log(1 / dp)) + 3 * 0.7 * (math.exp(0.7) - 1)
        assert got.eps == pytest.approx(want, rel=1e-12)
        assert got.delta == pytest.approx(3e-6 + dp)

    @pytest.mark.parametrize(
        "eps0,q,k,dp", [(0.8, 0.0, 1, 1e-5), (0.8, 1.5, 1, 1e-5), (-0.1, 0.5, 1, 1e-5), (0.8, 0.5, 0, 1e-5), (0.8, 0.5, 1, 0.0)]
    )
    def test_domain(self, eps0, q, k, dp):
        with pytest.raises(DomainError):
            accounting.amplified_strong_composition(eps0, 1e-5, q, k, dp)


class TestAdmit:
    @pytest.mark.parametrize("mode,q", [("rf", None), ("rs", 0.01)])
    def test_refused_admit_changes_nothing(self, mode, q):
        ledger = PrivacyLedger(mode)
        assert ledger.admit(6.0, 1.0, 1e-5, q=q, epoch=0)
        spent = ledger.total_rho if mode == "rf" else ledger.to_dp(1e-5).eps
        before = (ledger.rho_sum, ledger.rho_hat, ledger.u_alpha_min, list(ledger.records))
        # a smaller sigma would also lower the rs order cap if it were charged
        assert not ledger.admit(5.0, spent, 1e-5, q=q, epoch=1)
        assert (ledger.rho_sum, ledger.rho_hat, ledger.u_alpha_min, ledger.records) == before

    def test_all_releases_must_fit(self):
        ledger = PrivacyLedger("rf")
        budget = 2.5 * accounting.gaussian_rho(6.0)
        assert not ledger.admit(6.0, budget, 1e-5, releases=3)
        assert ledger.admit(6.0, budget, 1e-5, releases=2, epoch=0)
        assert ledger.records == [accounting.LedgerRecord(0, None, 1, 2, None, 6.0, accounting.gaussian_rho(6.0))]

    def test_rs_releases_are_one_record(self):
        ledger = PrivacyLedger("rs")
        assert ledger.admit(6.0, 1.0, 1e-5, q=0.01, releases=3, epoch=0, iteration=4)
        assert ledger.records == [accounting.LedgerRecord(0, 4, 1, 3, 0.01, 6.0, 0.01 ** 2 / 36.0)]
        assert ledger.u_alpha_min == accounting.rs_order_cap(0.01, 6.0)
        assert ledger.replay().rho_hat == ledger.rho_hat

    def test_validates_sigma_ratio_and_releases(self):
        with pytest.raises(DomainError):
            PrivacyLedger("rf").admit(float("nan"), 1.0, 1e-5)
        with pytest.raises(PreconditionError):
            PrivacyLedger("rs").admit(6.0, 10.0, 1e-5, q=0.02)  # 0.02 > 1/96
        with pytest.raises(DomainError):
            PrivacyLedger("rf").admit(6.0, 1.0, 1e-5, releases=0)
        with pytest.raises(DomainError):
            PrivacyLedger("rs").admit(6.0, 1.0, q=0.01)  # rs needs a delta
        for mode, q in (("rf", None), ("rs", 0.01)):
            for budget in (float("nan"), -1.0):
                with pytest.raises(DomainError):
                    PrivacyLedger(mode).admit(6.0, budget, 1e-5, q=q)

    def test_rf_needs_no_delta(self):
        ledger = PrivacyLedger("rf")
        assert ledger.admit(6.0, 1.0, releases=2, epoch=0)
        assert ledger.rho_sum == 2 * accounting.gaussian_rho(6.0)


DELTA = 1e-5


@st.composite
def _admission_runs(draw):
    """(mode, admissions, budget).  Each admission is (sigma, q, releases),
    with q None in rf mode.  Half the budgets are free; the others sit within
    a few ulps of the spend after some prefix of the admissions, where a check
    that adds up differently from the charge lets the spend overrun.  rs
    noise scales start at the floor ``RS_SIGMA_MIN``, below which the ledger
    refuses to price a release."""
    mode = draw(st.sampled_from(["rf", "rs"]))
    run = []
    for _ in range(draw(st.integers(1, 12))):
        sigma = draw(st.floats(1.0 if mode == "rf" else accounting.RS_SIGMA_MIN, 20.0))
        q = draw(st.floats(1e-4, 1.0 / (16.0 * sigma))) if mode == "rs" else None
        run.append((sigma, q, draw(st.integers(1, 4))))
    if draw(st.booleans()):
        return mode, run, draw(st.floats(0.0, 50.0))
    prefix = PrivacyLedger(mode)
    for sigma, q, releases in run[: draw(st.integers(1, len(run)))]:
        for _ in range(releases):
            if mode == "rf":
                prefix.charge_rf_epoch(sigma)
            else:
                prefix.charge_rs_iteration(q, sigma)
    budget = prefix.rho_sum - BUDGET_TOL if mode == "rf" else prefix.to_dp(DELTA).eps
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        budget = math.nextafter(budget, math.copysign(math.inf, ulps))
    return mode, run, budget


def _releases(ledger):
    """The ledger's records expanded to one single-release record per
    release, in charge order: the per-release ledger they stand for."""
    return [
        accounting.LedgerRecord(r.epoch, None if r.iteration is None else r.iteration + k, 1, 1, r.q, r.sigma, r.cost)
        for r in ledger.records for k in range(r.iterations) for _ in range(r.releases)
    ]


def _state(ledger):
    return ledger.rho_sum, ledger.rho_hat, ledger.u_alpha_min, _releases(ledger)


class TestLedgerInvariants:
    @settings(max_examples=300, deadline=None)
    @given(case=_admission_runs())
    @example(case=("rs", [(4.0, 0.01, 1)] * 40 + [(4.0, 0.01, 2)], 0.23732499066341411))
    @example(case=("rf", [(3.0, None, 1)] * 3 + [(3.0, None, 3)], 0.33333333333233334))
    def test_spend_fits_refusal_changes_nothing_replay_exact(self, case):
        mode, run, budget = case
        ledger = PrivacyLedger(mode)
        for epoch, (sigma, q, releases) in enumerate(run):
            before = _state(ledger)
            if ledger.admit(sigma, budget, DELTA, q=q, releases=releases, epoch=epoch):
                assert ledger.records[-1].releases == releases
                assert len(_releases(ledger)) == len(before[3]) + releases
                if mode == "rf":
                    assert ledger.rho_sum <= budget + BUDGET_TOL
                else:
                    assert ledger.to_dp(DELTA).eps <= budget
            else:
                assert _state(ledger) == before
            assert _state(ledger.replay()) == _state(ledger)


@st.composite
def _rs_epochs(draw):
    """Epochs offered to an rs ledger as (sigma, q, iterations, releases),
    and an eps budget on a boundary: to within a few ulps, either the spend
    after one of the offered iterations, so that a refusal falls on a prefix
    total, or the eps at the rs_eps branch switch under the first epoch's
    order cap, so that it falls where the conversion changes formula."""
    epochs = []
    for _ in range(draw(st.integers(1, 4))):
        sigma = draw(st.floats(2.0, 12.0))
        # q near its bound 1/(16 sigma) reaches the branch switch within a few hundred releases
        q = draw(st.one_of(st.floats(0.05, 1.0), st.floats(0.9, 1.0))) / (16.0 * sigma)
        epochs.append((sigma, q, draw(st.integers(0, 300)), draw(st.integers(1, 4))))
    unlimited, spends = PrivacyLedger("rs"), []
    for sigma, q, iterations, releases in epochs:
        for _ in range(iterations):
            unlimited.admit(sigma, math.inf, DELTA, q=q, releases=releases)
            spends.append(unlimited.to_dp(DELTA).eps)
    sigma, q = epochs[0][:2]
    u_alpha = accounting.rs_order_cap(q, sigma)
    switch = accounting.rs_eps(-math.log(DELTA) / (u_alpha - 1.0) ** 2, u_alpha, DELTA)
    on = draw(st.sampled_from(["prefix", "switch"] if spends else ["switch"]))
    budget = draw(st.sampled_from(spends)) if on == "prefix" else switch
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        budget = math.nextafter(budget, math.copysign(math.inf, ulps))
    return epochs, max(budget, 0.0)


class TestAdmitIterations:
    @settings(max_examples=200, deadline=None)
    @given(case=_rs_epochs())
    def test_equals_a_loop_of_admits(self, case):
        epochs, budget = case
        batched, looped = PrivacyLedger("rs"), PrivacyLedger("rs")
        for epoch, (sigma, q, iterations, releases) in enumerate(epochs):
            admitted = batched.admit(sigma, budget, DELTA, q, releases, epoch, 0, iterations=iterations)
            stop = 0
            while stop < iterations and looped.admit(sigma, budget, DELTA, q=q, releases=releases, epoch=epoch, iteration=stop):
                stop += 1
            assert admitted == stop
            assert _state(batched) == _state(looped)
            assert batched.to_dp(DELTA) == looped.to_dp(DELTA)
            assert _state(batched.replay()) == _state(batched)

    def test_records_each_iteration_and_release(self):
        ledger = PrivacyLedger("rs")
        assert ledger.admit(6.0, 1.0, 1e-5, 0.01, releases=2, epoch=5, iteration=0, iterations=3) == 3
        cost = 0.01 ** 2 / 36.0
        assert ledger.records == [accounting.LedgerRecord(5, 0, 3, 2, 0.01, 6.0, cost)]
        assert _releases(ledger) == [accounting.LedgerRecord(5, it, 1, 1, 0.01, 6.0, cost) for it in range(3) for _ in range(2)]

    def test_zero_iterations_change_nothing(self):
        for mode, q in (("rf", None), ("rs", 0.01)):
            ledger = PrivacyLedger(mode)
            assert ledger.admit(6.0, 1.0, 1e-5, q, iterations=0) == 0
            assert _state(ledger) == _state(PrivacyLedger(mode))

    def test_rf_iterations_are_epochs_at_one_sigma(self):
        ledger = PrivacyLedger("rf")
        budget = 3.5 * accounting.gaussian_rho(6.0)
        assert ledger.admit(6.0, budget, releases=1, epoch=2, iterations=5) == 3
        assert ledger.records == [accounting.LedgerRecord(2, None, 3, 1, None, 6.0, accounting.gaussian_rho(6.0))]
        assert ledger.rho_sum == 3 * accounting.gaussian_rho(6.0)

    def test_validates(self):
        with pytest.raises(DomainError):
            PrivacyLedger("rs").admit(6.0, 1.0, 1e-5, 0.01, iterations=-1)
        with pytest.raises(DomainError):
            PrivacyLedger("rs").admit(6.0, 1.0, 1e-5, 0.01, releases=0, iterations=3)
        with pytest.raises(DomainError):
            PrivacyLedger("rs").admit(6.0, float("nan"), 1e-5, 0.01, iterations=3)
        with pytest.raises(PreconditionError):
            PrivacyLedger("rs").admit(1.5, 1.0, 1e-5, 0.01, iterations=3)  # below RS_SIGMA_MIN


class Step(NamedTuple):
    """One release as the per-release ledger charged it."""

    epoch: Optional[int]
    iteration: Optional[int]
    q: Optional[float]
    sigma: float
    cost: float


class PerReleaseLedger:
    """The ledger as first written, one Step per iteration and release: the
    oracle for the record-per-admission ledger."""

    def __init__(self, mode):
        self.mode, self.rho_sum, self.rho_hat, self.u_alpha_min, self.released = mode, 0.0, 0.0, math.inf, []

    def _price(self, sigma, q, epoch, iteration):
        if self.mode == "rf":
            return Step(epoch, None, None, sigma, accounting.gaussian_rho(sigma))
        accounting.check_rs_release(q, sigma)
        return Step(epoch, iteration, q, sigma, q * q / (sigma * sigma))

    def _record(self, step, releases=1, budget=None, delta=None):
        total = self.total_rho
        for _ in range(releases):
            total += step.cost
        if self.mode == "rf":
            if budget is not None and accounting.rf_refuses(total, budget):
                return False
            self.rho_sum = total
        else:
            u_alpha = min(self.u_alpha_min, accounting.rs_order_cap(step.q, step.sigma))
            if budget is not None and accounting.rs_refuses(total, u_alpha, budget, delta):
                return False
            self.rho_hat, self.u_alpha_min = total, u_alpha
        self.released += [step] * releases
        return True

    def charge(self, sigma, q=None, epoch=None, iteration=None):
        self._record(self._price(sigma, q, epoch, iteration))

    def admit(self, sigma, budget, delta=None, q=None, releases=1, epoch=None, iteration=None, iterations=1):
        """One release check per iteration, numbered from ``iteration``, up to the first refusal."""
        admitted = 0
        while admitted < iterations:
            number = None if iteration is None else iteration + admitted
            if not self._record(self._price(sigma, q, epoch, number), releases, budget, delta):
                break
            admitted += 1
        return admitted

    @property
    def total_rho(self):
        return self.rho_sum if self.mode == "rf" else self.rho_hat

    def to_dp(self, delta):
        if self.mode == "rf" or not self.released:
            return accounting.zcdp_to_dp(self.total_rho, delta)
        return EpsDelta(accounting.rs_eps(self.rho_hat, self.u_alpha_min, delta), delta)


@st.composite
def _ledger_calls(draw):
    """(mode, calls) for one ledger.  Each call is (method, sigma, q,
    iterations, releases, share): ``share`` places the budget between the
    spend before the call (0) and the spend after all of it (1), so that
    calls are refused, admitted in part or admitted whole.  ``admit`` takes
    0 to 300 iterations of 1 to 4 releases (in rf, that many epochs at one
    sigma), ``charge`` one release without a budget."""
    mode = draw(st.sampled_from(["rf", "rs"]))
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        method = draw(st.sampled_from(["admit", "charge"]))
        sigma = draw(st.floats(1.0 if mode == "rf" else accounting.RS_SIGMA_MIN, 20.0))
        q = draw(st.floats(0.05, 1.0)) / (16.0 * sigma) if mode == "rs" else None
        iterations = draw(st.integers(0, 300)) if method == "admit" else 1
        releases = draw(st.integers(1, 4)) if method == "admit" else 1
        share = draw(st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1.5)))
        calls.append((method, sigma, q, iterations, releases, share))
    return mode, calls


def _budget(oracle, sigma, q, iterations, releases, share):
    """A budget at the spend after ``share`` of ``iterations * releases``
    more releases at ``(q, sigma)`` than the oracle has charged."""
    n = iterations * releases
    if oracle.mode == "rf":
        return oracle.rho_sum + share * n * accounting.gaussian_rho(sigma)
    u_alpha = min(oracle.u_alpha_min, accounting.rs_order_cap(q, sigma))
    return accounting.rs_eps(oracle.rho_hat + share * n * q * q / (sigma * sigma), u_alpha, DELTA)


def _as_steps(ledger):
    return [Step(s.epoch, s.iteration, s.q, s.sigma, s.cost) for s in _releases(ledger)]


class TestRecordPerAdmission:
    @settings(max_examples=200, deadline=None)
    @given(case=_ledger_calls())
    def test_equals_the_per_release_oracle(self, case):
        mode, calls = case
        ledger, oracle = PrivacyLedger(mode), PerReleaseLedger(mode)
        for epoch, (method, sigma, q, iterations, releases, share) in enumerate(calls):
            budget = _budget(oracle, sigma, q, iterations, releases, share)
            if method == "charge":
                if mode == "rf":
                    ledger.charge_rf_epoch(sigma, epoch=epoch)
                else:
                    ledger.charge_rs_iteration(q, sigma, epoch=epoch, iteration=epoch)
                oracle.charge(sigma, q, epoch, epoch)
            else:
                got = ledger.admit(sigma, budget, DELTA, q, releases, epoch, epoch, iterations)
                assert got == oracle.admit(sigma, budget, DELTA, q, releases, epoch, epoch, iterations)
            assert len(ledger.records) <= epoch + 1
        assert _as_steps(ledger) == oracle.released
        assert (ledger.rho_sum, ledger.rho_hat, ledger.u_alpha_min) == (oracle.rho_sum, oracle.rho_hat, oracle.u_alpha_min)
        assert ledger.to_dp(DELTA) == oracle.to_dp(DELTA)
        replayed = ledger.replay()
        assert replayed.records == ledger.records
        assert (replayed.rho_sum, replayed.rho_hat, replayed.u_alpha_min) == (ledger.rho_sum, ledger.rho_hat, ledger.u_alpha_min)

    def test_one_record_per_admission_and_flat_memory(self):
        ledger = PrivacyLedger("rs")
        for epoch in range(300):
            assert ledger.admit(4.0, math.inf, DELTA, 0.01, 4, epoch, 0, iterations=100) == 100
        assert len(ledger.records) == 300
        assert ledger.records[-1] == accounting.LedgerRecord(299, 0, 100, 4, 0.01, 4.0, 0.01 ** 2 / 16.0)

        def peak_mib(read):
            tracemalloc.start()
            try:
                read()
                return tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()

        def read_view():
            assert len(ledger.steps) == 120_000
            assert ledger.steps == ledger.replay().steps

        assert peak_mib(read_view) < 1.0
        assert peak_mib(lambda: list(ledger.steps)) > 2.0  # the per-release list the view does not build

    def test_steps_view_is_the_records_release_by_release(self):
        ledger = PrivacyLedger("rs").charge_rs_iteration(0.01, 6.0)
        ledger.admit(6.0, 1.0, DELTA, 0.01, releases=2, epoch=1, iteration=0, iterations=3)
        steps = list(ledger.steps)
        assert steps == _releases(ledger) and len(ledger.steps) == 7
        assert ledger.steps[2:5] == steps[2:5] and ledger.steps[-1] == steps[-1]
        assert ledger.steps == PrivacyLedger("rs", steps=steps).steps != PrivacyLedger("rs", steps=steps[:-1]).steps
        with pytest.raises(AttributeError):
            ledger.steps = []

    def test_built_from_steps_replays_them(self):
        # perfbench's broken-ledger check: a ledger with one step dropped replays to a different total
        ledger = PrivacyLedger("rf")
        for epoch in range(3):
            ledger.admit(6.0, 1.0, releases=2, epoch=epoch)
        rebuilt = PrivacyLedger("rf", rho_sum=ledger.rho_sum, steps=ledger.steps)
        assert rebuilt.steps == ledger.steps and len(rebuilt.records) == 6
        assert rebuilt.replay().rho_sum == ledger.rho_sum
        broken = PrivacyLedger("rf", rho_sum=ledger.rho_sum, steps=ledger.steps[:-1])
        assert broken.replay().rho_sum != broken.rho_sum
        assert broken.replay().steps == broken.steps != ledger.steps


@st.composite
def _rs_offers(draw):
    """(q, sigma, releases) offered to an rs ledger one after another: sigma
    from 0.5 to 30, below the floor too, and q up to the ratio bound
    1/(16 sigma), near which the moment bound is tightest."""
    offers = []
    for _ in range(draw(st.integers(1, 8))):
        sigma = draw(st.floats(0.5, 30.0))
        offers.append((draw(st.floats(0.05, 1.0)) / (16.0 * sigma), sigma, draw(st.integers(1, 50))))
    return offers


class TestRsChargeCoversExactRenyi:
    """The rs charge of q^2/sigma^2 a release stands for D_alpha <= alpha
    q^2/sigma^2 at every order 2 <= alpha <= u_alpha.  So the exact
    integer-order divergences of the admitted releases, composed, stay within
    (alpha - 1) alpha rho_hat at every order up to the ledger's order cap.
    This checks the charge itself, not its conversion to (eps, delta)."""

    @settings(max_examples=150, deadline=None)
    @given(offers=_rs_offers())
    @example(offers=[(0.0497, 1.0, 1)])
    def test_composed_divergence_within_charge(self, offers):
        ledger, admitted = PrivacyLedger("rs"), []
        for q, sigma, releases in offers:
            try:
                ledger.admit(sigma, math.inf, DELTA, q=q, releases=releases)
            except PreconditionError:
                continue
            admitted.append((q, sigma, releases))
        assume(admitted and ledger.u_alpha_min >= 2.0)  # some integer order to check
        alpha_max = min(math.floor(ledger.u_alpha_min), renyi._ORDER_CAP)
        alphas = np.arange(2, alpha_max + 1)
        composed = sum(releases * renyi._log_moments(q, sigma, alpha_max) for q, sigma, releases in admitted)
        assert np.all(composed <= (alphas - 1.0) * alphas * ledger.rho_hat)


class TestAccountantShapes:
    def test_noise_scale_sweep_moves_rf_much_more_than_rs(self):
        # at a fixed 200-epoch horizon, raising sigma from 5 to 14 collapses
        # the reshuffling-mode eps while the sampling-mode eps barely moves
        delta, q, epochs = 1e-5, 0.01, 200
        def eps_rf(sigma):
            return accounting.zcdp_to_dp(epochs * accounting.gaussian_rho(sigma), delta).eps
        def eps_rs(sigma):
            rho_hat = epochs * 100 * q * q / (sigma * sigma)
            return accounting.rs_eps(rho_hat, accounting.rs_order_cap(q, sigma), delta)
        rf_drop = eps_rf(5.0) - eps_rf(14.0)
        rs_drop = eps_rs(5.0) - eps_rs(14.0)
        assert eps_rf(5.0) > 3 * eps_rf(14.0)
        assert rf_drop > 4 * rs_drop > 0

    def test_rf_eps_independent_of_sampling_ratio(self):
        # reshuffling-mode accounting depends only on the epoch count, so
        # batch size / sampling ratio never enters the charge
        delta, epochs = 1e-5, 200
        results = []
        for _iters_per_epoch in (10, 100, 1000):  # i.e. q in {0.1, 0.01, 0.001}
            ledger = PrivacyLedger("rf")
            for epoch in range(epochs):
                ledger.charge_rf_epoch(6.0, epoch=epoch)
            results.append(ledger.to_dp(delta).eps)
        assert results[0] == results[1] == results[2]
        direct = accounting.zcdp_to_dp(epochs * accounting.gaussian_rho(6.0), delta).eps
        assert results[0] == pytest.approx(direct, rel=1e-12)

    def test_documented_delta_convention_keeps_strong_below_rf_at_400_epochs(self):
        # With delta0 = delta' = 1e-5 the amplified strong-composition curve
        # sits below the reshuffling-mode curve at epoch 400 (17.98 < 21.55);
        # the two only cross around twenty thousand epochs.  Pinned here so a
        # change in the delta-splitting convention is caught.
        delta = 1e-5
        eps_rf = accounting.zcdp_to_dp(400 * accounting.gaussian_rho(6.0), delta).eps
        eps_strong = accounting.amplified_strong_composition(
            accounting.classic_gaussian_dp(6.0, delta).eps, delta, 0.01, 40000, delta
        ).eps
        assert eps_strong == pytest.approx(18.0, abs=0.05)
        assert eps_strong < eps_rf
