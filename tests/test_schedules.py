import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from dpbudget import data, nn
from dpbudget.accounting import PrivacyLedger, gaussian_rho
from dpbudget.dpsgd import TrainConfig, train
from dpbudget.errors import ConfigError, InfeasibleTargetError, UsageError
from dpbudget.schedules import (
    NoiseSchedule,
    ValidationController,
    epochs_until_exhaustion,
    exp_decay,
    poly_decay,
    sigma_at,
    solve_decay_rate,
    step_decay,
    time_decay,
    uniform,
)

BUDGET = 0.78125
TINY = data.synth_blobs(8, 2, 2, seed=0)


def _reference_sigma(schedule, t):
    """sigma_t written out per kind apart from the package: the values
    ``sigma_at`` must match bit for bit."""
    s = schedule
    if s.kind == "uniform":
        return s.sigma0
    if s.kind in ("time", "exp"):
        u = t if s.period is None else t // s.period
        return s.sigma0 / (1.0 + s.k * u) if s.kind == "time" else s.sigma0 * math.exp(-s.k * u)
    if s.kind == "step":
        return s.sigma0 * s.k ** (t // s.period)
    if t >= s.period:
        return s.sigma_end
    return (s.sigma0 - s.sigma_end) * (1.0 - t / s.period) ** s.k + s.sigma_end


def _ledger_horizon(schedule, rho_total, max_epochs=1_000_000):
    """The horizon as an rf ledger sees it: epoch t is admitted at sigma_t
    until the ledger refuses one."""
    ledger = PrivacyLedger("rf")
    epoch = 0
    while epoch < max_epochs and ledger.admit(_reference_sigma(schedule, epoch), rho_total):
        ledger.records.clear()  # an rf admission reads only the running total
        epoch += 1
    return epoch


@st.composite
def _deterministic_schedules(draw):
    kind = draw(st.sampled_from(["uniform", "time", "exp", "step", "poly"]))
    sigma0 = draw(st.floats(0.5, 20.0))
    if kind == "uniform":
        return uniform(sigma0)
    if kind in ("time", "exp"):
        return NoiseSchedule(kind, sigma0, k=draw(st.floats(1e-4, 3.0)), period=draw(st.none() | st.integers(1, 30)))
    if kind == "step":
        return step_decay(sigma0, draw(st.floats(0.05, 0.999)), draw(st.integers(1, 30)))
    return poly_decay(sigma0, sigma0 * draw(st.floats(0.05, 0.95)), draw(st.floats(0.1, 16.0)), draw(st.integers(1, 300)))


@st.composite
def _horizon_cases(draw):
    """(schedule, rho_total, max_epochs): the budget is drawn freely, is 0, or
    is the cost of the first n epochs summed in order, moved by a fraction of
    the admission tolerance; max_epochs is the default (None) or a cap."""
    schedule = draw(_deterministic_schedules())
    budget = draw(st.sampled_from(["free", "zero", "fit"]))
    if budget == "free":
        rho_total = draw(st.floats(0.0, 3.0))
    elif budget == "zero":
        rho_total = 0.0
    else:
        total = 0.0
        for t in range(draw(st.integers(1, 60))):
            total += gaussian_rho(_reference_sigma(schedule, t))
        rho_total = max(0.0, total + draw(st.sampled_from([0.0, 5e-13, -5e-13, -2e-12])))
    return schedule, rho_total, draw(st.none() | st.integers(-2, 200))


class TestSigmaAt:
    def test_exp_identity_at_zero(self):
        assert sigma_at(exp_decay(10.0, 0.0138), 0) == 10.0

    def test_step_arithmetic(self):
        assert sigma_at(step_decay(10.0, 0.6, 10), 25) == pytest.approx(3.6, rel=1e-12)

    def test_poly_endpoint_and_plateau(self):
        sched = poly_decay(10.0, 2.0, 3.0, 100)
        assert sigma_at(sched, 100) == 2.0
        assert sigma_at(sched, 250) == 2.0
        assert sigma_at(sched, 0) == 10.0

    def test_uniform_constant(self):
        sched = uniform(8.0)
        assert all(sigma_at(sched, t) == 8.0 for t in (0, 1, 57, 4000))

    def test_per_period_variant(self):
        sched = exp_decay(10.0, 0.1, period=10)
        assert sigma_at(sched, 9) == 10.0
        assert sigma_at(sched, 10) == pytest.approx(10.0 * math.exp(-0.1))
        sched = time_decay(10.0, 0.5, period=4)
        assert [sigma_at(sched, t) for t in (0, 3, 4, 11, 12)] == [10.0, 10.0, 10.0 / 1.5, 5.0, 4.0]

    @pytest.mark.parametrize(
        "sched",
        [
            time_decay(10.0, 0.05),
            exp_decay(10.0, 0.01),
            step_decay(10.0, 0.6, 10),
        ],
    )
    def test_monotone_decay(self, sched):
        values = [sigma_at(sched, t) for t in range(200)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_poly_monotone_then_constant(self):
        sched = poly_decay(10.0, 2.0, 3.0, 100)
        values = [sigma_at(sched, t) for t in range(150)]
        assert all(a >= b for a, b in zip(values[:100], values[1:101]))
        assert all(v == 2.0 for v in values[100:])

    @settings(max_examples=200, deadline=None)
    @given(schedule=_deterministic_schedules())
    def test_bit_equal_to_one_expression_per_kind(self, schedule):
        assert [repr(sigma_at(schedule, t)) for t in range(301)] == [repr(_reference_sigma(schedule, t)) for t in range(301)]

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigError):
            sigma_at(uniform(8.0), -1)

    def test_validation_kind_needs_controller(self):
        sched = NoiseSchedule("validation", 10.0, k=0.7, period=10, delta_thresh=0.01, m=5)
        with pytest.raises(UsageError):
            sigma_at(sched, 0)


class TestScheduleValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSchedule("step", 10.0, k=1.5, period=10)
        with pytest.raises(ConfigError):
            NoiseSchedule("poly", 10.0, k=3.0, period=100, sigma_end=12.0)
        with pytest.raises(ConfigError):
            NoiseSchedule("time", 10.0, k=-0.1)
        with pytest.raises(ConfigError):
            NoiseSchedule("validation", 10.0, k=0.7, period=4, delta_thresh=0.01, m=5)
        with pytest.raises(ConfigError):
            NoiseSchedule("nope", 10.0)

    def test_nonpositive_sigma0_rejected(self):
        with pytest.raises(ConfigError, match="sigma0 must be positive"):
            NoiseSchedule("uniform", 0.0)

    def test_validation_without_threshold_rejected(self):
        with pytest.raises(ConfigError, match="improvement threshold"):
            NoiseSchedule("validation", 10.0, k=0.7, period=4, m=2)

    @pytest.mark.parametrize(
        "sched,want",
        [
            (uniform(8.0), {"kind": "uniform", "sigma0": 8.0}),
            (time_decay(10.0, 0.05), {"kind": "time", "sigma0": 10.0, "k": 0.05}),
            (exp_decay(10.0, 0.01), {"kind": "exp", "sigma0": 10.0, "k": 0.01}),
            (exp_decay(10.0, 0.1, period=10), {"kind": "exp", "sigma0": 10.0, "k": 0.1, "period": 10}),
            (step_decay(10.0, 0.6, 10), {"kind": "step", "sigma0": 10.0, "k": 0.6, "period": 10}),
            (poly_decay(10.0, 2.0, 3.0, 100), {"kind": "poly", "sigma0": 10.0, "k": 3.0, "period": 100, "sigma_end": 2.0}),
            (
                NoiseSchedule("validation", 10.0, k=0.7, period=10, delta_thresh=0.01, m=5),
                {"kind": "validation", "sigma0": 10.0, "k": 0.7, "period": 10, "delta_thresh": 0.01, "m": 5},
            ),
        ],
        ids=["uniform", "time", "exp", "exp-per-period", "step", "poly", "validation"],
    )
    def test_dict_round_trip(self, sched, want):
        got = sched.to_dict()
        # tune writes this dict, so its key order is part of the output
        assert list(got.items()) == list(want.items())
        assert NoiseSchedule.from_dict(got) == sched
        with pytest.raises(ConfigError):
            NoiseSchedule.from_dict({"kind": "exp", "sigma0": 10.0, "k": 0.01, "bogus": 1})

    def test_per_period_key_is_unknown(self):
        with pytest.raises(ConfigError, match="unknown schedule keys"):
            NoiseSchedule.from_dict({"kind": "exp", "sigma0": 10.0, "k": 0.1, "period": 10, "per_period": True})

    @pytest.mark.parametrize("kind", ["time", "exp"])
    @pytest.mark.parametrize("period", [0, -1])
    def test_period_below_one_rejected(self, kind, period):
        with pytest.raises(ConfigError):
            NoiseSchedule(kind, 10.0, k=0.1, period=period)


# The optional keys each kind reads, and those of them it requires.
_READS = {
    "uniform": ((), ()),
    "time": (("k", "period"), ("k",)),
    "exp": (("k", "period"), ("k",)),
    "step": (("k", "period"), ("k", "period")),
    "poly": (("k", "period", "sigma_end"), ("k", "period", "sigma_end")),
    "validation": (("k", "period", "delta_thresh", "m"), ("k", "period", "delta_thresh", "m")),
}
# A value of each optional key that every kind reading it accepts.
_VALID = {"k": 0.5, "period": 4, "sigma_end": 1.0, "delta_thresh": 0.1, "m": 2}


class TestScheduleKeys:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(list(_READS)), keys=st.sets(st.sampled_from(list(_VALID))))
    @example(kind="uniform", keys={"k", "period"})
    @example(kind="time", keys={"k", "delta_thresh"})
    @example(kind="time", keys={"k", "sigma_end"})
    @example(kind="exp", keys={"k", "period"})
    def test_accepted_exactly_when_every_key_is_read_and_every_required_key_set(self, kind, keys):
        reads, required = _READS[kind]
        values = {key: _VALID[key] for key in keys}
        if keys <= set(reads) and set(required) <= keys:
            assert NoiseSchedule(kind, 4.0, **values).to_dict() == {"kind": kind, "sigma0": 4.0, **values}
        else:
            with pytest.raises(ConfigError):
                NoiseSchedule(kind, 4.0, **values)


class TestValidationController:
    def make(self, k=0.7, period=1, m=1, thresh=0.01):
        return ValidationController(NoiseSchedule("validation", 10.0, k=k, period=period, delta_thresh=thresh, m=m))

    def test_small_improvement_triggers_decay(self):
        ctrl = self.make()
        assert ctrl.observe(0.90) is None  # vs initial 0 -> improvement 0.9, no trigger
        assert ctrl.sigma == 10.0
        ctrl.observe(0.905)  # improvement 0.005 <= 0.01 -> decay
        assert ctrl.sigma == pytest.approx(7.0)

    def test_large_improvement_keeps_sigma(self):
        ctrl = self.make()
        ctrl.observe(0.50)
        ctrl.observe(0.55)  # improvement 0.05 > 0.01
        assert ctrl.sigma == 10.0

    def test_two_triggers_compound(self):
        ctrl = self.make()
        ctrl.observe(0.90)
        ctrl.observe(0.905)
        ctrl.observe(0.906)
        assert ctrl.sigma == pytest.approx(4.9)

    def test_no_drift_after_many_triggers(self):
        ctrl = self.make()
        ctrl.observe(0.5)
        for _ in range(40):
            ctrl.observe(0.5)
        assert ctrl.sigma == 10.0 * 0.7 ** ctrl.n_triggers

    def test_window_and_period_gating(self):
        ctrl = ValidationController(NoiseSchedule("validation", 10.0, k=0.7, period=3, delta_thresh=0.01, m=2))
        # checks fire only every 3 observations and need >= 2 history entries
        ctrl.observe(0.1)
        ctrl.observe(0.2)
        assert ctrl.last_checked_avg == 0.0
        ctrl.observe(0.3)  # first check: mean(0.2, 0.3)=0.25 vs 0 -> no trigger
        assert ctrl.sigma == 10.0
        assert ctrl.last_checked_avg == pytest.approx(0.25)
        ctrl.observe(0.3)
        ctrl.observe(0.25)
        ctrl.observe(0.26)  # second check: mean(0.25, 0.26)=0.255 vs 0.25 -> trigger
        assert ctrl.sigma == pytest.approx(7.0)

    def test_requires_validation_kind(self):
        with pytest.raises(UsageError):
            ValidationController(uniform(8.0))


class TestExhaustion:
    @pytest.mark.parametrize(
        "sched,expected",
        [
            (uniform(8.0), 100),
            (time_decay(10.0, 0.05), 38),
            (step_decay(10.0, 0.6, 10), 31),
            (exp_decay(10.0, 0.01), 71),
            (poly_decay(10.0, 2.0, 3.0, 100), 44),
        ],
    )
    def test_budget_table(self, sched, expected):
        assert epochs_until_exhaustion(sched, BUDGET) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["exp", "step"]),
        sigma0=st.floats(2.0, 20.0),
        k=st.floats(0.001, 0.9),
        period=st.integers(1, 20),
        rho_total=st.floats(0.0, 2.0),
    )
    @example(kind="step", sigma0=10.0, k=0.6, period=10, rho_total=BUDGET)
    def test_ledger_consistency(self, kind, sigma0, k, period, rho_total):
        # the horizon is the number of epochs a budget-checked training run
        # with whole-model clipping executes before the ledger refuses one
        sched = exp_decay(sigma0, k) if kind == "exp" else step_decay(sigma0, k, period)
        horizon = epochs_until_exhaustion(sched, rho_total)
        config = TrainConfig(schedule=sched, clip_norm=1.0, max_epochs=horizon + 1, seed=0, rho_total=rho_total)
        report = train(config, TINY, nn.MlpModel.init([2, 3, 2], seed=0))
        assert (report.epochs_run, report.stop_reason) == (horizon, "budget_exhausted")

    def test_memory_stays_flat_over_a_long_horizon(self):
        # 50,000 admitted epochs: keeping one ledger step per epoch would
        # peak at about 6 MB
        tracemalloc.start()
        try:
            assert epochs_until_exhaustion(NoiseSchedule("uniform", 1000.0), 0.78125, max_epochs=50_000) == 50_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @settings(max_examples=300, deadline=None)
    @given(case=_horizon_cases())
    @example(case=(uniform(8.0), BUDGET, None))
    @example(case=(uniform(8.0), BUDGET, 100))
    @example(case=(uniform(8.0), BUDGET, 99))
    @example(case=(uniform(8.0), 0.0, None))
    @example(case=(uniform(8.0), BUDGET, 0))
    @example(case=(step_decay(10.0, 0.6, 10), BUDGET, -1))
    def test_equals_the_ledger_walk(self, case):
        schedule, rho_total, max_epochs = case
        kwargs = {} if max_epochs is None else {"max_epochs": max_epochs}
        assert epochs_until_exhaustion(schedule, rho_total, **kwargs) == _ledger_horizon(schedule, rho_total, **kwargs)

    def test_rejects_nan_and_inf_budget(self):
        for rho_total in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                epochs_until_exhaustion(uniform(8.0), rho_total)

    def test_validation_kind_rejected(self):
        with pytest.raises(UsageError):
            epochs_until_exhaustion(NoiseSchedule("validation", 10.0, k=0.7, period=10, delta_thresh=0.01, m=5), BUDGET)


DECAY_RATE_TABLE = {
    "time": {30: 0.076, 40: 0.0441, 50: 0.0281, 60: 0.019, 70: 0.0132, 80: 0.0093, 90: 0.0067, 100: 0.0048},
    "step": {30: 0.5459, 40: 0.7008, 50: 0.7922, 60: 0.851, 70: 0.891, 80: 0.919, 90: 0.94, 100: 0.956},
    "exp": {30: 0.0442, 40: 0.0282, 50: 0.0193, 60: 0.0138, 70: 0.0101, 80: 0.0075, 90: 0.0056, 100: 0.0041},
    "poly": {30: 6.2077, 40: 3.5277, 50: 2.1948, 60: 1.4317, 70: 0.9549, 80: 0.6382, 90: 0.4167, 100: 0.1626},
}


def _solver_kwargs(kind):
    if kind == "step":
        return {"period": 10}
    if kind == "poly":
        return {"period": 100, "sigma_end": 2.0}
    return {}


def _schedule_with_k(kind, k):
    if kind == "time":
        return time_decay(10.0, k)
    if kind == "exp":
        return exp_decay(10.0, k)
    if kind == "step":
        return step_decay(10.0, k, 10)
    return poly_decay(10.0, 2.0, k, 100)


class TestSolveDecayRate:
    @pytest.mark.parametrize(
        "kind,target,message", [("uniform", 60, "kind must be one of"), ("exp", 0, "target_epochs must be at least 1")]
    )
    def test_bad_kind_or_target_rejected(self, kind, target, message):
        with pytest.raises(ConfigError, match=message):
            solve_decay_rate(kind, 10.0, BUDGET, target)

    def test_exp_target_60(self):
        assert solve_decay_rate("exp", 10.0, BUDGET, 60) == pytest.approx(0.0138, abs=1e-12)

    def test_time_target_30(self):
        assert solve_decay_rate("time", 10.0, BUDGET, 30) == pytest.approx(0.076, abs=1e-12)

    def test_exp_target_100(self):
        assert solve_decay_rate("exp", 10.0, BUDGET, 100) == pytest.approx(0.0041, abs=1e-12)

    def test_step_on_coarser_grid_matches_reported_value(self):
        # the published step-decay rates for long horizons sit on a 1e-3 grid
        assert solve_decay_rate("step", 10.0, BUDGET, 100, grid=1e-3, period=10) == pytest.approx(0.956, abs=1e-12)

    @pytest.mark.parametrize("kind,rate", [("exp", 1.5968), ("time", 3.9372)])
    def test_per_period_rates_beyond_one(self, kind, rate):
        # decaying once every 10 epochs, a 15-epoch horizon needs k above 1,
        # the top of the per-epoch search range
        k = solve_decay_rate(kind, 10.0, BUDGET, 15, period=10)
        assert k == pytest.approx(rate, abs=1e-12)
        assert epochs_until_exhaustion(NoiseSchedule(kind, 10.0, k=k, period=10), BUDGET) == 15
        assert epochs_until_exhaustion(NoiseSchedule(kind, 10.0, k=k - 1e-4, period=10), BUDGET) > 15

    @pytest.mark.parametrize("kind", list(DECAY_RATE_TABLE))
    @pytest.mark.parametrize("target", [30, 40, 50, 60, 70, 80, 90, 100])
    def test_round_trip(self, kind, target):
        k = solve_decay_rate(kind, 10.0, BUDGET, target, **_solver_kwargs(kind))
        assert epochs_until_exhaustion(_schedule_with_k(kind, k), BUDGET) == target

    @pytest.mark.parametrize("kind", list(DECAY_RATE_TABLE))
    @pytest.mark.parametrize("target", [30, 40, 50, 60, 70, 80, 90, 100])
    def test_published_rates_attain_their_targets(self, kind, target):
        k = DECAY_RATE_TABLE[kind][target]
        assert epochs_until_exhaustion(_schedule_with_k(kind, k), BUDGET) == target

    @pytest.mark.parametrize(
        "rho_total,grid", [(math.nan, 1e-4), (math.inf, 1e-4), (-1.0, 1e-4), (BUDGET, 0.0), (BUDGET, math.nan), (BUDGET, -1e-4)]
    )
    def test_invalid_budget_or_grid_rejected(self, rho_total, grid):
        with pytest.raises(ConfigError):
            solve_decay_rate("exp", 10.0, rho_total, 60, grid=grid)

    @pytest.mark.parametrize("kind", list(DECAY_RATE_TABLE))
    @pytest.mark.parametrize("target", [1, 100000], ids=["below", "above"])
    def test_infeasible_target(self, kind, target):
        # a target outside the lattice's horizons names the horizon at the nearer end
        last = {"step": 9999, "poly": 160000}.get(kind, 10000)  # the solver's last lattice index
        ends = [epochs_until_exhaustion(_schedule_with_k(kind, i * 1e-4), BUDGET) for i in (1, last)]
        nearest = min(ends) if target < min(ends) else max(ends)
        assert target < min(ends) or target > max(ends)
        with pytest.raises(InfeasibleTargetError, match=rf"\(nearest attained: {nearest}\)"):
            solve_decay_rate(kind, 10.0, BUDGET, target, **_solver_kwargs(kind))


@st.composite
def _solver_settings(draw):
    """(kind, sigma0, rho_total, period, sigma_end) as the solver takes them;
    the first epoch at sigma0 always fits the budget."""
    kind = draw(st.sampled_from(["time", "exp", "step", "poly"]))
    sigma0 = draw(st.floats(2.0, 20.0))
    rho_total = draw(st.floats(0.2, 2.0))
    period = draw(st.integers(1, 50) if kind in ("step", "poly") else st.none() | st.integers(1, 50))
    sigma_end = sigma0 * draw(st.floats(0.05, 0.9)) if kind == "poly" else None
    return kind, sigma0, rho_total, period, sigma_end


def _horizon(setting, k):
    kind, sigma0, rho_total, period, sigma_end = setting
    return epochs_until_exhaustion(NoiseSchedule(kind, sigma0, k=k, period=period, sigma_end=sigma_end), rho_total)


class TestSolverPremise:
    """The solver's bisection is exact because the horizon is monotone in k."""

    @settings(max_examples=60, deadline=None)
    @given(setting=_solver_settings(), index=st.integers(1, 9998))
    @example(setting=("step", 10.0, BUDGET, 10, None), index=9559)
    @example(setting=("exp", 10.0, BUDGET, None, None), index=137)
    @example(setting=("poly", 10.0, BUDGET, 100, 2.0), index=62076)  # poly's lattice reaches k = 16
    def test_horizon_is_monotone_between_neighbouring_lattice_values(self, setting, index):
        grid = 1e-4
        here, next_up = _horizon(setting, index * grid), _horizon(setting, (index + 1) * grid)
        if setting[0] == "step":
            assert here <= next_up  # a larger factor decays more slowly
        else:
            assert here >= next_up

    @settings(max_examples=40, deadline=None)
    @given(setting=_solver_settings(), grid=st.sampled_from([1e-3, 1e-2]), choice=st.data())
    def test_solved_rate_attains_the_target_and_the_one_below_does_not(self, setting, grid, choice):
        kind, sigma0, rho_total, period, sigma_end = setting
        top = round((16.0 if kind == "poly" else 1.0) / grid) - 1
        chosen = choice.draw(st.integers(1, top), label="chosen index")
        target = _horizon(setting, chosen * grid)
        k = solve_decay_rate(kind, sigma0, rho_total, target, grid=grid, period=period, sigma_end=sigma_end)
        index = round(k / grid)
        assert k == index * grid and 1 <= index <= chosen
        assert _horizon(setting, k) == target
        if index > 1:
            assert _horizon(setting, (index - 1) * grid) != target
