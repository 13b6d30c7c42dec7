"""Noise-scale schedules and privacy-budget arithmetic over training time.

A schedule maps the epoch index t (0-based: t=0 is the first epoch) to the
noise multiplier ``sigma_t``.  Five families are provided:

* ``uniform``:    sigma_t = sigma0
* ``time``:       sigma_t = sigma0 / (1 + k t)
* ``exp``:        sigma_t = sigma0 * exp(-k t)
* ``step``:       sigma_t = sigma0 * k^floor(t / period)
* ``poly``:       sigma_t = (sigma0 - sigma_end) (1 - t/period)^k + sigma_end
                  for t < period, then constant at sigma_end
* ``validation``: feedback-driven; sigma shrinks by factor k whenever the
                  moving-average validation accuracy stops improving (handled
                  by :class:`ValidationController`, not by ``sigma_at``).

Given a ``period``, ``time`` and ``exp`` apply the decay per period
(``t -> floor(t / period)``) instead of per epoch.  A schedule refuses the
keys its kind does not read.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional

from .errors import ConfigError, InfeasibleTargetError, UsageError, check_config_fields, config_from_json
from .accounting import gaussian_rho, rf_refuses

DECAY_KINDS = ("time", "exp", "step", "poly")
# Every kind, with the optional keys it reads; the others must be left unset.
_KIND_KEYS = {
    "uniform": (),
    "time": ("k", "period"),
    "exp": ("k", "period"),
    "step": ("k", "period"),
    "poly": ("k", "period", "sigma_end"),
    "validation": ("k", "period", "delta_thresh", "m"),
}


@dataclass(frozen=True)
class NoiseSchedule:
    kind: str
    sigma0: float
    k: Optional[float] = None
    period: Optional[int] = None
    sigma_end: Optional[float] = None
    delta_thresh: Optional[float] = None
    m: Optional[int] = None

    def __post_init__(self) -> None:
        check_config_fields(self)
        if self.kind not in _KIND_KEYS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        unread = [key for key in _OPTIONAL_KEYS if getattr(self, key) is not None and key not in _KIND_KEYS[self.kind]]
        if unread:
            raise ConfigError(f"{self.kind} schedules do not read {unread}")
        if self.sigma0 <= 0.0:
            raise ConfigError(f"sigma0 must be positive, got {self.sigma0}")
        if self.kind == "uniform":
            return
        k_max = 1.0 if self.kind in ("step", "validation") else math.inf
        if self.k is None or not 0.0 < self.k < k_max:
            raise ConfigError(f"{self.kind} decay requires 0 < k < {k_max}, got {self.k}")
        if (self.period is not None or self.kind not in ("time", "exp")) and (self.period is None or self.period < 1):
            raise ConfigError(f"{self.kind} decay requires a positive period")
        if self.kind == "poly" and (self.sigma_end is None or not 0.0 < self.sigma_end < self.sigma0):
            raise ConfigError("poly decay requires 0 < sigma_end < sigma0")
        if self.kind == "validation":
            if self.m is None or self.m < 1 or self.m > self.period:
                raise ConfigError("validation decay requires 1 <= m <= period")
            if self.delta_thresh is None:
                raise ConfigError("validation decay requires an improvement threshold")

    def to_dict(self) -> dict:
        """The set fields in declaration order: no ``None`` values."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {key: value for key, value in values if value is not None}

    @staticmethod
    def from_dict(d: dict) -> "NoiseSchedule":
        return config_from_json(NoiseSchedule, "schedule", d)


_OPTIONAL_KEYS = tuple(f.name for f in fields(NoiseSchedule)[2:])  # all but kind and sigma0


def uniform(sigma0: float) -> NoiseSchedule:
    return NoiseSchedule("uniform", sigma0)


def time_decay(sigma0: float, k: float, period: Optional[int] = None) -> NoiseSchedule:
    return NoiseSchedule("time", sigma0, k=k, period=period)


def exp_decay(sigma0: float, k: float, period: Optional[int] = None) -> NoiseSchedule:
    return NoiseSchedule("exp", sigma0, k=k, period=period)


def step_decay(sigma0: float, k: float, period: int) -> NoiseSchedule:
    return NoiseSchedule("step", sigma0, k=k, period=period)


def poly_decay(sigma0: float, sigma_end: float, k: float, period: int) -> NoiseSchedule:
    return NoiseSchedule("poly", sigma0, k=k, period=period, sigma_end=sigma_end)


def validation_decay(sigma0: float, k: float, period: int, delta_thresh: float, m: int) -> NoiseSchedule:
    return NoiseSchedule("validation", sigma0, k=k, period=period, delta_thresh=delta_thresh, m=m)


def _sigma_formula(schedule: NoiseSchedule) -> Callable[[int], float]:
    """``t -> sigma_t`` for a deterministic schedule, its kind read once."""
    kind, sigma0, k, period, sigma_end = schedule.kind, schedule.sigma0, schedule.k, schedule.period, schedule.sigma_end
    if kind == "uniform":
        return lambda t: sigma0
    if kind in ("time", "exp"):
        period = period or 1  # per epoch: t // 1 == t
        if kind == "time":
            return lambda t: sigma0 / (1.0 + k * (t // period))
        return lambda t: sigma0 * math.exp(-k * (t // period))
    if kind == "step":
        return lambda t: sigma0 * k ** (t // period)
    # poly: constant after the decay horizon
    return lambda t: sigma_end if t >= period else (sigma0 - sigma_end) * (1.0 - t / period) ** k + sigma_end


def sigma_at(schedule: NoiseSchedule, t: int) -> float:
    """Noise scale of epoch ``t`` for a deterministic schedule."""
    if t < 0:
        raise ConfigError(f"epoch index must be nonnegative, got {t}")
    if schedule.kind == "validation":
        raise UsageError("validation schedules are stateful; use ValidationController")
    return _sigma_formula(schedule)(t)


@dataclass
class ValidationController:
    """Feedback controller for the validation-based schedule.

    ``observe`` is called once per validation epoch with that epoch's
    accuracy.  Every ``period`` validation epochs (and once at least ``m``
    accuracies exist) the controller compares the m-window moving average
    against the value at the previous check; an improvement of at most
    ``delta_thresh`` triggers one decay of sigma by the factor k.  Sigma is
    recomputed as ``sigma0 * k^n_triggers`` so repeated decays cannot drift.
    """

    schedule: NoiseSchedule
    history: List[float] = field(default_factory=list)
    last_checked_avg: float = 0.0
    n_triggers: int = 0

    def __post_init__(self) -> None:
        if self.schedule.kind != "validation":
            raise UsageError("ValidationController requires a validation schedule")

    @property
    def sigma(self) -> float:
        return self.schedule.sigma0 * self.schedule.k ** self.n_triggers

    def observe(self, accuracy: float) -> float:
        """Record one validation accuracy; returns the sigma to use next."""
        self.history.append(float(accuracy))
        n = len(self.history)
        if n % self.schedule.period == 0 and n >= self.schedule.m:
            window = self.history[-self.schedule.m:]
            avg = sum(window) / len(window)
            if avg - self.last_checked_avg <= self.schedule.delta_thresh:
                self.n_triggers += 1
            self.last_checked_avg = avg
        return self.sigma


def epochs_until_exhaustion(schedule: NoiseSchedule, rho_total: float, max_epochs: int = 1_000_000) -> int:
    """Largest E such that the first E epochs fit within ``rho_total``.

    Epoch t costs ``gaussian_rho(sigma_t)``, added to a running total that
    stops at the first epoch :func:`~dpbudget.accounting.rf_refuses`: the
    cost, sum and rule by which an rf :class:`PrivacyLedger` stops training,
    so the count is exactly the number of epochs a budget-checked run with
    whole-model clipping executes.
    """
    if schedule.kind == "validation":
        raise UsageError("exhaustion horizon is undefined for data-dependent schedules")
    if not 0.0 <= rho_total < math.inf:
        raise ConfigError(f"rho_total must be finite and nonnegative, got {rho_total}")
    sigma = _sigma_formula(schedule)
    total = 0.0
    for epoch in range(max_epochs):
        total += gaussian_rho(sigma(epoch))
        if rf_refuses(total, rho_total):
            return epoch
    return max(max_epochs, 0)


def solve_decay_rate(
    kind: str,
    sigma0: float,
    rho_total: float,
    target_epochs: int,
    grid: float = 1e-4,
    period: Optional[int] = None,
    sigma_end: Optional[float] = None,
) -> float:
    """Smallest decay rate on the ``grid`` lattice that exhausts ``rho_total``
    in exactly ``target_epochs`` epochs.

    The training horizon is monotone in k (nonincreasing for time/exp/poly,
    nondecreasing for step), so one bisection over grid indices finds the
    first k whose horizon reaches the target (the last index if none does),
    and one check confirms that it attains the target exactly.  A target
    outside the lattice's range of horizons, or one skipped by the
    integer-valued horizon, raises :class:`InfeasibleTargetError`.
    """
    if kind not in DECAY_KINDS:
        raise ConfigError(f"kind must be one of {DECAY_KINDS}, got {kind!r}")
    if target_epochs < 1:
        raise ConfigError(f"target_epochs must be at least 1, got {target_epochs}")
    if not 0.0 < grid < math.inf:
        raise ConfigError(f"grid must be positive and finite, got {grid}")

    def horizon(index: int) -> int:
        sched = NoiseSchedule(kind, sigma0, k=index * grid, period=period, sigma_end=sigma_end)
        return epochs_until_exhaustion(sched, rho_total)

    # Search ranges: step factors must stay below 1 by definition; time/exp
    # rates are searched up to 1.0 per decay (already exhausting any
    # practical budget within a few decays), that is up to ``period`` when
    # the decay runs per period; poly powers reach the single digits, so cap
    # at 16.
    if kind == "poly":
        hi_index = int(round(16.0 / grid))
    elif kind == "step":
        hi_index = int(round(1.0 / grid)) - 1
    else:
        hi_index = int(round((1.0 if period is None else period) / grid))
    sign = 1 if kind == "step" else -1  # step: slower decay (larger k) -> more epochs
    index = 1 + bisect.bisect_left(range(1, hi_index), sign * target_epochs, key=lambda i: sign * horizon(i))
    reached = horizon(index)
    if reached != target_epochs:
        raise InfeasibleTargetError(
            f"{kind} decay cannot reach exactly {target_epochs} epochs on the {grid:g} grid "
            f"(nearest attained: {reached})"
        )
    return index * grid
