"""Privacy-loss bookkeeping in terms of zero-concentrated differential privacy.

Costs are tracked as zCDP parameters ``rho`` and converted to classical
``(eps, delta)`` guarantees on demand.  Two batching regimes are supported:

* random reshuffling ("rf"): disjoint batches inside an epoch, so one epoch
  costs ``1/(2 sigma^2)`` regardless of the number of iterations, and epochs
  compose linearly on ``rho``;
* random sampling with replacement ("rs"): per-iteration charges
  ``q^2/sigma^2`` together with a cap ``u_alpha`` on the usable Renyi order,
  converted to ``(eps, delta)`` with a two-branch bound.

A :class:`PrivacyLedger` prices, checks and records every release in one place,
and its budget check reads the very totals it records.  Logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from typing import Iterable, Iterator, List, NamedTuple, Optional

from .errors import DomainError, PreconditionError, UsageError

#: Absolute slack used when comparing cumulative costs against a budget, so
#: that schedules engineered to consume a budget exactly (e.g. 100 epochs at
#: sigma=8 against 0.78125) are admitted despite float rounding.
BUDGET_TOL = 1e-12

#: Smallest noise multiplier rs accounting admits: the lower edge of the sigma
#: range over which ``dpbudget validate-bound``'s default grid confirms the
#: moment bound ``D_alpha <= alpha q^2 / sigma^2``.  Below sigma of about 1.08
#: the bound fails near q = 1/(16 sigma), so Abadi et al.'s sigma >= 1 is not
#: enough.
RS_SIGMA_MIN = 2.0


class EpsDelta(NamedTuple):
    eps: float
    delta: float


class LedgerRecord(NamedTuple):
    """One admission or charge: ``iterations`` consecutive iterations of
    ``epoch``, numbered from ``iteration`` (None if unnumbered), each of
    ``releases`` releases at ``(q, sigma)`` that cost ``cost`` apiece.  A
    single release is the record of one iteration and one release."""

    epoch: Optional[int]
    iteration: Optional[int]
    iterations: int
    releases: int
    q: Optional[float]
    sigma: float
    cost: float


def _check_delta(delta: Optional[float]) -> None:
    if delta is None or not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")


def _check_sigma(sigma: float) -> None:
    # a sigma below about 1.1e-162 has a 2 sigma^2 that underflows to 0
    if not (sigma > 0.0 and 2.0 * sigma * sigma > 0.0 and math.isfinite(sigma)):
        raise DomainError(f"sigma must be a positive finite real whose square does not underflow, got {sigma}")


def gaussian_rho(sigma: float) -> float:
    """zCDP cost of one Gaussian mechanism with noise multiplier ``sigma``.

    Adding noise with standard deviation ``sigma`` times the query's L2
    sensitivity per coordinate satisfies ``1/(2 sigma^2)``-zCDP.
    """
    _check_sigma(sigma)
    return 1.0 / (2.0 * sigma * sigma)


def zcdp_to_dp(rho: float, delta: float) -> EpsDelta:
    """Convert ``rho``-zCDP to ``(eps, delta)``-DP.

    Uses ``eps = rho + 2 sqrt(rho log(1/delta))``.
    """
    if rho < 0.0 or not math.isfinite(rho):
        raise DomainError(f"rho must be a nonnegative finite real, got {rho}")
    _check_delta(delta)
    return EpsDelta(rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta)), delta)


def classic_gaussian_dp(sigma: float, delta: float) -> EpsDelta:
    """Smallest eps for which the classical Gaussian bound holds at ``sigma``.

    Solves ``sigma^2 = 2 log(1.25/delta) / eps^2`` for eps.  The underlying
    tail bound is only stated for eps in (0, 1); outside that range the value
    is still returned.
    """
    _check_sigma(sigma)
    _check_delta(delta)
    return EpsDelta(math.sqrt(2.0 * math.log(1.25 / delta)) / sigma, delta)


def amplified_strong_composition(
    eps0: float, delta0: float, q: float, k: int, delta_prime: float
) -> EpsDelta:
    """Strong-composition baseline for k subsampled-Gaussian iterations.

    Each step's (eps0, delta0) guarantee is first amplified by Bernoulli(q)
    sampling to ``(eps, q delta0)`` with ``eps = log(1 + q (e^eps0 - 1))``,
    then the k amplified steps are composed with the strong composition
    theorem using slack ``delta_prime``: ``(eps sqrt(2 k log(1/delta'))
    + k eps (e^eps - 1), k q delta0 + delta')``.  No attempt is made to
    re-split delta0 so the total delta lands on a prescribed value.
    """
    if not (0.0 < q <= 1.0):
        raise DomainError(f"sampling ratio q must lie in (0, 1], got {q}")
    if eps0 < 0.0:
        raise DomainError(f"eps0 must be nonnegative, got {eps0}")
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    _check_delta(delta_prime)
    eps = math.log1p(q * math.expm1(eps0))
    total_eps = eps * math.sqrt(2.0 * k * math.log(1.0 / delta_prime)) + k * eps * math.expm1(eps)
    return EpsDelta(total_eps, k * (q * delta0) + delta_prime)


def rs_order_cap(q: float, sigma: float) -> float:
    """Largest usable Renyi order for the subsampled Gaussian mechanism,
    ``sigma^2 log(1/(q sigma)) + 1``."""
    _check_sigma(sigma)
    if not (0.0 < q < 1.0):
        raise DomainError(f"sampling ratio q must lie in (0, 1), got {q}")
    if q * sigma >= 1.0:
        raise DomainError(f"q * sigma must be below 1, got {q * sigma}")
    return sigma * sigma * math.log(1.0 / (q * sigma)) + 1.0


def check_rs_ratio(q: float, sigma: float) -> None:
    """Validate the sampling-ratio bound ``q <= 1/(16 sigma)`` required by the
    moment bound underlying rs accounting."""
    _check_sigma(sigma)
    if not (0.0 < q < 1.0):
        raise DomainError(f"sampling ratio q must lie in (0, 1), got {q}")
    if q > 1.0 / (16.0 * sigma):
        raise PreconditionError(
            f"rs accounting requires q <= 1/(16 sigma); got q={q}, 1/(16 sigma)={1.0 / (16.0 * sigma):.6g}"
        )


def check_rs_release(q: float, sigma: float) -> None:
    """Validate the preconditions of charging ``q^2/sigma^2`` for one sampled
    release: the ratio bound of :func:`check_rs_ratio` and ``sigma >=``
    :data:`RS_SIGMA_MIN`, the region where the moment bound was validated."""
    check_rs_ratio(q, sigma)
    if sigma < RS_SIGMA_MIN:
        raise PreconditionError(
            f"rs accounting requires sigma >= {RS_SIGMA_MIN}, where the moment bound is validated; got sigma={sigma}"
        )


def rs_eps(rho_hat: float, u_alpha: float, delta: float) -> float:
    """Two-branch (eps, delta) conversion for order-capped Renyi bounds.

    With divergence bounded by ``alpha * rho_hat`` for orders
    ``1 < alpha <= u_alpha``:

    * if ``rho_hat`` is 0 or ``delta >= exp(-rho_hat (u_alpha - 1)^2)`` the
      optimal order is interior and ``eps = rho_hat + 2 sqrt(rho_hat
      log(1/delta))``, which is 0 for no spend;
    * otherwise the cap binds and ``eps = rho_hat u_alpha
      - log(delta) / (u_alpha - 1)``.
    """
    if not rho_hat >= 0.0:  # NaN included
        raise DomainError(f"rho_hat must be nonnegative, got {rho_hat}")
    if not u_alpha > 1.0:
        raise DomainError(f"u_alpha must exceed 1, got {u_alpha}")
    _check_delta(delta)
    # Compare in log space: the threshold exp(-rho_hat (u-1)^2) underflows
    # long before the branch decision stops mattering.  No spend is tested
    # apart, as 0 * inf is NaN.
    if rho_hat == 0.0 or math.log(delta) >= -rho_hat * (u_alpha - 1.0) ** 2:
        return rho_hat + 2.0 * math.sqrt(rho_hat * math.log(1.0 / delta))
    return rho_hat * u_alpha - math.log(delta) / (u_alpha - 1.0)


def rf_refuses(total: float, budget: float) -> bool:
    """The rf admission rule: whether a running zCDP ``total`` exceeds
    ``budget`` by more than :data:`BUDGET_TOL`.  :class:`PrivacyLedger` and the
    exhaustion horizon of :mod:`dpbudget.schedules` both stop at it."""
    return total > budget + BUDGET_TOL


def rs_refuses(total: float, u_alpha: float, budget: float, delta: float) -> bool:
    """The rs admission rule: whether a running ``rho_hat`` of ``total``
    under order cap ``u_alpha`` converts to an eps at ``delta`` above
    ``budget``.  :class:`PrivacyLedger` stops at it, one release at a time or
    an epoch's iterations at once."""
    return rs_eps(total, u_alpha, delta) > budget


@dataclass(init=False)
class PrivacyLedger:
    """Append-only record of privacy charges under one batching regime.

    In "rf" mode the ledger accumulates ``rho_sum`` per epoch; in "rs" mode it
    accumulates ``rho_hat`` per iteration together with the smallest usable
    order cap seen so far.  Each admission or charge is priced once and kept
    as one :class:`LedgerRecord` in ``records``, so an rs epoch of 100
    iterations of 4 releases is one record, not 400; the records are how a
    ledger is read.  Every entry point, :meth:`replay` included, charges
    through one helper, so :meth:`replay` reproduces the records and totals
    bit for bit.

    ``steps`` is a read-only per-release view of the records, and a ledger
    can be built from given records, ``steps``, with its rf total
    ``rho_sum`` given as it is, which :meth:`replay` then recomputes; both
    serve the benchmark's output checks.
    """

    mode: str
    rho_sum: float
    rho_hat: float
    u_alpha_min: float
    records: List[LedgerRecord]

    def __init__(
        self,
        mode: str,
        rho_sum: float = 0.0,
        steps: Iterable[LedgerRecord] = (),
    ) -> None:
        if mode not in ("rf", "rs"):
            raise UsageError(f"ledger mode must be 'rf' or 'rs', got {mode!r}")
        self.mode, self.rho_sum, self.rho_hat, self.u_alpha_min = mode, rho_sum, 0.0, math.inf
        self.records = list(steps)

    @property
    def steps(self) -> "ReleaseView":
        return ReleaseView(self.records)

    def _record(
        self,
        sigma: float,
        q: Optional[float],
        epoch: Optional[int],
        iteration: Optional[int],
        iterations: int = 1,
        releases: int = 1,
        budget: Optional[float] = None,
        delta: Optional[float] = None,
    ) -> int:
        """Price one release at ``(q, sigma)``, then charge up to ``iterations``
        iterations of ``releases`` releases each, adding the cost to the
        running total one release at a time, and stop before the first
        iteration whose total a given ``budget`` refuses.  Record the charged
        iterations as one record and return their count."""
        if self.mode == "rf":
            q, iteration, cost = None, None, gaussian_rho(sigma)
        else:
            check_rs_release(q, sigma)
            cost = q * q / (sigma * sigma)
            u_alpha = min(self.u_alpha_min, rs_order_cap(q, sigma))
        # the running total after each iteration's releases, added one at a time
        totals = islice(accumulate(repeat(cost, iterations * releases), initial=self.total_rho), releases, None, releases)
        charged = 0
        for candidate in totals:
            if budget is not None and (
                rf_refuses(candidate, budget) if self.mode == "rf" else rs_refuses(candidate, u_alpha, budget, delta)
            ):
                break
            total, charged = candidate, charged + 1
        if charged:
            if self.mode == "rf":
                self.rho_sum = total
            else:
                self.rho_hat, self.u_alpha_min = total, u_alpha
            self.records.append(LedgerRecord(epoch, iteration, charged, releases, q, sigma, cost))
        return charged

    def charge_rf_epoch(self, sigma: float, epoch: Optional[int] = None) -> "PrivacyLedger":
        """Charge one epoch of reshuffled training at noise scale ``sigma``.

        Batches inside the epoch are disjoint, so the whole epoch costs
        ``1/(2 sigma^2)`` no matter how many iterations it contains.
        """
        if self.mode != "rf":
            raise UsageError("charge_rf_epoch requires an rf-mode ledger")
        self._record(sigma, None, epoch, None)
        return self

    def charge_rs_iteration(
        self,
        q: float,
        sigma: float,
        epoch: Optional[int] = None,
        iteration: Optional[int] = None,
    ) -> "PrivacyLedger":
        """Charge one sampled iteration: ``rho_hat += q^2/sigma^2`` and lower
        the order cap to ``min(u_alpha_min, sigma^2 log(1/(q sigma)) + 1)``."""
        if self.mode != "rs":
            raise UsageError("charge_rs_iteration requires an rs-mode ledger")
        self._record(sigma, q, epoch, iteration)
        return self

    def admit(
        self,
        sigma: float,
        budget: float,
        delta: Optional[float] = None,
        q: Optional[float] = None,
        releases: int = 1,
        epoch: Optional[int] = None,
        iteration: Optional[int] = None,
        iterations: int = 1,
    ) -> int:
        """Charge up to ``iterations`` iterations, numbered from ``iteration``,
        each of ``releases`` Gaussian releases at noise scale ``sigma``; stop
        before the first whose spend would exceed ``budget``.  Returns how
        many were charged; a refused first iteration changes nothing.

        In rf mode an iteration is one epoch and ``budget`` is a zCDP total
        (compared with tolerance :data:`BUDGET_TOL`; ``delta`` is unused); in
        rs mode it is one sampled batch at ratio ``q`` and ``budget`` is an
        eps total at ``delta``.  The admission is priced
        once, and the totals checked are the totals recorded: every prefix
        total is formed with the additions of a loop of one-iteration
        admissions, left to right, so the count, the records' releases and
        the totals equal that loop's.
        """
        if iterations < 0:
            raise DomainError(f"iterations must be nonnegative, got {iterations}")
        if releases < 1:
            raise DomainError(f"releases must be at least 1, got {releases}")
        if not budget >= 0.0:
            raise DomainError(f"budget must be nonnegative, got {budget}")
        return self._record(sigma, q, epoch, iteration, iterations, releases, budget, delta)

    @property
    def total_rho(self) -> float:
        return self.rho_sum if self.mode == "rf" else self.rho_hat

    def to_dp(self, delta: float) -> EpsDelta:
        """Convert the cumulative cost to an (eps, delta) guarantee; eps is 0 if empty."""
        if self.mode == "rf":
            return zcdp_to_dp(self.rho_sum, delta)
        return EpsDelta(rs_eps(self.rho_hat, self.u_alpha_min, delta), delta)

    def replay(self) -> "PrivacyLedger":
        """Rebuild a fresh ledger from the records, pricing each once and
        adding its costs one release at a time."""
        fresh = PrivacyLedger(self.mode)
        for r in self.records:
            fresh._record(r.sigma, r.q, r.epoch, r.iteration, r.iterations, r.releases)
        return fresh


class ReleaseView:
    """A read-only view of a ledger's records as one single-release
    :class:`LedgerRecord` per release, in charge order.  ``len``, iteration
    and ``==`` between two views hold no per-release list; indexing builds
    it, and a slice is a list."""

    __slots__ = ("_records",)

    def __init__(self, records: List[LedgerRecord]) -> None:
        self._records = records

    def __len__(self) -> int:
        return sum(r.iterations * r.releases for r in self._records)

    def __iter__(self) -> Iterator[LedgerRecord]:
        for r in self._records:
            for k in range(r.iterations):
                iteration = None if r.iteration is None else r.iteration + k
                yield from repeat(LedgerRecord(r.epoch, iteration, 1, 1, r.q, r.sigma, r.cost), r.releases)

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReleaseView):
            return NotImplemented
        if self._records == other._records:
            return True
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))
