"""Renyi-divergence machinery for the subsampled Gaussian mechanism.

The central object is the order-``alpha`` Renyi divergence between the
one-dimensional mixture ``q N(1, sigma^2) + (1-q) N(0, sigma^2)`` and
``N(0, sigma^2)``.  At integer orders it has the closed form (Abadi et al.
2016, arXiv:1607.00133)

    exp((alpha-1) D_alpha) = 1 + sum_{j=2..alpha} C(alpha, j) q^j (1-q)^(alpha-j) (exp(j(j-1)/(2 sigma^2)) - 1),

whose terms are all nonnegative, so it is summed in log space to rounding
accuracy even where ``D_alpha`` is tiny.  Only integer orders are supported.
The reverse divergence ``D_alpha(base || mixture)`` is not computed: it never
exceeds the forward one (Mironov, Talwar & Zhang 2019, arXiv:1908.10530,
Thm 5).  On top of it sit:

* a moments-accountant epsilon for k-fold composition, optimizing the usual
  ``(k * log_moment(lambda) + log(1/delta)) / lambda`` over integer orders;
* a grid validator checking the closed-form bound
  ``D_alpha <= q^2 alpha / sigma^2`` against the exact divergence;
* a changepoint locator for the divergence-versus-order curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .accounting import EpsDelta, rs_order_cap
from .errors import DomainError, NumericalError

# Work on at most this many (row, column) entries at a time, so that large
# order caps or epoch counts keep bounded temporaries.
_BLOCK_ENTRIES = 1 << 16
# Highest moment order of the accountant and of the bound validation.
_ORDER_CAP = 200
# exp(x) rounds to exactly 0.0 for every double x below this (to 0.0 from
# about -745.13 down).
_EXP_ZERO = -746.0


def _blocks(n_rows: int, row_len: int, first: int = 0) -> List[slice]:
    """Ranges of the rows ``first..n_rows-1`` holding at most
    ``_BLOCK_ENTRIES`` entries (one row at least)."""
    step = max(1, _BLOCK_ENTRIES // max(1, row_len))
    return [slice(i, min(i + step, n_rows)) for i in range(first, n_rows, step)]


# log(k!) for k = 0, 1, ..., built on first use and extended when a larger
# k is asked for; each entry is math.lgamma(k + 1), whatever the table's size.
_log_factorial_table = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """``log(k!)`` for k = 0..n, as a read-only view of one table per process."""
    global _log_factorial_table
    have = len(_log_factorial_table)
    if n >= have:
        size = max(n + 1, 2 * have)
        grown = np.fromiter(map(math.lgamma, range(have + 1, size + 1)), float, size - have)
        _log_factorial_table = np.concatenate([_log_factorial_table, grown])
        _log_factorial_table.flags.writeable = False
    return _log_factorial_table[: n + 1]


def _toeplitz_rows(seq: np.ndarray, rows: slice) -> np.ndarray:
    """Rows ``rows`` of the n-column matrix ``T[r, c] = seq[n-1-r+c]``, where
    ``seq`` has length 2n - 1, as a view of ``seq``."""
    n, step = (seq.size + 1) // 2, seq.itemsize
    return np.ndarray((rows.stop - rows.start, n), seq.dtype, seq, (n - 1 - rows.start) * step, (-step, step))


def _log_moments(q: float, sigma: float, alpha_max: int, alpha_min: int = 2) -> np.ndarray:
    """``(alpha - 1) * D_alpha(mixture || base)`` at the integer orders
    alpha = alpha_min..alpha_max, from the closed form in the module docstring.

    Row ``alpha`` of the (order x j) matrix holds the log of term j, or -inf
    for j > alpha; each row is reduced by a log-sum-exp and then ``log1p``.
    With k = alpha - j, the parts ``log k!`` and ``k log(1-q)`` are Toeplitz
    in (alpha, j): each is a strided view of one sequence over k, with
    ``log k! = +inf`` for k < 0.  ``exp`` is taken only where it can be
    nonzero.  Only the rows of the requested orders are built; each row is
    reduced on its own, so an order's value does not depend on ``alpha_min``.
    """
    if not 0.0 < q <= 1.0:
        raise DomainError(f"sampling ratio q must lie in (0, 1], got {q}")
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    if alpha_max < 2:
        raise DomainError(f"the highest order must be at least 2, got {alpha_max}")
    j = np.arange(2, alpha_max + 1)
    if q == 1.0:  # two unit-separated Gaussians: only the j = alpha term is left
        alphas = j[alpha_min - 2 :]
        return alphas * (alphas - 1.0) / (2.0 * sigma * sigma)
    n = j.size
    log_fact = _log_factorials(alpha_max)
    x = j * (j - 1.0) / (2.0 * sigma * sigma)
    log_col = j * math.log(q) - log_fact[j] + x + np.log(-np.expm1(-x))  # log(q^j (e^x - 1) / j!)
    # Both sequences run over k = alpha - j from n-1 down to -(n-1).
    log_fact_k = np.concatenate([log_fact[n - 1 :: -1], np.full(n - 1, math.inf)])
    k_log1m_q = np.arange(n - 1, -n, -1) * math.log1p(-q)
    out = np.empty(n)
    for rows in _blocks(n, n, alpha_min - 2):
        terms = np.subtract(log_fact[j[rows], None], _toeplitz_rows(log_fact_k, rows))
        terms += _toeplitz_rows(k_log1m_q, rows)
        terms += log_col
        peak = terms.max(axis=1, keepdims=True)
        terms -= peak
        # exp where it can be nonzero; elsewhere it would return exactly 0.0
        dead = terms < _EXP_ZERO
        np.exp(terms, out=terms, where=~dead)
        np.copyto(terms, 0.0, where=dead)
        out[rows] = np.logaddexp(0.0, peak[:, 0] + np.log(np.sum(terms, axis=1)))
    return out[alpha_min - 2 :]


def subsampled_renyi_divergence(q: float, sigma: float, alpha: float) -> float:
    """Order-``alpha`` Renyi divergence ``D_alpha(mixture || base)`` of the
    subsampled Gaussian mechanism, for an integral order ``alpha >= 2``
    (``100`` or ``100.0``).  ``q = 1`` degenerates to two unit-separated
    Gaussians, for which the divergence is ``alpha / (2 sigma^2)``."""
    if not (2 <= alpha < math.inf and alpha == math.floor(alpha)):
        raise DomainError(f"order must be an integer of at least 2, got {alpha}")
    return float(_log_moments(q, sigma, int(alpha), int(alpha))[0]) / (alpha - 1.0)


def divergence_changepoint(q: float, sigma: float, alpha_max: int = _ORDER_CAP) -> int:
    """First integer order at which the divergence-vs-order curve takes off.

    The curve hugs zero while sampling amplification is in effect and then
    climbs parallel to the unsampled-Gaussian line ``alpha / (2 sigma^2)``.
    The changepoint is detected on the discrete slope: the first alpha whose
    increment ``D(alpha) - D(alpha - 1)`` exceeds half the Gaussian line's
    slope ``1/(2 sigma^2)``.
    """
    gaussian_slope = 1.0 / (2.0 * sigma * sigma)
    alphas = np.arange(2, alpha_max + 1)
    curve = _log_moments(q, sigma, alpha_max) / (alphas - 1.0)
    takeoff = np.flatnonzero(np.diff(curve) > 0.5 * gaussian_slope)
    if takeoff.size:
        return int(alphas[takeoff[0] + 1])
    raise NumericalError(f"no divergence changepoint found for q={q}, sigma={sigma} up to alpha={alpha_max}")


def default_lambda_max(q: float, sigma: float) -> int:
    """Largest moment order used by the accountant,
    ``min(ceil(sigma^2 log(1/(q sigma))), 200)``."""
    return min(int(math.ceil(rs_order_cap(q, sigma) - 1.0)), _ORDER_CAP)


def moments_accountant_eps(q: float, sigma: float, steps: int, delta: float) -> EpsDelta:
    """Tight numerical (eps, delta) for ``steps``-fold composition of the
    subsampled Gaussian mechanism, optimized over integer moment orders."""
    if steps < 0:
        raise DomainError(f"steps must be nonnegative, got {steps}")
    return EpsDelta(float(moments_accountant_curve(q, sigma, steps, 1, delta)[0]), delta)


def moments_accountant_curve(q: float, sigma: float, iters_per_epoch: int, epochs: int, delta: float) -> np.ndarray:
    """Per-epoch accountant epsilons for a fixed-(q, sigma) run.

    The per-step log moments ``lam * D_{lam+1}`` are computed once for the
    orders ``lam = 1..default_lambda_max(q, sigma)`` and reused across epochs.
    """
    if epochs < 0 or iters_per_epoch < 0:
        raise DomainError(f"epochs and iters_per_epoch must be nonnegative, got {epochs} and {iters_per_epoch}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    lambda_max = default_lambda_max(q, sigma)
    lams = np.arange(1, lambda_max + 1)
    moments = _log_moments(q, sigma, lambda_max + 1)
    steps = np.arange(1, epochs + 1) * iters_per_epoch
    log_inv_delta = math.log(1.0 / delta)
    out = np.empty(epochs)
    for rows in _blocks(epochs, lams.size):
        out[rows] = np.min((steps[rows, None] * moments + log_inv_delta) / lams, axis=1)
    return out


@dataclass(frozen=True)
class BoundCheck:
    """A grid point where the moment bound fails."""

    q: float
    sigma: float
    alpha: int
    divergence: float
    bound: float


@dataclass
class BoundReport:
    """Outcome of sweeping ``D_alpha <= q^2 alpha / sigma^2`` over a grid:
    the number of (q, sigma, alpha) checks, the smallest ``bound -
    divergence`` among them (inf if there are none) and the failing checks."""

    n_points: int = 0
    worst_slack: float = math.inf
    violations: List[BoundCheck] = field(default_factory=list)


def moment_bound_grid(
    sigmas: Sequence[float],
    q_step: float = 0.001,
    q_start: Optional[float] = None,
) -> List[Tuple[float, float]]:
    """(q, sigma) pairs with q running from ``q_start`` (default ``q_step``)
    to ``min(1, 1/(16 sigma))`` in steps of ``q_step``.  The first q is
    ``q_start`` itself, and the later ones are rounded to 12 decimals."""
    start = q_step if q_start is None else q_start
    if not 0.0 < q_step < math.inf:
        raise DomainError(f"q step must be positive and finite, got {q_step}")
    if not 0.0 < start <= 1.0:
        raise DomainError(f"first q must lie in (0, 1], got {start}")
    grid = []
    for sigma in sigmas:
        if not 0.0 < sigma < math.inf:
            raise DomainError(f"sigma must be positive and finite, got {sigma}")
        q_max = min(1.0, 1.0 / (16.0 * sigma))
        i = 0
        while True:
            q = start + i * q_step
            if q > q_max + 1e-12:
                break
            grid.append((q if i == 0 else round(q, 12), sigma))
            i += 1
    return grid


def validate_moment_bound(
    sigmas: Sequence[float],
    q_step: float = 0.001,
    q_start: Optional[float] = None,
    alpha_cap: int = _ORDER_CAP,
) -> BoundReport:
    """Check ``D_alpha <= q^2 alpha / sigma^2`` numerically over a grid.

    For each (q, sigma) the integer orders 2..min(order cap, alpha_cap) are
    tested in the forward direction, which dominates the reverse one;
    violations are recorded in the report, never raised.
    """
    if not alpha_cap >= 2:
        raise DomainError(f"alpha_cap must be at least 2, got {alpha_cap}")
    report = BoundReport()
    for q, sigma in moment_bound_grid(sigmas, q_step=q_step, q_start=q_start):
        alpha_max = math.floor(min(rs_order_cap(q, sigma), float(alpha_cap)))
        if alpha_max < 2:
            continue
        alphas = np.arange(2, alpha_max + 1)
        divergence = _log_moments(q, sigma, alpha_max) / (alphas - 1.0)
        bound = q * q * alphas / (sigma * sigma)
        report.n_points += alphas.size
        report.worst_slack = min(report.worst_slack, float(np.min(bound - divergence)))
        for i in np.flatnonzero(~(divergence <= bound)):
            report.violations.append(BoundCheck(q, sigma, int(alphas[i]), float(divergence[i]), float(bound[i])))
    return report
