"""Numerical Renyi-divergence machinery for the subsampled Gaussian mechanism.

The central object is the order-``alpha`` Renyi divergence between the
one-dimensional mixture ``q N(1, sigma^2) + (1-q) N(0, sigma^2)`` and
``N(0, sigma^2)`` (and its reverse).  It is computed by deterministic
composite Gauss-Legendre quadrature of the ``alpha``-power integrand in log
space, so orders up to a few hundred are handled without overflow.  On top of
it sit:

* a moments-accountant epsilon for k-fold composition, optimizing the usual
  ``(k * log_moment(lambda) + log(1/delta)) / lambda`` over integer orders;
* a grid validator checking the closed-form bound
  ``D_alpha <= q^2 alpha / sigma^2`` against the numerics;
* a changepoint locator for the divergence-versus-order curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import roots_legendre

from .accounting import EpsDelta, rs_order_cap
from .errors import DomainError, NumericalError

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Quadrature layout: 16-node Gauss-Legendre panels of width sigma/2 spanning
# [-TAIL sigma, peak + TAIL sigma].  The integrand's rightmost peak sits near
# z = alpha, with curvature ~1/sigma^2, so 16 panel-widths of tail leave
# relative truncation error below e^-72.  A second pass at half the panel
# width guards against silent inaccuracy.
_NODES_16, _WEIGHTS_16 = roots_legendre(16)
_TAIL_SIGMAS = 16.0
_REFINE_RTOL = 1e-9


def _log_power_integral(
    q: float, sigma: float, alpha: float, reverse: bool, panel_width: float
) -> float:
    """log of the integral of ``p(z)^alpha r(z)^(1-alpha)`` over the line,
    where (p, r) is (mixture, base) or reversed."""
    lo = -_TAIL_SIGMAS * sigma
    hi = (1.0 if reverse else max(1.0, alpha)) + _TAIL_SIGMAS * sigma
    n_panels = int(math.ceil((hi - lo) / (panel_width * sigma)))
    edges = np.linspace(lo, hi, n_panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    z = (centers[:, None] + halves[:, None] * _NODES_16[None, :]).ravel()
    w = (halves[:, None] * _WEIGHTS_16[None, :]).ravel()

    norm = -math.log(sigma) - _LOG_SQRT_2PI
    log_base = -z * z / (2.0 * sigma * sigma) + norm
    log_shift = -(z - 1.0) ** 2 / (2.0 * sigma * sigma) + norm
    if q >= 1.0:
        log_mix = log_shift
    else:
        log_mix = np.logaddexp(math.log(q) + log_shift, math.log1p(-q) + log_base)
    if reverse:
        log_integrand = alpha * log_base + (1.0 - alpha) * log_mix
    else:
        log_integrand = alpha * log_mix + (1.0 - alpha) * log_base
    peak = float(log_integrand.max())
    return peak + math.log(float(np.sum(w * np.exp(log_integrand - peak))))


@lru_cache(maxsize=200_000)
def _log_renyi_power(q: float, sigma: float, alpha: float, reverse: bool) -> float:
    """``(alpha - 1) * D_alpha`` with a two-level refinement check."""
    coarse = _log_power_integral(q, sigma, alpha, reverse, panel_width=0.5)
    fine = _log_power_integral(q, sigma, alpha, reverse, panel_width=0.25)
    scale = max(1.0, abs(fine))
    if abs(fine - coarse) > _REFINE_RTOL * scale:
        raise NumericalError(
            "quadrature failed to converge for subsampled Renyi divergence",
            diagnostics={
                "q": q,
                "sigma": sigma,
                "alpha": alpha,
                "reverse": reverse,
                "coarse": coarse,
                "fine": fine,
            },
        )
    return fine


def subsampled_renyi_divergence(
    q: float, sigma: float, alpha: float, reverse: bool = False
) -> float:
    """Order-``alpha`` Renyi divergence of the subsampled Gaussian mechanism.

    Forward direction is ``D_alpha(mixture || base)``; ``reverse=True`` gives
    ``D_alpha(base || mixture)``.  ``q = 1`` degenerates to two unit-separated
    Gaussians, for which the divergence is ``alpha / (2 sigma^2)``.
    """
    if not (0.0 < q <= 1.0):
        raise DomainError(f"sampling ratio q must lie in (0, 1], got {q}")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if alpha <= 1.0:
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    return _log_renyi_power(float(q), float(sigma), float(alpha), bool(reverse)) / (alpha - 1.0)


def divergence_changepoint(q: float, sigma: float, alpha_max: int = 200) -> int:
    """First integer order at which the divergence-vs-order curve takes off.

    The curve hugs zero while sampling amplification is in effect and then
    climbs parallel to the unsampled-Gaussian line ``alpha / (2 sigma^2)``.
    The changepoint is detected on the discrete slope: the first alpha whose
    increment ``D(alpha) - D(alpha - 1)`` exceeds half the Gaussian line's
    slope ``1/(2 sigma^2)``.
    """
    gaussian_slope = 1.0 / (2.0 * sigma * sigma)
    previous = subsampled_renyi_divergence(q, sigma, 2.0)
    for alpha in range(3, alpha_max + 1):
        current = subsampled_renyi_divergence(q, sigma, float(alpha))
        if current - previous > 0.5 * gaussian_slope:
            return alpha
        previous = current
    raise NumericalError(
        f"no divergence changepoint found for q={q}, sigma={sigma} up to alpha={alpha_max}",
        diagnostics={"q": q, "sigma": sigma, "alpha_max": alpha_max},
    )


def default_lambda_max(q: float, sigma: float, cap: int = 200) -> int:
    """Largest moment order used by the accountant,
    ``min(ceil(sigma^2 log(1/(q sigma))), cap)``."""
    return min(int(math.ceil(rs_order_cap(q, sigma) - 1.0)), cap)


def subsampled_log_moment(q: float, sigma: float, lam: int) -> float:
    """Log moment of the privacy-loss variable at integer order ``lam``,
    i.e. ``lam * D_{lam+1}`` maximized over the two divergence directions."""
    if lam < 1:
        raise DomainError(f"moment order must be at least 1, got {lam}")
    alpha = float(lam + 1)
    forward = subsampled_renyi_divergence(q, sigma, alpha)
    backward = subsampled_renyi_divergence(q, sigma, alpha, reverse=True)
    return lam * max(forward, backward)


def moments_accountant_eps(
    q: float,
    sigma: float,
    steps: int,
    delta: float,
    lambda_max: Optional[int] = None,
) -> EpsDelta:
    """Tight numerical (eps, delta) for ``steps``-fold composition of the
    subsampled Gaussian mechanism, optimized over integer moment orders."""
    if steps < 0:
        raise DomainError(f"steps must be nonnegative, got {steps}")
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if lambda_max is None:
        lambda_max = default_lambda_max(q, sigma)
    log_inv_delta = math.log(1.0 / delta)
    eps = min(
        (steps * subsampled_log_moment(q, sigma, lam) + log_inv_delta) / lam
        for lam in range(1, lambda_max + 1)
    )
    return EpsDelta(eps, delta)


def moments_accountant_curve(
    q: float,
    sigma: float,
    iters_per_epoch: int,
    epochs: int,
    delta: float,
    lambda_max: Optional[int] = None,
) -> np.ndarray:
    """Per-epoch accountant epsilons for a fixed-(q, sigma) run.

    The per-step log moments are computed once and reused across epochs.
    """
    if lambda_max is None:
        lambda_max = default_lambda_max(q, sigma)
    lams = np.arange(1, lambda_max + 1)
    moments = np.array([subsampled_log_moment(q, sigma, int(lam)) for lam in lams])
    log_inv_delta = math.log(1.0 / delta)
    out = np.empty(epochs)
    for e in range(1, epochs + 1):
        out[e - 1] = np.min((e * iters_per_epoch * moments + log_inv_delta) / lams)
    return out


@dataclass(frozen=True)
class BoundCheck:
    """One grid point of the moment-bound validation."""

    q: float
    sigma: float
    alpha: int
    divergence: float
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.divergence

    @property
    def holds(self) -> bool:
        return self.divergence <= self.bound


@dataclass
class BoundReport:
    """Outcome of sweeping ``D_alpha <= q^2 alpha / sigma^2`` over a grid."""

    checks: List[BoundCheck]

    @property
    def violations(self) -> List[BoundCheck]:
        return [c for c in self.checks if not c.holds]

    @property
    def worst_slack(self) -> float:
        if not self.checks:
            return math.inf
        return min(c.slack for c in self.checks)

    @property
    def n_points(self) -> int:
        return len(self.checks)


def moment_bound_grid(
    sigmas: Sequence[float],
    q_step: float = 0.001,
    q_start: Optional[float] = None,
) -> List[Tuple[float, float]]:
    """(q, sigma) pairs with q running from ``q_start`` (default ``q_step``)
    to ``1/(16 sigma)`` in steps of ``q_step``."""
    start = q_step if q_start is None else q_start
    grid = []
    for sigma in sigmas:
        q_max = 1.0 / (16.0 * sigma)
        i = 0
        while True:
            q = start + i * q_step
            if q > q_max + 1e-12:
                break
            grid.append((round(q, 12), sigma))
            i += 1
    return grid


def validate_moment_bound(
    sigmas: Sequence[float],
    q_step: float = 0.001,
    q_start: Optional[float] = None,
    alpha_cap: int = 200,
    both_directions: bool = True,
) -> BoundReport:
    """Check ``D_alpha <= q^2 alpha / sigma^2`` numerically over a grid.

    For each (q, sigma) the integer orders 2..min(order cap, alpha_cap) are
    tested; violations are recorded in the report, never raised.
    """
    checks: List[BoundCheck] = []
    for q, sigma in moment_bound_grid(sigmas, q_step=q_step, q_start=q_start):
        u_alpha = min(rs_order_cap(q, sigma), float(alpha_cap))
        for alpha in range(2, int(math.floor(u_alpha)) + 1):
            bound = q * q * alpha / (sigma * sigma)
            d = subsampled_renyi_divergence(q, sigma, float(alpha))
            if both_directions:
                d = max(d, subsampled_renyi_divergence(q, sigma, float(alpha), reverse=True))
            checks.append(BoundCheck(q, sigma, alpha, d, bound))
    return BoundReport(checks)
