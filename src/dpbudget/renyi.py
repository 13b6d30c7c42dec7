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
from dataclasses import dataclass, field
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
# The orders of one call are worked through in blocks of at most this many
# (order, node) entries, so the temporaries stay near half a megabyte each.
_BLOCK_ENTRIES = 1 << 16
# Highest moment order of the accountant and of the bound validation.
_ORDER_CAP = 200


def _blocks(n_rows: int, row_len: int) -> List[slice]:
    """Row ranges holding at most ``_BLOCK_ENTRIES`` entries (one row at least)."""
    step = max(1, _BLOCK_ENTRIES // max(1, row_len))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def _log_renyi_powers(q: float, sigma: float, alphas: Sequence[float], reverse: bool) -> np.ndarray:
    """``(alpha - 1) * D_alpha`` at every order in ``alphas``: the log of the
    integral of ``p(z)^alpha r(z)^(1-alpha)`` over the line, where (p, r) is
    (mixture, base) or reversed.

    The log integrand is affine in alpha, so all orders share one node set
    per pass, sized for the largest order; the orders are worked through in
    blocks of at most ``_BLOCK_ENTRIES`` (order, node) entries.  Each order's
    fine-pass value must agree with its coarse-pass value.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if not 0.0 < q <= 1.0:
        raise DomainError(f"sampling ratio q must lie in (0, 1], got {q}")
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    if not (alphas.size and np.all((alphas > 1.0) & (alphas < math.inf))):
        raise DomainError(f"orders must be finite and exceed 1, got {alphas}")
    lo = -_TAIL_SIGMAS * sigma
    hi = (1.0 if reverse else max(1.0, float(alphas.max()))) + _TAIL_SIGMAS * sigma
    norm = -math.log(sigma) - _LOG_SQRT_2PI
    passes = []
    for panel_width in (0.5, 0.25):
        n_panels = int(math.ceil((hi - lo) / (panel_width * sigma)))
        edges = np.linspace(lo, hi, n_panels + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * (edges[1:] - edges[:-1])
        z = (centers[:, None] + halves[:, None] * _NODES_16[None, :]).ravel()
        w = (halves[:, None] * _WEIGHTS_16[None, :]).ravel()
        log_base = -z * z / (2.0 * sigma * sigma) + norm
        log_shift = -(z - 1.0) ** 2 / (2.0 * sigma * sigma) + norm
        log_mix = log_shift if q >= 1.0 else np.logaddexp(math.log(q) + log_shift, math.log1p(-q) + log_base)
        log_p, log_r = (log_base, log_mix) if reverse else (log_mix, log_base)
        out = np.empty(alphas.size)
        for rows in _blocks(alphas.size, z.size):
            a = alphas[rows, None]
            log_integrand = a * log_p + (1.0 - a) * log_r
            peak = log_integrand.max(axis=1)
            out[rows] = peak + np.log(np.sum(w * np.exp(log_integrand - peak[:, None]), axis=1))
        passes.append(out)
    coarse, fine = passes
    unconverged = np.flatnonzero(~(np.abs(fine - coarse) <= _REFINE_RTOL * np.maximum(1.0, np.abs(fine))))
    if unconverged.size:
        i = unconverged[0]
        raise NumericalError(
            "quadrature failed to converge for subsampled Renyi divergence",
            diagnostics={"q": q, "sigma": sigma, "alpha": float(alphas[i]), "reverse": reverse,
                         "coarse": float(coarse[i]), "fine": float(fine[i])},
        )
    return fine


def _worst_direction(q: float, sigma: float, alphas: np.ndarray) -> np.ndarray:
    """``D_alpha`` at every order, maximized over the two directions."""
    both = np.maximum(_log_renyi_powers(q, sigma, alphas, False), _log_renyi_powers(q, sigma, alphas, True))
    return both / (alphas - 1.0)


def subsampled_renyi_divergence(
    q: float, sigma: float, alpha: float, reverse: bool = False
) -> float:
    """Order-``alpha`` Renyi divergence of the subsampled Gaussian mechanism.

    Forward direction is ``D_alpha(mixture || base)``; ``reverse=True`` gives
    ``D_alpha(base || mixture)``.  ``q = 1`` degenerates to two unit-separated
    Gaussians, for which the divergence is ``alpha / (2 sigma^2)``.
    """
    return float(_log_renyi_powers(q, sigma, [alpha], bool(reverse))[0]) / (alpha - 1.0)


def divergence_changepoint(q: float, sigma: float, alpha_max: int = _ORDER_CAP) -> int:
    """First integer order at which the divergence-vs-order curve takes off.

    The curve hugs zero while sampling amplification is in effect and then
    climbs parallel to the unsampled-Gaussian line ``alpha / (2 sigma^2)``.
    The changepoint is detected on the discrete slope: the first alpha whose
    increment ``D(alpha) - D(alpha - 1)`` exceeds half the Gaussian line's
    slope ``1/(2 sigma^2)``.
    """
    gaussian_slope = 1.0 / (2.0 * sigma * sigma)
    alphas = np.arange(2.0, alpha_max + 1)
    curve = _log_renyi_powers(q, sigma, alphas, False) / (alphas - 1.0)
    takeoff = np.flatnonzero(np.diff(curve) > 0.5 * gaussian_slope)
    if takeoff.size:
        return int(alphas[takeoff[0] + 1])
    raise NumericalError(
        f"no divergence changepoint found for q={q}, sigma={sigma} up to alpha={alpha_max}",
        diagnostics={"q": q, "sigma": sigma, "alpha_max": alpha_max},
    )


def default_lambda_max(q: float, sigma: float) -> int:
    """Largest moment order used by the accountant,
    ``min(ceil(sigma^2 log(1/(q sigma))), 200)``."""
    return min(int(math.ceil(rs_order_cap(q, sigma) - 1.0)), _ORDER_CAP)


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
    return EpsDelta(float(moments_accountant_curve(q, sigma, steps, 1, delta, lambda_max)[0]), delta)


def moments_accountant_curve(
    q: float,
    sigma: float,
    iters_per_epoch: int,
    epochs: int,
    delta: float,
    lambda_max: Optional[int] = None,
) -> np.ndarray:
    """Per-epoch accountant epsilons for a fixed-(q, sigma) run.

    The per-step log moments ``lam * D_{lam+1}`` (the larger direction) are
    computed once for the orders ``lam = 1..lambda_max`` and reused across
    epochs.
    """
    if epochs < 0 or iters_per_epoch < 0:
        raise DomainError(f"epochs and iters_per_epoch must be nonnegative, got {epochs} and {iters_per_epoch}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if lambda_max is None:
        lambda_max = default_lambda_max(q, sigma)
    if lambda_max < 1:
        raise DomainError(f"lambda_max must be at least 1, got {lambda_max}")
    lams = np.arange(1, lambda_max + 1)
    moments = lams * _worst_direction(q, sigma, lams + 1.0)
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
    to ``min(1, 1/(16 sigma))`` in steps of ``q_step``."""
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
            grid.append((round(q, 12), sigma))
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
    tested in both divergence directions; violations are recorded in the
    report, never raised.
    """
    if not alpha_cap >= 2:
        raise DomainError(f"alpha_cap must be at least 2, got {alpha_cap}")
    report = BoundReport()
    for q, sigma in moment_bound_grid(sigmas, q_step=q_step, q_start=q_start):
        u_alpha = min(rs_order_cap(q, sigma), float(alpha_cap))
        alphas = np.arange(2.0, math.floor(u_alpha) + 1)
        if not alphas.size:
            continue
        divergence = _worst_direction(q, sigma, alphas)
        bound = q * q * alphas / (sigma * sigma)
        report.n_points += alphas.size
        report.worst_slack = min(report.worst_slack, float(np.min(bound - divergence)))
        for i in np.flatnonzero(~(divergence <= bound)):
            report.violations.append(BoundCheck(q, sigma, int(alphas[i]), float(divergence[i]), float(bound[i])))
    return report
