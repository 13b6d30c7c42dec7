"""Differentially private SGD with budget-checked termination.

The loop follows a strict charge-before-compute rule: an epoch (under
reshuffling) or an iteration (under sampling) is admitted to the ledger
before any of its gradients are computed, and training stops as soon as the
next charge would overrun the budget.  Noise scales come from a
:class:`~dpbudget.schedules.NoiseSchedule`, including the feedback-driven
validation schedule.

Randomness is a single seeded numpy PCG64 generator consumed in a fixed
order (batching first, then noise, per step), so a (config, seed) pair
reproduces its report bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from . import nn
from .accounting import EpsDelta, PrivacyLedger
from .data import Dataset, rf_batches, rs_batch
from .errors import ConfigError, DomainError, check_config_fields
from .schedules import NoiseSchedule, ValidationController, sigma_at


def _clip_factors(sq_norms: np.ndarray, clip_norm: float) -> np.ndarray:
    """min(1, C / |g|) for each squared gradient norm |g|^2."""
    return clip_norm / np.maximum(np.sqrt(sq_norms), clip_norm)


def _gaussian_noise(rng: np.random.Generator, sigma: float, clip_norm: float, size: int) -> np.ndarray:
    """One draw of N(0, (sigma C)^2 I): the noise of one Gaussian release."""
    if not 0.0 < clip_norm < math.inf:
        raise DomainError(f"clip_norm must be positive and finite, got {clip_norm}")
    if not 0.0 <= sigma < math.inf:
        raise DomainError(f"sigma must be finite and nonnegative, got {sigma}")
    # equal to rng.normal(0.0, sigma * clip_norm, size), without adding its zero mean
    return rng.standard_normal(size) * (sigma * clip_norm)


def _noisy_clipped_sum(
    inputs: Optional[np.ndarray],
    signals: Optional[np.ndarray],
    model: nn.MlpModel,
    clip_norm: float,
    sigma: float,
    per_layer: bool,
    rng: np.random.Generator,
) -> np.ndarray:
    """N(0, (sigma C)^2 I) plus the sum over the batch of the clipped
    per-example gradients of ``model``'s layers, as one vector in
    ``model.params`` order.

    ``inputs`` and ``signals`` hold the layers' augmented inputs ã = [a, 1]
    and backprop signals d, as :func:`nn.backprop_signals` returns them.
    Ghost clipping: the gradient of block [W; b] is outer(ã, d), so |g_l|^2
    = |ã|^2 |d|^2, whose factors are segment sums of squares, and the
    clipped sum is ã.T @ (d s); no per-example gradient is formed.  With no
    inputs (an empty batch) the noise is released alone.
    """
    noise = _gaussian_noise(rng, sigma, clip_norm, model.n_params)
    if inputs is None:
        return noise
    inputs_t, signals_t = inputs.T, signals.T
    # One scratch array holds ã^2, then d^2, then d s, so that a large batch
    # does not grow and shrink the heap on every step.
    scratch = np.empty((max(len(inputs_t), len(signals_t)), len(inputs)))
    sq_norms = np.dot(model.input_layers, np.multiply(inputs_t, inputs_t, out=scratch[: len(inputs_t)]))
    scaled_t = np.multiply(signals_t, signals_t, out=scratch[: len(signals_t)])
    sq_norms *= np.dot(model.signal_layers, scaled_t)
    if per_layer:
        np.dot(model.signal_layers.T, _clip_factors(sq_norms, clip_norm), out=scaled_t)
        scaled_t *= signals_t
    else:
        np.multiply(signals_t, _clip_factors(sq_norms.sum(axis=0), clip_norm), out=scaled_t)
    total = np.empty_like(noise)
    offset = a_lo = d_lo = 0
    for w, o in (block.shape for block in model.blocks):
        np.dot(inputs_t[a_lo : a_lo + w], scaled_t[d_lo : d_lo + o].T, out=total[offset : offset + w * o].reshape(w, o))
        offset, a_lo, d_lo = offset + w * o, a_lo + w, d_lo + o
    total += noise
    return total


def noisy_mean_gradient(
    per_example: np.ndarray,
    clip_norm: float,
    sigma: float,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(sum of clipped per-example gradients + N(0, (sigma C)^2 I)) / B.

    The rows are taken as the bias gradients of a one-layer model with no
    inputs, whose augmented inputs are ones and whose ghost norm is the row
    norm: the training primitive's one-layer case.
    """
    if per_example.ndim != 2 or len(per_example) == 0:
        raise DomainError("per_example must be a nonempty (n, params) matrix")
    if batch_size < 1:
        raise DomainError(f"batch_size must be positive, got {batch_size}")
    n, p = per_example.shape
    bias_only = nn.MlpModel([np.empty((0, p))], [np.empty(p)])
    return _noisy_clipped_sum(np.ones((n, 1)), per_example, bias_only, clip_norm, sigma, False, rng) / batch_size


def noisy_clipped_sum(
    model: nn.MlpModel,
    x: np.ndarray,
    labels: np.ndarray,
    clip_norm: float,
    sigma: float,
    per_layer: bool,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sum of the batch's clipped per-example gradients plus N(0, (sigma C)^2 I),
    as one vector in ``model.params`` order (W0, b0, W1, b1, ...).

    Each example's gradient is clipped to norm C as a whole, or layer by
    layer when ``per_layer``.  An empty batch releases the noise alone.
    """
    inputs, signals = nn.backprop_signals(model, x, labels) if len(x) else (None, None)
    return _noisy_clipped_sum(inputs, signals, model, clip_norm, sigma, per_layer, rng)


@dataclass(frozen=True)
class TrainConfig:
    schedule: NoiseSchedule
    clip_norm: float
    max_epochs: int
    seed: int
    batching: str = "rf"
    batch_size: Optional[int] = None      # rf; defaults to the full dataset
    q: Optional[float] = None             # rs sampling ratio
    iters_per_epoch: Optional[int] = None  # rs; defaults to round(1/q)
    rho_total: Optional[float] = None     # rf budget
    eps_total: Optional[float] = None     # rs budget at reporting delta
    delta: float = 1e-5
    lr: float = 0.05
    per_layer_clip: bool = False

    def __post_init__(self) -> None:
        check_config_fields(self)
        if self.batching not in ("rf", "rs"):
            raise ConfigError(f"batching must be 'rf' or 'rs', got {self.batching!r}")
        foreign = ("q", "iters_per_epoch", "eps_total") if self.batching == "rf" else ("batch_size", "rho_total")
        unread = [name for name in foreign if getattr(self, name) is not None]
        if unread:
            raise ConfigError(f"{self.batching} training does not read {unread}")
        if self.clip_norm <= 0.0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        for name in ("batch_size", "iters_per_epoch"):
            if getattr(self, name) == 0:
                raise ConfigError(f"{name} must be at least 1, got 0")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.batching == "rf" and self.rho_total is None:
            raise ConfigError("rf training requires a rho_total budget")
        if self.batching == "rs":
            if self.q is None or not (0.0 < self.q < 1.0):
                raise ConfigError("rs training requires q in (0, 1)")
            if self.eps_total is None:
                raise ConfigError("rs training requires an eps_total budget")


class EpochRecord(NamedTuple):
    epoch: int
    sigma: float
    train_acc: float
    test_acc: Optional[float]
    val_acc: Optional[float]
    cum_rho: float
    cum_eps: float


@dataclass
class TrainReport:
    epochs_run: int
    records: List[EpochRecord]
    stop_reason: str  # "budget_exhausted" or "max_epochs"
    final_privacy: EpsDelta
    total_rho: float
    ledger: PrivacyLedger = field(repr=False, default=None)


def _noisy_update(
    model: nn.MlpModel,
    batch: Dataset,
    indices: np.ndarray,
    sigma: float,
    lr: float,
    config: TrainConfig,
    rng: np.random.Generator,
    lot_size: float,
) -> None:
    """One release on ``batch[indices]``, divided by ``lot_size``, applied as
    one in-place step on the flat parameters."""
    total = noisy_clipped_sum(
        model, batch.features[indices], batch.labels[indices], config.clip_norm, sigma, config.per_layer_clip, rng
    )
    model.params -= lr * (total / lot_size)


def train(
    config: TrainConfig,
    train_data: Dataset,
    model: nn.MlpModel,
    test_data: Optional[Dataset] = None,
    validation_data: Optional[Dataset] = None,
) -> TrainReport:
    """Run budget-checked DP-SGD; the model is updated in place."""
    rng = np.random.default_rng(config.seed)
    n = len(train_data)
    # Per-layer clipping makes one Gaussian release per layer on each batch.
    releases = len(model.weights) if config.per_layer_clip else 1

    controller: Optional[ValidationController] = None
    if config.schedule.kind == "validation":
        if validation_data is None:
            raise ConfigError("the validation schedule requires validation data")
        controller = ValidationController(config.schedule)

    ledger = PrivacyLedger(config.batching)
    records: List[EpochRecord] = []
    stop_reason = "max_epochs"

    def snapshot(epoch: int, sigma: float) -> None:
        records.append(
            EpochRecord(
                epoch=epoch,
                sigma=sigma,
                train_acc=nn.accuracy(model, train_data.features, train_data.labels),
                test_acc=nn.accuracy(model, test_data.features, test_data.labels) if test_data is not None else None,
                val_acc=nn.accuracy(model, validation_data.features, validation_data.labels) if validation_data is not None else None,
                cum_rho=ledger.total_rho,
                cum_eps=ledger.to_dp(config.delta).eps,
            )
        )

    for epoch in range(config.max_epochs):
        if controller is not None:
            sigma = controller.sigma
        else:
            sigma = sigma_at(config.schedule, epoch)

        if config.batching == "rf":
            if not ledger.admit(sigma, config.rho_total, config.delta, releases=releases, epoch=epoch):
                stop_reason = "budget_exhausted"
                break
            for indices in rf_batches(n, n if config.batch_size is None else config.batch_size, rng):
                _noisy_update(model, train_data, indices, sigma, config.lr, config, rng, len(indices))
        else:
            # Dividing by the expected lot size q n, not the sampled batch
            # size, keeps the update's scale independent of the data.
            lot_size = config.q * n
            iters = round(1.0 / config.q) if config.iters_per_epoch is None else config.iters_per_epoch
            for it in range(iters):
                if not ledger.admit(
                    sigma, config.eps_total, config.delta, q=config.q, releases=releases, epoch=epoch, iteration=it
                ):
                    stop_reason = "budget_exhausted"
                    break
                indices = rs_batch(n, config.q, rng)
                _noisy_update(model, train_data, indices, sigma, config.lr, config, rng, lot_size)
            if stop_reason == "budget_exhausted":
                break

        snapshot(epoch, sigma)
        if controller is not None:
            val_acc = records[-1].val_acc
            controller.observe(val_acc)

    return TrainReport(
        epochs_run=len(records),
        records=records,
        stop_reason=stop_reason,
        final_privacy=ledger.to_dp(config.delta),
        total_rho=ledger.total_rho,
        ledger=ledger,
    )
