"""Differentially private SGD with budget-checked termination.

The loop follows a strict charge-before-compute rule: an epoch (under
reshuffling) or an epoch's iterations (under sampling, as many as fit) are
admitted to the ledger before any of their gradients are computed, and
training stops as soon as the next charge would overrun the budget.  Noise
scales come from a :class:`~dpbudget.schedules.NoiseSchedule`, including the
feedback-driven validation schedule.  Each epoch's batches go through one
call of a :class:`_TrainingStep`, built once per run, which owns the buffers
of the clipped, noised sums and of the updates.  Each epoch is admitted by
one :meth:`PrivacyLedger.admit` call: one unit under reshuffling, the
epoch's iterations under sampling, priced in one pass over their running
totals.  A step that leaves a parameter non-finite is refused, so no NaN or
infinite model is published.

Randomness is a single seeded numpy PCG64 generator consumed in a fixed
order, so a (config, seed) pair reproduces its report bit for bit: each
epoch draws its batches first (an rf permutation, or the admitted rs
iterations' sampled batches in one call), then one noise vector per batch.
The step draws those vectors as the rows of one block per epoch, of at most
:data:`NOISE_BLOCK_BYTES`, which holds the values of the row draws one by
one and leaves the generator where they would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from . import nn
from .accounting import EpsDelta, PrivacyLedger
from .data import Dataset, rf_batches, rs_batches
from .errors import ConfigError, DomainError, check_config_fields
from .schedules import NoiseSchedule, ValidationController, sigma_at


def _clip_factors(sq_norms: np.ndarray, clip_norm: float) -> np.ndarray:
    """min(1, C / |g|) for each squared gradient norm |g|^2, computed in
    place of ``sq_norms``."""
    np.sqrt(sq_norms, out=sq_norms)
    np.maximum(sq_norms, clip_norm, out=sq_norms)
    return np.divide(clip_norm, sq_norms, out=sq_norms)


def _check_noise(clip_norm: float, sigma: float) -> None:
    if not 0.0 < clip_norm < math.inf:
        raise DomainError(f"clip_norm must be positive and finite, got {clip_norm}")
    if not 0.0 <= sigma < math.inf:
        raise DomainError(f"sigma must be finite and nonnegative, got {sigma}")


def _clipped_sum(batch: nn.Columns, clip_norm: float, per_layer: bool) -> np.ndarray:
    """The sum over the batch of the clipped per-example gradients of the
    model's layers, as one vector in ``params`` order, in ``batch.total``.

    ``batch`` holds the layers' augmented inputs ã = [a, 1] and backprop
    signals d, as :func:`nn.backward` leaves them.  Ghost clipping: the
    gradient of block [W; b] is outer(ã, d), so |g_l|^2 = |ã|^2 |d|^2, whose
    factors are segment sums of squares, and the clipped sum is ã.T @ (d s);
    no per-example gradient is formed.
    """
    inputs_t, signals_t, scaled_t, sq_norms = batch.inputs, batch.signals, batch.scaled, batch.input_sq
    # The scratch rows hold ã^2, then d^2, then d s.
    batch.input_layers.dot(np.multiply(inputs_t, inputs_t, out=batch.active), sq_norms)
    sq_norms *= batch.signal_layers.dot(np.multiply(signals_t, signals_t, out=scaled_t), batch.signal_sq)
    if per_layer:
        batch.signal_layers_t.dot(_clip_factors(sq_norms, clip_norm), scaled_t)
        scaled_t *= signals_t
    else:
        np.multiply(signals_t, _clip_factors(np.add.reduce(sq_norms, 0), clip_norm), out=scaled_t)
    for a, ds, out in batch.layer_sums:
        a.dot(ds, out)
    return batch.total


#: Largest noise block a training step draws at once, in bytes.  An epoch's
#: noise takes one draw if its rows fit, and one per block of rows if not.
NOISE_BLOCK_BYTES = 1 << 20


class _TrainingStep:
    """Noisy clipped SGD steps of ``model`` on batches of the examples in
    ``loaded``, an :class:`nn.Columns` loaded with their labels, with every
    buffer allocated once.

    One ``np.take`` gathers a batch's columns of ``loaded.examples`` into
    its workspace, of which there is one per batch size, 0 included.  The
    noise of a call's batches is drawn into the rows of one block, one row
    per batch, of at most :data:`NOISE_BLOCK_BYTES`.
    """

    def __init__(self, model: nn.MlpModel, loaded: nn.Columns, clip_norm: float, per_layer: bool):
        self.model, self.loaded, self.clip_norm, self.per_layer = model, loaded, clip_norm, per_layer
        self.block_rows = max(1, NOISE_BLOCK_BYTES // (8 * model.n_params))
        self.noise = np.empty((0, model.n_params))
        self.buffer = np.empty(0)
        self.batches: Dict[int, nn.Columns] = {}
        self.current: Optional[nn.Columns] = None

    def _batch(self, n: int) -> nn.Columns:
        """The workspace of an n-example batch.  Those of all sizes share one
        buffer, sized for the largest batch so far, so memory stays that of
        one batch however many sizes a sampled run meets."""
        batch = self.batches.get(n)
        if batch is None:
            if nn.Columns.size(self.model, n) > len(self.buffer):
                self.buffer = nn.aligned_empty(nn.Columns.size(self.model, n))
                self.batches.clear()
            batch = self.batches[n] = nn.Columns(self.model, n, self.buffer)
        elif batch is not self.current:
            batch.fill_ones()
        self.current = batch
        return batch

    def _noise(self, rows: int, scale: float, rng: np.random.Generator) -> np.ndarray:
        """``rows`` draws of N(0, scale^2 I), one per row of a block of this
        step, in the order of as many ``rng.normal(0.0, scale, n_params)`` calls."""
        if rows > len(self.noise):
            self.noise = nn.aligned_empty((rows, self.model.n_params))
        noise = self.noise[:rows]
        # equal to the row draws, without adding their zero mean: the block
        # is contiguous, and the generator fills it in order
        rng.standard_normal(out=noise)
        noise *= scale
        return noise

    def __call__(
        self, batches: Sequence[np.ndarray], sigma: float, lr: float, lot_size: Optional[float], rng: np.random.Generator
    ) -> None:
        """One release per batch of example indices, in order, each divided by
        ``lot_size`` (each batch's own size if None) and applied as one
        in-place step on the flat parameters: ``params -= lr * (total / lot_size)``,
        where ``total`` is the batch's clipped sum plus its noise."""
        _check_noise(self.clip_norm, sigma)
        params, examples, per_layer = self.model.params, self.loaded.examples, self.per_layer
        # the scalar operands as 0-d arrays, which a ufunc takes without converting them
        clip_norm, lr, lot = np.array(self.clip_norm), np.array(lr), None if lot_size is None else np.array(lot_size)
        for start in range(0, len(batches), self.block_rows):
            chunk = batches[start : start + self.block_rows]
            for indices, noise in zip(chunk, self._noise(len(chunk), sigma * self.clip_norm, rng)):
                batch = self._batch(len(indices))
                examples.take(indices, 1, batch.examples, "clip")
                nn.backward(batch)
                update = _clipped_sum(batch, clip_norm, per_layer)
                update += noise
                np.divide(update, len(indices) if lot is None else lot, out=update)
                update *= lr
                params -= update


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
    _check_noise(clip_norm, sigma)
    n, p = per_example.shape
    noise = rng.standard_normal(p)
    noise *= sigma * clip_norm
    batch = nn.Columns(nn.MlpModel([np.empty((0, p))], [np.empty(p)]), n)
    batch.signals[...] = per_example.T
    total = _clipped_sum(batch, clip_norm, False)
    total += noise
    return total / batch_size


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

    # each set loaded once: the training set for every batch, and all of
    # them for the accuracies of every epoch
    loaded = nn.Columns.load(model, train_data.features, train_data.labels)
    evaluated = [(loaded, train_data.labels)] + [
        None if data is None else (nn.Columns.load(model, data.features), data.labels)
        for data in (test_data, validation_data)
    ]
    step = _TrainingStep(model, loaded, config.clip_norm, config.per_layer_clip)
    # rs divides by the expected lot size q n, not the sampled batch size, so
    # that the update's scale does not depend on the data.
    if config.batching == "rf":
        asked, budget, lot_size = 1, config.rho_total, None
        batch_size = n if config.batch_size is None else config.batch_size
    else:
        asked = round(1.0 / config.q) if config.iters_per_epoch is None else config.iters_per_epoch
        budget, lot_size = config.eps_total, config.q * n

    ledger = PrivacyLedger(config.batching)
    records: List[EpochRecord] = []
    stop_reason = "max_epochs"

    def snapshot(epoch: int, sigma: float) -> None:
        train_acc, test_acc, val_acc = (None if e is None else e[0].accuracy(e[1]) for e in evaluated)
        records.append(
            EpochRecord(
                epoch=epoch,
                sigma=sigma,
                train_acc=train_acc,
                test_acc=test_acc,
                val_acc=val_acc,
                cum_rho=ledger.total_rho,
                cum_eps=ledger.to_dp(config.delta).eps,
            )
        )

    for epoch in range(config.max_epochs):
        if controller is not None:
            sigma = controller.sigma
        else:
            sigma = sigma_at(config.schedule, epoch)

        admitted = ledger.admit(sigma, budget, config.delta, config.q, releases, epoch, iteration=0, iterations=asked)
        if admitted:
            batches = rf_batches(n, batch_size, rng) if config.batching == "rf" else rs_batches(n, config.q, admitted, rng)
            step(batches, sigma, config.lr, lot_size, rng)
            if not np.isfinite(model.params).all():
                raise DomainError(f"epoch {epoch} left non-finite model parameters; no model is published")
        if admitted < asked:
            stop_reason = "budget_exhausted"
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
