"""Small feed-forward classifier with exact per-example gradients.

Deliberately minimal: dense layers with ReLU between them, logits out,
softmax cross-entropy loss, float64 everywhere.  All parameters live in one
flat vector, in checkpoint order (W0, b0, W1, b1, ...), so an update is one
vector operation.  Layer l's W_l followed by b_l is the row-major
(fan_in+1, fan_out) block [W_l; b_l], and every pass runs on those blocks:
a layer is one product of its ones-augmented inputs [a, 1] with its block.
Batched backpropagation on a batch held as columns (a :class:`Columns`
workspace) yields each layer's augmented inputs and backprop signals for
every example (no loops over examples), which is what the gradient-clipping
step of DP-SGD needs.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ParseError

CHECKPOINT_MAGIC = "dpbudget-mlp 1"
CACHE_LINE = 64  # bytes


def aligned_empty(shape) -> np.ndarray:
    """``np.empty(shape)`` of float64 whose first element starts a cache line.

    Where the allocator puts a buffer changes from one process to the next.
    A workspace whose rows straddle cache lines makes every vector load touch
    two lines, which costs the full-batch training step about a fifth of its
    time; aligned, a (rows, n) array with n a multiple of 8 has every row
    start a line, in every process.
    """
    size = math.prod(np.atleast_1d(shape))
    raw = np.empty(size + CACHE_LINE // 8)
    start = -raw.ctypes.data % CACHE_LINE // 8
    return raw[start : start + size].reshape(shape)


class MlpModel:
    """Dense ReLU network; the final layer emits raw logits.

    ``params`` holds every parameter in checkpoint order (W0, b0, W1, b1,
    ...).  ``blocks[i]`` is the (fan_in+1, fan_out) view [W_i; b_i] of it,
    and ``weights[i]`` and ``biases[i]`` are that block's rows.  A layer
    may have no inputs (fan_in 0), and then only a bias.  The constructor
    copies its arguments.
    """

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if len(weights) != len(biases) or not weights:
            raise DomainError("weights and biases must be nonempty and aligned")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise DomainError(f"layer {i} has inconsistent shapes {w.shape} / {b.shape}")
            if i > 0 and weights[i - 1].shape[1] != w.shape[0]:
                raise DomainError(f"layer {i} does not chain with layer {i - 1}")
        self.params = np.concatenate([np.ravel(p) for w, b in zip(weights, biases) for p in (w, b)], dtype=np.float64)
        self.blocks: List[np.ndarray] = []
        offset = 0
        for fan_in, fan_out in (w.shape for w in weights):
            end = offset + (fan_in + 1) * fan_out
            self.blocks.append(self.params[offset:end].reshape(fan_in + 1, fan_out))
            offset = end
        self.weights: List[np.ndarray] = [block[:-1] for block in self.blocks]
        self.biases: List[np.ndarray] = [block[-1] for block in self.blocks]
        # 0/1 matrices whose row l marks layer l's columns of the inputs and
        # signals that backprop_signals returns: one product with them sums a
        # batch's per-column values layer by layer.
        eye = np.eye(len(self.blocks))
        self.input_layers = np.repeat(eye, [len(block) for block in self.blocks], axis=1)
        self.signal_layers = np.repeat(eye, [block.shape[1] for block in self.blocks], axis=1)
        # the first of those columns of each layer, and their number last
        self.input_starts = list(accumulate([len(block) for block in self.blocks], initial=0))
        self.signal_starts = list(accumulate([block.shape[1] for block in self.blocks], initial=0))

    @classmethod
    def init(cls, layer_sizes: Sequence[int], seed: int) -> "MlpModel":
        """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
        if len(layer_sizes) < 2:
            raise DomainError("need at least an input and an output size")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def layer_sizes(self) -> List[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def n_params(self) -> int:
        return self.params.size


class Forward:
    """Room for forward passes of ``model`` on a batch of examples held as
    columns: ``inputs``, every layer's augmented inputs [a_l; 1] in layer
    order, whose ones rows are written here, and ``logits``, the
    (n_classes, n) outputs.  The views that the pass uses, among them each
    layer's ``layer_inputs``, are made once, so a workspace kept for many
    passes costs no slicing per pass.  The blocks are views of
    ``model.params``, so a pass always runs on the current parameters.
    """

    def __init__(self, model: MlpModel, inputs: np.ndarray, logits: np.ndarray):
        a_lo = model.input_starts
        self.model, self.inputs, self.logits = model, inputs, logits
        # each layer's augmented inputs [a_l; 1]
        self.layer_inputs = [inputs[lo:hi] for lo, hi in zip(a_lo, a_lo[1:])]
        self.ones = [a[-1] for a in self.layer_inputs]
        self.fill_ones()
        top = len(model.blocks) - 1
        # forward: (block^T, the layer's inputs, its outputs: the next layer's a)
        self.hidden = [(model.blocks[l].T, self.layer_inputs[l], self.layer_inputs[l + 1][:-1]) for l in range(top)]
        self.output = (model.blocks[top].T, self.layer_inputs[top])

    @staticmethod
    def load(model: MlpModel, x: np.ndarray) -> "Forward":
        """``x`` (rows = examples) as the first-layer inputs of a new
        workspace that holds only the input and logit rows."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        _check_batch(model, x)
        n_inputs = model.input_starts[-1]
        rows = aligned_empty((n_inputs + model.signal_starts[-1] - model.signal_starts[-2], len(x)))
        loaded = Forward(model, rows[:n_inputs], rows[n_inputs:])
        loaded.inputs[: x.shape[1]] = x.T
        return loaded

    def fill_ones(self) -> None:
        """Write the constant 1 of every layer's [a_l; 1].  The passes never
        overwrite it, so this is needed again only after another workspace
        sharing the buffer has been used."""
        for row in self.ones:
            row.fill(1.0)

    def accuracy(self, labels: np.ndarray) -> float:
        """The share of the loaded examples whose largest logit is their label."""
        hits = np.argmax(_forward(self).T, axis=1) == labels
        # the mean of the 0/1 hits, whose sum is exact
        return float(np.divide(np.count_nonzero(hits), hits.size))


class Columns(Forward):
    """A batch of ``n`` examples held as columns, with room for one forward
    and backward pass of ``model``.

    One (rows, n) array ``stacked`` holds, as row blocks: ``targets``, the
    one-hot labels; the :class:`Forward` ``inputs``; ``signals``, every
    layer's backprop signals d_l in layer order, the last of them the
    ``logits`` rows; and ``scratch``, as many rows as the larger of inputs
    and signals, whose first rows, ``active``, a backward pass fills with
    ReLU'(z).  The first ``n_classes + fan_in + 1`` rows are the batch's
    [one-hot labels; features; 1], which is all a pass reads.  ``stacked``
    is the first ``rows(model) * n`` elements of ``buffer``, a flat float64
    array, if one is given, so that workspaces for several batch sizes can
    share one allocation.
    """

    def __init__(self, model: MlpModel, n: int, buffer: Optional[np.ndarray] = None):
        a_lo, d_lo = model.input_starts, model.signal_starts
        n_classes, n_inputs, n_signals = d_lo[-1] - d_lo[-2], a_lo[-1], d_lo[-1]
        rows = Columns.rows(model)
        self.stacked = aligned_empty((rows, n)) if buffer is None else buffer[: rows * n].reshape(rows, n)
        self.targets = self.stacked[:n_classes]
        self.signals = self.stacked[n_classes + n_inputs : n_classes + n_inputs + n_signals]
        self.scratch = self.stacked[n_classes + n_inputs + n_signals :]
        self.active = self.scratch[:n_inputs]
        super().__init__(model, self.stacked[n_classes : n_classes + n_inputs], self.signals[d_lo[-2] :])

    @cached_property
    def backprop(self) -> List[Tuple[np.ndarray, ...]]:
        """The views of the backward pass, made on its first use: from the
        top, (W_l, d_l, d_{l-1}, the rows of ``active`` that gate d_{l-1}),
        as d_{l-1} = (W_l d_l) * ReLU'(z), the sign of a_l."""
        a_lo, d_lo, weights = self.model.input_starts, self.model.signal_starts, self.model.weights
        return [
            (weights[l], self.signals[d_lo[l] : d_lo[l + 1]], self.signals[d_lo[l - 1] : d_lo[l]], self.active[a_lo[l] : a_lo[l + 1] - 1])
            for l in range(len(weights) - 1, 0, -1)
        ]

    @staticmethod
    def rows(model: MlpModel) -> int:
        """The number of rows of ``stacked`` for ``model``."""
        n_inputs, n_signals = model.input_starts[-1], model.signal_starts[-1]
        return n_signals - model.signal_starts[-2] + n_inputs + n_signals + max(n_inputs, n_signals)


def _forward(cols: Forward) -> np.ndarray:
    """Forward pass of the batch in ``cols``: fills every hidden layer's
    input rows and returns the (n_classes, n) ``cols.logits``.  Layer l's
    outputs are ``blocks[l].T`` times its augmented inputs."""
    for block_t, a, z in cols.hidden:
        np.dot(block_t, a, out=z)
        np.maximum(z, 0.0, out=z)
    block_t, a = cols.output
    return np.dot(block_t, a, out=cols.logits)


def _check_batch(model: MlpModel, x: np.ndarray) -> None:
    if x.shape[1] != model.weights[0].shape[0]:
        raise DomainError(
            f"input dimension {x.shape[1]} does not match model fan-in {model.weights[0].shape[0]}"
        )


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits for a single feature vector or a batch (rows = examples)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    logits = _forward(Forward.load(model, x)).T
    return logits[0] if single else logits


def _softmax(z: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of ``z`` along ``axis``, computed in place."""
    np.subtract(z, np.maximum.reduce(z, axis, keepdims=True), out=z)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis, keepdims=True)
    return z


def softmax(logits: np.ndarray) -> np.ndarray:
    return _softmax(np.array(logits, dtype=np.float64), -1)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-example softmax cross-entropy."""
    logits = np.atleast_2d(logits)
    labels = np.atleast_1d(labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return log_z - shifted[np.arange(len(labels)), labels]


def predict(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return np.argmax(forward(model, np.atleast_2d(np.asarray(x, dtype=np.float64))), axis=1)


def accuracy(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> float:
    return Forward.load(model, x).accuracy(labels)


def backward(cols: Columns) -> None:
    """Forward and backward pass of the batch in ``cols``, from its targets
    and first-layer inputs: fills the rest of ``cols.inputs`` and all of
    ``cols.signals``, and leaves ReLU'(z) (0 at z = 0) in ``cols.active``.
    Example i's loss gradient for the block [W_l; b_l] is the outer product
    of its augmented inputs [a_l, 1] and its signals d_l.
    """
    delta = _softmax(_forward(cols), 0)
    delta -= cols.targets
    # ReLU'(z) as 0.0 or 1.0: the sign of the ReLU outputs
    np.sign(cols.inputs, out=cols.active)
    for weights, above, below, active in cols.backprop:
        np.dot(weights, above, out=below)
        below *= active


def backprop_signals(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every layer's augmented inputs and backprop signals for a batch.

    Returns ``(inputs, signals)``, an (n, sum of fan_in+1) and an (n, sum
    of fan_out) array.  Their column segments hold, in layer order, layer
    l's augmented inputs ``[a_l, 1]`` and its signals ``d_l``: example i's
    loss gradient for the block [W_l; b_l] is ``outer(inputs_l[i],
    signals_l[i])``, so its squared norm is ``|inputs_l[i]|^2
    |signals_l[i]|^2``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.atleast_1d(labels)
    if len(x) == 0:
        raise DomainError("backprop signals require a nonempty batch")
    _check_batch(model, x)
    cols = Columns(model, len(x))
    cols.inputs[: x.shape[1]] = x.T
    cols.targets.fill(0.0)
    cols.targets[labels, np.arange(len(x))] = 1.0
    backward(cols)
    return cols.inputs.T, cols.signals.T


def per_example_gradients(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> List[np.ndarray]:
    """Exact per-example gradients of the softmax cross-entropy loss.

    Returns one array per parameter in the order (W0, b0, W1, b1, ...), each
    with a leading batch axis.  Training never builds these; they are the
    outer-product reference for :func:`backprop_signals`.
    """
    inputs, signals = backprop_signals(model, x, labels)
    grads: List[np.ndarray] = []
    a_lo = d_lo = 0
    for n_in, n_out in (block.shape for block in model.blocks):
        block_grads = inputs[:, a_lo : a_lo + n_in, None] * signals[:, None, d_lo : d_lo + n_out]
        grads += [block_grads[:, :-1], block_grads[:, -1]]
        a_lo, d_lo = a_lo + n_in, d_lo + n_out
    return grads


def mean_gradients(per_example: List[np.ndarray]) -> List[np.ndarray]:
    """Fixed-order mean over the batch axis (matches the whole-batch gradient)."""
    return [g.mean(axis=0) for g in per_example]


def sgd_step(model: MlpModel, gradients: List[np.ndarray], eta: float) -> MlpModel:
    """In-place update theta <- theta - eta * gradient; returns the model."""
    if len(gradients) != 2 * len(model.weights):
        raise DomainError("gradient list does not match the model's parameter list")
    for i in range(len(model.weights)):
        model.weights[i] -= eta * gradients[2 * i]
        model.biases[i] -= eta * gradients[2 * i + 1]
    return model


def save_checkpoint(model: MlpModel, path: str) -> None:
    """Versioned header + JSON layer sizes + row-major float64 parameters."""
    header = json.dumps({"layer_sizes": model.layer_sizes})
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC.encode() + b"\n")
        fh.write(header.encode() + b"\n")
        fh.write(model.params.tobytes())


def load_checkpoint(path: str) -> MlpModel:
    with open(path, "rb") as fh:
        magic = fh.readline().decode().strip()
        if magic != CHECKPOINT_MAGIC:
            raise ParseError(f"not a model checkpoint (header {magic!r})", line=1)
        try:
            sizes = json.loads(fh.readline().decode())["layer_sizes"]
        except (json.JSONDecodeError, KeyError) as exc:
            raise ParseError(f"bad checkpoint metadata: {exc}", line=2) from exc
        blob = fh.read()
    shapes = list(zip(sizes[:-1], sizes[1:]))
    if len(blob) != 8 * sum((fan_in + 1) * fan_out for fan_in, fan_out in shapes):
        raise ParseError("checkpoint payload does not match the declared shapes")
    model = MlpModel([np.empty(shape) for shape in shapes], [np.empty(fan_out) for _, fan_out in shapes])
    model.params[:] = np.frombuffer(blob, dtype=np.float64)
    return model
