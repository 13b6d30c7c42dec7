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
from itertools import accumulate
from typing import List, Optional, Sequence

import numpy as np

from .errors import DomainError, ParseError

CHECKPOINT_MAGIC = "dpbudget-mlp 1"
CACHE_LINE = 64  # bytes
# ReLU's 0 as a 0-d array: a ufunc converts a Python float operand on every
# call, which costs a small batch's pass more than the arithmetic
_ZERO = np.zeros(())


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


class Columns:
    """A batch of ``n`` examples held as columns, with room for one forward
    and backward pass of ``model`` and for the clipped sum of its
    per-example gradients.

    One (rows, n) array ``stacked`` holds, as row blocks: ``targets``, the
    one-hot labels; ``inputs``, every layer's augmented inputs [a_l; 1] in
    layer order, whose ones rows are written here; ``signals``, every
    layer's backprop signals d_l in layer order, the last of them the
    ``logits`` rows; ``scratch``, as many rows as the larger of inputs and
    signals, whose first rows, ``active``, a backward pass fills with
    ReLU'(z); and ``input_sq`` and ``signal_sq``, one row per layer for the
    squared norms of its inputs and of its signals.  Its first rows,
    ``examples``, are the batch's [one-hot labels; features; 1], which is
    all a pass reads.  ``total``, one vector in ``model.params`` order,
    follows the rows; ``layer_sums[l]`` is (layer l's inputs, its scaled
    signals transposed, block l of ``total``), the block being the product.
    All of it is the first ``size(model, n)`` elements of ``buffer``, a flat
    float64 array, if one is given, so that workspaces for several batch
    sizes can share one allocation.

    Every view of the passes is made here, once, so a workspace kept for
    many passes costs no slicing per pass.  The blocks are views of
    ``model.params``, so a pass always runs on the current parameters.
    """

    def __init__(self, model: MlpModel, n: int, buffer: Optional[np.ndarray] = None):
        blocks, heights = model.blocks, Columns._heights(model)
        rows = sum(heights)
        if buffer is None:
            buffer = aligned_empty(Columns.size(model, n))
        self.stacked = buffer[: rows * n].reshape(rows, n)
        self.targets, self.inputs, self.signals, self.scratch, squares = np.split(self.stacked, list(accumulate(heights[:-1])))
        self.input_sq, self.signal_sq = squares.reshape(2, len(blocks), n)
        self.examples = self.stacked[: len(self.targets) + len(blocks[0])]
        self.active = self.scratch[: len(self.inputs)]
        self.scaled = self.scratch[: len(self.signals)]
        self.total = buffer[rows * n : rows * n + model.n_params]
        # each layer's rows, and row l of these 0/1 matrices marks them: one
        # product with them sums a batch's per-row values layer by layer
        fan_ins, fan_outs = [len(block) for block in blocks], [block.shape[1] for block in blocks]
        a_cuts, d_cuts = list(accumulate(fan_ins[:-1])), list(accumulate(fan_outs[:-1]))
        self.layer_inputs, self.layer_signals = np.split(self.inputs, a_cuts), np.split(self.signals, d_cuts)
        eye = np.eye(len(blocks))
        self.input_layers, self.signal_layers = np.repeat(eye, fan_ins, axis=1), np.repeat(eye, fan_outs, axis=1)
        self.signal_layers_t = self.signal_layers.T
        self.ones = [a[-1] for a in self.layer_inputs]
        self.fill_ones()
        top = len(blocks) - 1
        # forward: (block^T, the layer's inputs, its outputs: the next layer's a)
        self.hidden = [(blocks[l].T, self.layer_inputs[l], self.layer_inputs[l + 1][:-1]) for l in range(top)]
        self.output = (blocks[top].T, self.layer_inputs[top])
        self.logits = self.layer_signals[top]
        # backward, from the top: (W_l, d_l, d_{l-1}, the rows of ``active``
        # that gate d_{l-1}), as d_{l-1} = (W_l d_l) * ReLU'(z), the sign of a_l
        gates = [active[:-1] for active in np.split(self.active, a_cuts)]
        self.backprop = [(model.weights[l], self.layer_signals[l], self.layer_signals[l - 1], gates[l]) for l in range(top, 0, -1)]
        # the clipped sum: (layer l's inputs, its scaled signals, block l of
        # ``total``), as block l is the product of the first two
        p_cuts = list(accumulate(block.size for block in blocks[:-1]))
        self.layer_sums = [
            (a, ds.T, t.reshape(block.shape))
            for a, ds, t, block in zip(self.layer_inputs, np.split(self.scaled, d_cuts), np.split(self.total, p_cuts), blocks)
        ]

    @staticmethod
    def _heights(model: MlpModel) -> List[int]:
        """The rows of the blocks of ``stacked``, in order: targets, inputs,
        signals, scratch and the squared norms."""
        n_inputs, n_signals = sum(len(block) for block in model.blocks), sum(block.shape[1] for block in model.blocks)
        return [model.blocks[-1].shape[1], n_inputs, n_signals, max(n_inputs, n_signals), 2 * len(model.blocks)]

    @staticmethod
    def size(model: MlpModel, n: int) -> int:
        """The number of float64 elements of an n-example workspace for ``model``."""
        return sum(Columns._heights(model)) * n + model.n_params

    @staticmethod
    def load(model: MlpModel, x: np.ndarray, labels: Optional[np.ndarray] = None) -> "Columns":
        """A new workspace with ``x`` (rows = examples) and, if given, the
        one-hot ``labels`` in its ``examples`` rows.  A width other than the
        model's fan-in, or labels that are not one integer class id below
        its outputs per example, raise :class:`DomainError`."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != len(model.weights[0]):
            raise DomainError(f"input dimension {x.shape[1]} does not match model fan-in {len(model.weights[0])}")
        loaded = Columns(model, len(x))
        loaded.inputs[: x.shape[1]] = x.T
        if labels is not None:
            labels, n_classes = np.atleast_1d(labels), len(loaded.targets)
            if labels.shape != (len(x),) or len(x) and not (
                labels.dtype.kind in "iu" and 0 <= labels.min() <= labels.max() < n_classes
            ):
                raise DomainError(f"labels must be one per example, class ids below the model's {n_classes} outputs")
            loaded.targets.fill(0.0)
            loaded.targets[labels, np.arange(len(x))] = 1.0
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


def _forward(cols: Columns) -> np.ndarray:
    """Forward pass of the batch in ``cols``: fills every hidden layer's
    input rows and returns the (n_classes, n) ``cols.logits``.  Layer l's
    outputs are ``blocks[l].T`` times its augmented inputs."""
    for block_t, a, z in cols.hidden:
        block_t.dot(a, z)
        np.maximum(z, _ZERO, out=z)
    block_t, a = cols.output
    return block_t.dot(a, cols.logits)


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits for a single feature vector or a batch (rows = examples)."""
    x = np.asarray(x, dtype=np.float64)
    logits = _forward(Columns.load(model, x)).T
    return logits[0] if x.ndim == 1 else logits


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
    return Columns.load(model, x).accuracy(labels)


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
        weights.dot(above, below)
        below *= active


def per_example_gradients(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> List[np.ndarray]:
    """Exact per-example gradients of the softmax cross-entropy loss.

    Returns one array per parameter in the order (W0, b0, W1, b1, ...), each
    with a leading batch axis: example i's gradient for the block [W_l; b_l]
    is the outer product of its augmented inputs [a_l, 1] and its signals
    d_l, as :func:`backward` leaves them.  Training never builds these; they
    are the reference for its ghost norms.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if len(x) == 0:
        raise DomainError("per-example gradients require a nonempty batch")
    cols = Columns.load(model, x, labels)
    backward(cols)
    grads: List[np.ndarray] = []
    for inputs, signals in zip(cols.layer_inputs, cols.layer_signals):
        block_grads = inputs.T[:, :, None] * signals.T[:, None, :]
        grads += [block_grads[:, :-1], block_grads[:, -1]]
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
    """Versioned header + JSON layer sizes + row-major float64 parameters.
    A model with a NaN or infinite parameter raises :class:`DomainError`
    and nothing is written."""
    if not np.isfinite(model.params).all():
        raise DomainError("model has non-finite parameters; no checkpoint is written")
    header = json.dumps({"layer_sizes": model.layer_sizes})
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC.encode() + b"\n")
        fh.write(header.encode() + b"\n")
        fh.write(model.params.tobytes())


def load_checkpoint(path: str) -> MlpModel:
    """The model that :func:`save_checkpoint` wrote to ``path``.  A file
    that is not one, down to layer sizes that are not a list of at least two
    integers, the first nonnegative and the rest positive, or parameters
    that are not all finite, raises :class:`ParseError`."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != CHECKPOINT_MAGIC.encode():
            raise ParseError(f"not a model checkpoint (header {magic.decode(errors='replace')!r})", line=1)
        try:
            header = json.loads(fh.readline())  # UnicodeDecodeError is a ValueError too
        except ValueError as exc:
            raise ParseError(f"bad checkpoint metadata: {exc}", line=2) from exc
        sizes = header.get("layer_sizes") if type(header) is dict else None
        if not (type(sizes) is list and len(sizes) >= 2 and all(type(size) is int for size in sizes)
                and sizes[0] >= 0 and min(sizes[1:]) >= 1):
            raise ParseError(f"bad checkpoint layer sizes {sizes!r}", line=2)
        blob = fh.read()
    shapes = list(zip(sizes[:-1], sizes[1:]))
    if len(blob) != 8 * sum((fan_in + 1) * fan_out for fan_in, fan_out in shapes):
        raise ParseError("checkpoint payload does not match the declared shapes")
    params = np.frombuffer(blob, dtype=np.float64)
    if not np.isfinite(params).all():
        raise ParseError("checkpoint holds non-finite parameters")
    model = MlpModel([np.empty(shape) for shape in shapes], [np.empty(fan_out) for _, fan_out in shapes])
    model.params[:] = params
    return model
