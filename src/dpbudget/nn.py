"""Small feed-forward classifier with exact per-example gradients.

Deliberately minimal: dense layers with ReLU between them, logits out,
softmax cross-entropy loss, float64 everywhere.  All parameters live in one
flat vector, in checkpoint order (W0, b0, W1, b1, ...), so an update is one
vector operation.  Layer l's W_l followed by b_l is the row-major
(fan_in+1, fan_out) block [W_l; b_l], and every pass runs on those blocks:
a layer is one product of its ones-augmented inputs [a, 1] with its block.
Batched backpropagation yields each layer's augmented inputs and backprop
signals for every example (no loops over examples), which is what the
gradient-clipping step of DP-SGD needs.
"""

from __future__ import annotations

import json
import math
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DomainError, ParseError

CHECKPOINT_MAGIC = "dpbudget-mlp 1"


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


def _forward(model: MlpModel, x: np.ndarray, inputs_t: np.ndarray) -> np.ndarray:
    """Forward pass with the examples as columns; returns the (n_classes, n)
    logits.

    ``inputs_t`` receives, stacked in layer order, each layer's transposed
    augmented inputs [a_l, 1]: it has ``model.input_layers.shape[1]`` (the
    sum of fan_in+1) rows and one column per example.  Layer l's outputs are
    ``blocks[l].T`` times its rows.
    """
    inputs_t[: x.shape[1]] = x.T
    lo = 0
    for block in model.blocks[:-1]:
        hi = lo + len(block)
        inputs_t[hi - 1] = 1.0
        z = np.dot(block.T, inputs_t[lo:hi], out=inputs_t[hi : hi + block.shape[1]])
        np.maximum(z, 0.0, out=z)
        lo = hi
    inputs_t[-1] = 1.0
    return np.dot(model.blocks[-1].T, inputs_t[lo:])


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
    _check_batch(model, x)
    logits = _forward(model, x, np.empty((model.input_layers.shape[1], len(x)))).T
    return logits[0] if single else logits


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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
    return float(np.mean(predict(model, x) == labels))


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
    # One array holds both results, so a large batch makes one allocation.
    n_inputs = model.input_layers.shape[1]
    stacked = np.empty((n_inputs + model.signal_layers.shape[1], len(x)))
    inputs_t, signals_t = stacked[:n_inputs], stacked[n_inputs:]
    logits_t = _forward(model, x, inputs_t)
    lo = len(signals_t) - len(logits_t)
    delta = signals_t[lo:]
    delta[...] = softmax(logits_t.T).T
    delta[labels, np.arange(len(x))] -= 1.0
    # ReLU'(z) as 0.0 or 1.0, taken as 0 at z = 0: the sign of the ReLU outputs
    active = np.sign(inputs_t)
    top = len(inputs_t)
    for block in model.blocks[:0:-1]:
        top -= len(block)
        fan_in = len(block) - 1
        below = signals_t[lo - fan_in : lo]
        np.dot(block[:-1], delta, out=below)
        below *= active[top : top + fan_in]
        delta, lo = below, lo - fan_in
    return inputs_t.T, signals_t.T


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
