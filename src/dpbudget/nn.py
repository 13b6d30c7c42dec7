"""Small feed-forward classifier with exact per-example gradients.

Deliberately minimal: dense layers with ReLU between them, logits out,
softmax cross-entropy loss, float64 everywhere.  All parameters live in one
flat vector, in checkpoint order (W0, b0, W1, b1, ...), so an update is one
vector operation.  Batched backpropagation yields each layer's inputs and
backprop signals for every example (no loops over examples), which is what
the gradient-clipping step of DP-SGD needs.
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
    ...); ``weights[i]`` and ``biases[i]`` are views into it.  The
    constructor copies its arguments.
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
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        offset = 0
        for w in weights:
            end = offset + w.size
            self.weights.append(self.params[offset:end].reshape(w.shape))
            self.biases.append(self.params[end:end + w.shape[1]])
            offset = end + w.shape[1]

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

    def copy(self) -> "MlpModel":
        return MlpModel(self.weights, self.biases)


def _forward_trace(model: MlpModel, x: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Pre-activations and activations for a batch; ReLU'(0) is taken as 0."""
    h = x
    pre, act = [], [x]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < last else z
        act.append(h)
    return pre, act


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits for a single feature vector or a batch (rows = examples)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.weights[0].shape[0]:
        raise DomainError(
            f"input dimension {x.shape[1]} does not match model fan-in {model.weights[0].shape[0]}"
        )
    logits = _forward_trace(model, x)[1][-1]
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


def backprop_signals(
    model: MlpModel, x: np.ndarray, labels: np.ndarray
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Each layer's inputs and backprop signals for a batch.

    Returns ``(inputs, signals)``, one (n, fan_in) and one (n, fan_out)
    array per layer: example i's loss gradient is ``outer(inputs[l][i],
    signals[l][i])`` for W_l and ``signals[l][i]`` for b_l, so its squared
    norm is ``(|inputs[l][i]|^2 + 1) |signals[l][i]|^2``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.atleast_1d(labels)
    if len(x) == 0:
        raise DomainError("backprop signals require a nonempty batch")
    if x.shape[1] != model.weights[0].shape[0]:
        raise DomainError(
            f"input dimension {x.shape[1]} does not match model fan-in {model.weights[0].shape[0]}"
        )
    pre, act = _forward_trace(model, x)
    delta = softmax(act[-1])
    delta[np.arange(len(x)), labels] -= 1.0
    signals = [delta]
    for layer in range(len(model.weights) - 1, 0, -1):
        delta = (delta @ model.weights[layer].T) * (pre[layer - 1] > 0.0)
        signals.append(delta)
    return act[:-1], signals[::-1]


def per_example_gradients(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> List[np.ndarray]:
    """Exact per-example gradients of the softmax cross-entropy loss.

    Returns one array per parameter in the order (W0, b0, W1, b1, ...), each
    with a leading batch axis.  Training never builds these; they are the
    outer-product reference for :func:`backprop_signals`.
    """
    grads: List[np.ndarray] = []
    for a, delta in zip(*backprop_signals(model, x, labels)):
        grads += [a[:, :, None] * delta[:, None, :], delta]
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
