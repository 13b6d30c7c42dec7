"""Dataset ingestion, splits, and the two batching regimes.

The batching distinction matters for privacy accounting: reshuffled batches
("rf") are disjoint within an epoch, while sampled batches ("rs") include
each example independently with probability q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import DomainError, ParseError

CANCER_FEATURE_SCALE = 10.0  # features are integer-valued 1..10


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64
    normalization: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise DomainError("features must be (n, d) with one label per row")
        if not np.all(np.isfinite(self.features)):
            raise DomainError("features contain non-finite values")
        if len(self.labels) and self.labels.min() < 0:
            raise DomainError("labels must be nonnegative class ids")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], normalization=dict(self.normalization))


def load_cancer_csv(path: str) -> Dataset:
    """Load a file in the Wisconsin breast-cancer (original) format.

    Eleven comma-separated columns: sample id, nine integer features valued
    1..10, and a class label (2 = benign, 4 = malignant).  Missing values are
    marked '?'.  Rows with any missing value are dropped, the id column is
    discarded, classes map to 0/1, and features are scaled to (0, 1] by the
    fixed constant 10 (data-independent, so preprocessing leaks nothing).
    A line that is not ASCII text raises :class:`ParseError`.
    """
    features: List[List[float]] = []
    labels: List[int] = []
    total_rows = 0
    dropped = 0
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():  # a byte above 127, escaped as a lone surrogate
                raise ParseError("not ASCII text", line=lineno)
            line = raw.strip()
            if not line:
                continue
            total_rows += 1
            parts = line.split(",")
            if len(parts) != 11:
                raise ParseError(f"expected 11 comma-separated fields, got {len(parts)}", line=lineno)
            if "?" in parts[1:10]:
                dropped += 1
                continue
            try:
                values = [int(p) for p in parts[1:10]]
                cls = int(parts[10])
            except ValueError as exc:
                raise ParseError(f"non-integer field ({exc})", line=lineno) from exc
            if any(v < 1 or v > 10 for v in values):
                raise ParseError("feature values must lie in 1..10", line=lineno)
            if cls not in (2, 4):
                raise ParseError(f"class must be 2 or 4, got {cls}", line=lineno)
            features.append([v / CANCER_FEATURE_SCALE for v in values])
            labels.append(0 if cls == 2 else 1)
    if not features:
        raise ParseError(f"no usable rows in {path}")
    return Dataset(
        np.array(features),
        np.array(labels),
        normalization={
            "scale": CANCER_FEATURE_SCALE,
            "source_rows": total_rows,
            "dropped_missing": dropped,
        },
    )


def train_test_split(dataset: Dataset, n_train: int, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then first ``n_train`` rows train / remainder test."""
    if not 0 < n_train < len(dataset):
        raise DomainError(f"n_train must lie strictly between 0 and {len(dataset)}")
    perm = np.random.default_rng(seed).permutation(len(dataset))
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


def rf_batches(n: int, batch_size: int, rng: np.random.Generator) -> List[np.ndarray]:
    """One epoch of reshuffled batches: a fresh permutation split into
    ceil(n / batch_size) disjoint batches covering every index once."""
    if batch_size < 1 or batch_size > n:
        raise DomainError(f"batch_size must lie in 1..{n}, got {batch_size}")
    perm = rng.permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


def rs_batches(n: int, q: float, iters: int, rng: np.random.Generator) -> List[np.ndarray]:
    """``iters`` sampled batches, each of which includes each index of 0..n-1
    independently with probability q.

    The iters * n inclusions are one Bernoulli(q) sequence, sampled exactly
    through the geometric gaps between its successes: O(q n) draws a batch.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if n < 1 or iters < 0:
        raise DomainError(f"need n >= 1 and iters >= 0, got n={n}, iters={iters}")
    if iters == 0:
        return []
    total = n * iters
    # Gaps are drawn in chunks that cover the expected count with a wide
    # margin, until the last success reaches the final position.
    chunk = int(q * total + 4.0 * math.sqrt(q * total)) + 16
    chunks, last = [], -1
    while last < total - 1:
        chunks.append(last + np.cumsum(rng.geometric(q, chunk)))
        last = chunks[-1][-1]
    positions = np.concatenate(chunks)
    # batch i holds the positions in [i n, (i + 1) n), each taken mod n
    bounds = np.searchsorted(positions, np.arange(0, total + 1, n)).tolist()
    wrapped = positions[: bounds[-1]] % n
    return [wrapped[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def synth_blobs(
    n: int,
    d: int,
    n_classes: int,
    seed: int,
    separation: float = 4.0,
) -> Dataset:
    """Deterministic unit-variance Gaussian blobs: classification data for fast tests."""
    if n < 1:
        raise DomainError(f"need at least one example, got n={n}")
    if d < 1 or n_classes < 2:
        raise DomainError("need d >= 1 and at least two classes")
    rng = np.random.default_rng(seed)
    # axis-aligned centers with alternating sign: pairwise distance is at
    # least separation regardless of the seed
    centers = np.zeros((n_classes, d))
    for c in range(n_classes):
        centers[c, (c // 2) % d] = separation * (-1.0 if c % 2 else 1.0)
    labels = np.arange(n) % n_classes
    features = centers[labels] + rng.normal(0.0, 1.0, size=(n, d))
    perm = rng.permutation(n)
    return Dataset(features[perm], labels[perm])
