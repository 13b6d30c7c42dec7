"""Private hyperparameter selection via the exponential mechanism.

Candidates are scored by their number of incorrect predictions z on a
held-out portion; the mechanism draws index i with probability proportional
to ``exp(-eps * z_i / 2)``.  The draw satisfies eps-DP and therefore
``eps^2 / 2``-zCDP, chargeable to a reshuffling-mode ledger.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .data import Dataset
from .errors import DomainError, UsageError


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < math.inf:
        raise DomainError(f"eps must be finite and nonnegative, got {eps}")


def _probabilities(z_scores: Sequence[float], eps: float) -> List[float]:
    """Normalized exp(-eps z / 2) weights as Python floats, shifted by the
    largest log weight before exponentiating so that none overflows; the
    one computation behind the probabilities and the draw."""
    if len(z_scores) == 0:
        raise UsageError("selection requires at least one candidate")
    _check_eps(eps)
    try:
        finite = all(map(math.isfinite, z_scores))
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        finite = False
    if not finite:  # the eps-DP claim holds for finite scores only
        raise DomainError(f"scores must be finite numbers, got {list(z_scores)}")
    scale = -0.5 * eps
    log_w = [scale * z for z in z_scores]
    peak = max(log_w)
    if not math.isfinite(peak):  # -eps z / 2 overflowed: the shift would give NaN weights
        raise DomainError(f"eps * score / 2 overflows for eps {eps} and scores {list(z_scores)}")
    w = [math.exp(x - peak) for x in log_w]
    total = sum(w)
    return [x / total for x in w]


def selection_probabilities(z_scores: Sequence[float], eps: float) -> np.ndarray:
    """The probability of each candidate, proportional to exp(-eps z / 2)."""
    return np.array(_probabilities(z_scores, eps))


def exp_mechanism_select(z_scores: Sequence[float], eps: float, rng: np.random.Generator) -> int:
    """Draw one candidate index with probability proportional to exp(-eps z/2):
    the first cdf entry above one ``rng.random()`` value."""
    cdf = list(itertools.accumulate(_probabilities(z_scores, eps)))
    return min(bisect.bisect_right(cdf, rng.random()), len(cdf) - 1)


def selection_rho(eps: float) -> float:
    """zCDP cost of one eps-DP exponential-mechanism draw: eps^2 / 2."""
    _check_eps(eps)
    return 0.5 * eps * eps


def partition_indices(n: int, parts: int, rng: np.random.Generator) -> List[np.ndarray]:
    """Seeded shuffle, then round-robin assignment into ``parts`` portions
    whose sizes differ by at most one."""
    if parts < 1 or parts > n:
        raise DomainError(f"parts must lie in 1..{n}, got {parts}")
    perm = rng.permutation(n)
    return [perm[i::parts] for i in range(parts)]


@dataclass
class TuneResult:
    selected: int
    portion_sizes: List[int]


def partition_tune(
    dataset: Dataset,
    n_candidates: int,
    train_candidate: Callable[[int, Dataset], Callable[[np.ndarray], np.ndarray]],
    eps: float,
    seed: int,
) -> TuneResult:
    """Train each candidate on its own data portion and select privately.

    The dataset is split into ``n_candidates + 1`` near-equal portions;
    candidate i is trained on portion i (``train_candidate(i, portion)``
    must return a label-predicting callable) and all candidates are scored
    on the final held-out portion.
    """
    if len(dataset) < n_candidates + 1:
        raise DomainError(
            f"dataset of size {len(dataset)} cannot be split into {n_candidates + 1} portions"
        )
    rng = np.random.default_rng(seed)
    portions = partition_indices(len(dataset), n_candidates + 1, rng)
    holdout = dataset.subset(portions[-1])
    z_scores = []  # incorrect held-out predictions: private, only the draw is released
    for i in range(n_candidates):
        predictor = train_candidate(i, dataset.subset(portions[i]))
        predicted = np.asarray(predictor(holdout.features))
        z_scores.append(int(np.sum(predicted != holdout.labels)))
    selected = exp_mechanism_select(z_scores, eps, rng)
    return TuneResult(
        selected=selected,
        portion_sizes=[len(p) for p in portions],
    )
