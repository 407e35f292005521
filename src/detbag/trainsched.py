"""Training dynamics: LR schedules and cross-mini-batch normalization
statistics.

The step schedule's defaults live here: initial LR 0.01 decayed by 0.1 at
steps 400k and 450k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_INITIAL_LR = 0.01
DEFAULT_MILESTONES = (400_000, 450_000)
DEFAULT_DECAY_FACTOR = 0.1


def _rate(rate, what: str, **inputs: float) -> float:
    """`rate()` of finite inputs; ValueError naming an input that is not, or
    saying `what` overflows when the rate is not finite."""
    for name, value in inputs.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite: {value}")
    try:
        lr = rate()
    except OverflowError:
        lr = math.inf
    if not math.isfinite(lr):
        raise ValueError(f"{what} overflows: "
                         + ", ".join(f"{name}={value}" for name, value in inputs.items()))
    return lr


def cosine_lr(t: int, total_steps: int, lr_max: float, lr_min: float = 0.0) -> float:
    """Cosine annealing: lr_min + (lr_max - lr_min) * (1 + cos(pi t/T)) / 2."""
    if total_steps <= 0:
        raise ValueError(f"total_steps must be positive: {total_steps}")
    if not 0 <= t <= total_steps:
        raise ValueError(f"step {t} outside [0, {total_steps}]")
    return _rate(lambda: lr_min + 0.5 * (lr_max - lr_min)
                 * (1.0 + math.cos(math.pi * t / total_steps)),
                 "cosine rate", lr_max=lr_max, lr_min=lr_min)


def step_decay_lr(t: int, milestones: tuple[int, ...] = DEFAULT_MILESTONES,
                  lr0: float = DEFAULT_INITIAL_LR,
                  factor: float = DEFAULT_DECAY_FACTOR) -> float:
    """Piecewise-constant decay: lr0 * factor^(milestones passed by step t)."""
    if list(milestones) != sorted(milestones):
        raise ValueError(f"milestones must be sorted: {milestones}")
    passed = sum(1 for m in milestones if m <= t)
    return _rate(lambda: lr0 * factor**passed, f"step rate lr0 * factor**{passed}",
                 lr0=lr0, factor=factor)


@dataclass(frozen=True)
class BatchStats:
    """Per-channel normalization statistics (population variance)."""

    mean: np.ndarray
    var: np.ndarray
    count: int


class CmBNAccumulator:
    """Accumulates normalization statistics across the mini-batches of one
    logical batch, resetting exactly at batch boundaries.

    Per channel it keeps the count, mean and sum of squared deviations M2,
    and folds each mini-batch in with the pairwise merge of Chan, Golub &
    LeVeque. Raw moments (sum x^2 / n - mean^2) cancel catastrophically when
    the mean is large against the spread; the merge does not.
    """

    def __init__(self, minibatches_per_batch: int):
        if minibatches_per_batch < 1:
            raise ValueError(
                f"minibatches_per_batch must be >= 1: {minibatches_per_batch}")
        self.minibatches_per_batch = minibatches_per_batch
        self.reset()

    def reset(self):
        self._mean: np.ndarray | None = None
        self._m2: np.ndarray | None = None
        self._n = 0
        self._position = 0  # mini-batches seen in the current batch

    def update(self, minibatch: np.ndarray) -> BatchStats:
        """Fold one mini-batch in and return the statistics to normalize
        with: mean/variance over every sample seen so far in this batch.

        Accepts (n,) for a single channel or (n, channels).
        """
        x = np.asarray(minibatch, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError(f"minibatch must be nonempty (n,) or (n, C): {x.shape}")
        if self._mean is None:
            self._mean = np.zeros(x.shape[1])
            self._m2 = np.zeros(x.shape[1])
        elif x.shape[1] != self._mean.shape[0]:
            raise ValueError(
                f"channel count changed mid-batch: {x.shape[1]} vs {self._mean.shape[0]}")
        n_b = x.shape[0]
        mean_b = x.mean(axis=0)
        dev = x - mean_b
        n_a, self._n = self._n, self._n + n_b
        delta = mean_b - self._mean
        # on the first mini-batch n_b / n == 1.0 and n_a == 0: exactly mean_b
        self._mean = self._mean + delta * (n_b / self._n)
        self._m2 = (self._m2 + (dev * dev).sum(axis=0)
                    + delta * delta * (n_a * n_b / self._n))
        self._position += 1

        stats = BatchStats(mean=self._mean.copy(), var=self._m2 / self._n,
                           count=self._n)
        if self._position >= self.minibatches_per_batch:
            self.reset()
        return stats
