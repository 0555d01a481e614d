"""Accuracy metrics, the evaluation loop and streaming averages."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["top_k_accuracy", "top1_accuracy", "evaluate", "RunningMean", "EpochRecord",
           "TrainResult"]


def top_k_accuracy(logits: np.ndarray, targets: np.ndarray, k: int = 1) -> float:
    """Fraction of rows whose target is among the k largest logits."""
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ValueError("logits must be (N, C) and targets (N,)")
    if not 1 <= k <= logits.shape[1]:
        raise ValueError(f"k={k} out of range for {logits.shape[1]} classes")
    if k == 1:
        pred = logits.argmax(axis=1)
        return float(np.mean(pred == targets))
    topk = np.argpartition(logits, -k, axis=1)[:, -k:]
    return float(np.mean(np.any(topk == targets[:, None], axis=1)))


def top1_accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 test accuracy — the paper's only reported metric."""
    return top_k_accuracy(logits, targets, k=1)


def evaluate(model, x: np.ndarray, y: np.ndarray, batch_size: int) -> float:
    """Top-1 accuracy of ``model`` on ``(x, y)`` in eval mode, ``batch_size``
    examples a pass, counted per batch (under static memory the next pass
    reuses the logits' bytes) and divided once; ``nan`` for an empty set.
    Callers pass the largest batch their device trains at, so inference
    never needs more memory than a training step.  Restores the mode."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    training = model.training
    model.eval()
    correct = 0
    for lo in range(0, len(x), batch_size):
        logits = model.forward(x[lo : lo + batch_size])
        correct += int(np.count_nonzero(logits.argmax(axis=1) == y[lo : lo + batch_size]))
    if training:
        model.train()
    return correct / len(x) if len(x) else float("nan")


class RunningMean:
    """Numerically simple streaming mean with per-item weights."""

    def __init__(self) -> None:
        self.total = 0.0
        self.weight = 0.0

    def update(self, value: float, weight: float = 1.0) -> None:
        self.total += float(value) * float(weight)
        self.weight += float(weight)

    @property
    def mean(self) -> float:
        """Weighted mean of the values seen so far.

        Returns ``nan`` when no weight has been accumulated: the mean of an
        empty stream is undefined, and a silent ``0.0`` is indistinguishable
        from a genuine zero average (e.g. 0% accuracy), which let empty-eval
        bugs pass unnoticed.  ``nan`` propagates loudly through downstream
        arithmetic and fails ``==`` comparisons in tests.
        """
        return self.total / self.weight if self.weight else float("nan")

    def reset(self) -> None:
        self.total = 0.0
        self.weight = 0.0


@dataclass
class EpochRecord:
    """One row of training history."""

    epoch: int
    train_loss: float
    train_accuracy: float
    test_accuracy: float
    learning_rate: float
    iterations: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    """Full training history plus summary statistics."""

    history: list[EpochRecord] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float:
        return self.history[-1].test_accuracy if self.history else 0.0

    @property
    def peak_test_accuracy(self) -> float:
        """The paper reports *peak* top-1 accuracy (Tables 8/9)."""
        return max((r.test_accuracy for r in self.history), default=0.0)

    @property
    def total_iterations(self) -> int:
        return sum(r.iterations for r in self.history)

    def accuracy_curve(self) -> list[tuple[int, float]]:
        return [(r.epoch, r.test_accuracy) for r in self.history]

    def epochs_to_accuracy(self, target: float) -> int | None:
        """First epoch whose test accuracy reaches ``target`` (Figure 7)."""
        for r in self.history:
            if r.test_accuracy >= target:
                return r.epoch
        return None
