"""Activation-memory model for a training step.

Predicts the static-memory (``static_memory=True``) footprint of one
forward+backward step: :meth:`repro.nn.MemoryPlan.build` records one pass
of a deep copy of the model on zeros — the same recording a live
:class:`repro.nn.MemoryContext` makes on its first step — and packs the
recorded buffer lifetimes into slab offsets.  Prediction and measurement
are one code path, so the predicted bytes are the measured bytes
(``tests/perfmodel/test_memory_predictor.py`` holds them equal).

The model answers the capacity-planning questions behind Figure 3's OOM
wall: how activation bytes scale with batch size, and the largest batch a
device's memory admits for a given model once buffers share bytes by
liveness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn.layers.base import Module
from ..nn.losses import SoftmaxCrossEntropy
from ..nn.memory import MemoryPlan

__all__ = ["MemoryEstimate", "predict_activation_bytes", "sweep_batch_sizes", "max_batch_size"]


@dataclass(frozen=True)
class MemoryEstimate:
    """Predicted static-memory footprint of one training step."""

    batch_size: int
    peak_bytes: int  #: most bytes live at once inside the step
    pool_bytes: int  #: packed slab the step needs (>= peak_bytes)
    num_buffers: int  #: buffer requests per step

    @property
    def bytes_per_example(self) -> float:
        return self.peak_bytes / max(self.batch_size, 1)


def predict_activation_bytes(
    model: Module,
    input_shape: tuple[int, ...],
    batch_size: int,
    loss: SoftmaxCrossEntropy | None = None,
) -> MemoryEstimate:
    """Live peak and packed slab bytes of a static-memory training step.

    Records one real step at ``batch_size`` on a copy of the model, so it
    allocates about that step's live bytes and costs a step's time.
    """
    plan = MemoryPlan.build(model, input_shape, batch_size, loss=loss)
    return MemoryEstimate(
        batch_size=int(batch_size),
        peak_bytes=plan.peak_bytes,
        pool_bytes=plan.pool_bytes,
        num_buffers=plan.num_buffers,
    )


def sweep_batch_sizes(
    model_builder,
    input_shape: tuple[int, ...],
    batch_sizes,
    loss_factory=SoftmaxCrossEntropy,
) -> list[MemoryEstimate]:
    """Footprint-vs-batch-size curve (the memory analogue of Figure 3)."""
    return [
        predict_activation_bytes(
            model_builder(), input_shape, b, loss=loss_factory() if loss_factory else None
        )
        for b in batch_sizes
    ]


def max_batch_size(
    model_builder,
    input_shape: tuple[int, ...],
    memory_bytes: int,
    loss_factory=SoftmaxCrossEntropy,
    limit: int = 1 << 20,
) -> int:
    """Largest batch whose packed slab fits in ``memory_bytes`` (0 if none).

    Every buffer's size grows with the batch, so the slab does too and a
    doubling-then-bisection search applies.  Its probes are extrapolated
    (:meth:`MemoryPlan.at_batch`) from two recordings — first at batches 1
    and 2 — so the search itself runs no large step.  The answer ``b`` is
    then checked by recording real steps at ``b`` and ``b + 1``, which
    allocates about ``memory_bytes`` of host memory.  A layer whose code
    path changes with the batch (``Conv2D``'s backward GEMM choice) makes
    small batches mispredict large ones; the check catches that, and the
    search reruns extrapolating from the two recordings it just made.  The
    result always satisfies "``b`` fits and ``b + 1`` does not".
    """
    recorded: dict[int, MemoryPlan] = {}

    def record(b: int) -> MemoryPlan:
        if b not in recorded:
            recorded[b] = MemoryPlan.build(
                model_builder(), input_shape, b, loss=loss_factory() if loss_factory else None)
        return recorded[b]

    def fits(b: int) -> bool:
        return record(b).pool_bytes <= memory_bytes

    b = 1
    for _ in range(4):
        lo, hi = record(b), record(b + 1)
        try:
            b = _largest(lambda b: lo.at_batch(hi, b).pool_bytes <= memory_bytes, limit)
        except ValueError:  # b and b + 1 take different code paths
            break
        if (b == 0 or fits(b)) and not fits(b + 1):
            return b
        if b == 0:
            break
    return _largest(fits, limit)


def _largest(fits, limit: int) -> int:
    """Largest ``b <= limit`` with ``fits(b)``, for a monotone ``fits``."""
    if not fits(1):
        return 0
    lo, hi = 1, 2
    while hi <= limit and fits(hi):
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo
