"""Single-process training loop.

This is the serial reference implementation: the simulated cluster in
:mod:`repro.cluster` must match it step-for-step (sequential consistency).
It also powers the laptop-scale convergence experiments (Tables 5/7/10,
Figures 1/4/5).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..cluster.sharding import epoch_permutation
from ..nn.layers.base import Module
from ..nn.losses import SoftmaxCrossEntropy
from ..nn.memory import MemoryContext
from ..obs import timed as _timed
from ..obs.events import publish as _publish
from .metrics import EpochRecord, RunningMean, TrainResult, evaluate
from .optimizer import Optimizer
from .schedules import ConstantLR, Schedule
from .step import backprop, iterations_per_epoch

__all__ = ["Trainer", "TrainResult", "iterations_per_epoch"]


class Trainer:
    """Serial mini-batch trainer.

    Parameters
    ----------
    model, optimizer:
        The network and its update rule.
    schedule:
        Iteration-indexed LR schedule; a plain float is wrapped in
        :class:`ConstantLR`.
    loss:
        Defaults to mean softmax cross-entropy.
    shuffle_seed:
        Epoch shuffling is derived deterministically from this seed so that
        serial and simulated-cluster runs see identical batch streams.
    static_memory:
        Bind a :class:`repro.nn.MemoryContext` to the model and loss so
        steady-state steps run allocation-free out of one slab whose bytes
        buffers share by recorded lifetime.
        This picks the layers' allocator, not their code: ``False`` runs
        the same arithmetic on fresh arrays, with bitwise-identical
        results.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        schedule: Schedule | float,
        loss: SoftmaxCrossEntropy | None = None,
        shuffle_seed: int = 0,
        static_memory: bool = False,
    ):
        self.model = model
        self.optimizer = optimizer
        self.schedule = ConstantLR(schedule) if isinstance(schedule, (int, float)) else schedule
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        self.shuffle_seed = int(shuffle_seed)
        self.iteration = 0
        self.memory: MemoryContext | None = None
        if static_memory:
            self.memory = MemoryContext()
            self.model.bind_memory(self.memory)
            self.loss.bind_memory(self.memory)

    def arena_stats(self) -> dict | None:
        """Slab accounting snapshot, or ``None`` without static memory."""
        return self.memory.arena.stats() if self.memory is not None else None

    # -- single step -----------------------------------------------------------
    def train_step(
        self, x: np.ndarray, y: np.ndarray, micro_batch_size: int | None = None
    ) -> tuple[float, float]:
        """One forward/backward/update on batch (x, y).

        ``micro_batch_size`` enables gradient accumulation: the batch is
        processed in chunks whose loss gradients are weighted by
        |chunk|/|batch| and summed before one optimiser step — how a memory-
        limited device runs a batch larger than Figure 3's OOM point.  For
        models without BatchNorm this is *exactly* the full-batch step (the
        same argument as the cluster's sequential consistency); BatchNorm
        statistics become per-micro-batch, the "ghost batch norm" effect.

        Returns (mean loss, top-1 train accuracy on the batch).
        """
        n = len(x)
        if n == 0:
            raise ValueError(f"iteration {self.iteration}: empty batch")
        chunk = n if micro_batch_size is None else int(micro_batch_size)
        if chunk <= 0:
            raise ValueError("micro_batch_size must be positive")
        with _timed("trainer.train_step", iteration=self.iteration, batch=n):
            loss_sum, correct = backprop(
                self.model, self.loss, self.optimizer.params, x, y,
                [slice(lo, lo + chunk) for lo in range(0, n, chunk)], n)
            self.optimizer.step(self.schedule(self.iteration))
            self.iteration += 1
        return loss_sum / n, correct / n

    # -- evaluation --------------------------------------------------------------
    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int) -> float:
        """Top-1 accuracy over a held-out set, ``batch_size`` examples at a
        time (see :func:`repro.core.metrics.evaluate`)."""
        with _timed("trainer.evaluate", examples=len(x)):
            return evaluate(self.model, x, y, batch_size)

    # -- full loop -----------------------------------------------------------------
    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_test: np.ndarray,
        y_test: np.ndarray,
        epochs: int,
        batch_size: int,
        callback: Callable[[EpochRecord], None] | None = None,
        micro_batch_size: int | None = None,
    ) -> TrainResult:
        """Train for ``epochs`` full passes with global batch ``batch_size``.

        ``micro_batch_size`` forwards to :meth:`train_step`'s gradient
        accumulation — how a memory-limited device runs large batches.
        """
        return self._fit(x_train, y_train, x_test, y_test, epochs,
                         lambda epoch: batch_size, callback, micro_batch_size)

    def fit_with_batch_schedule(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_test: np.ndarray,
        y_test: np.ndarray,
        epochs: int,
        batch_schedule,
        callback: Callable[[EpochRecord], None] | None = None,
    ) -> TrainResult:
        """Train with an epoch-indexed batch-size schedule (Smith et al.'s
        "increase the batch size instead of decaying the learning rate" —
        the follow-on to the paper's large-batch programme).

        ``batch_schedule`` maps epoch → global batch
        (:class:`repro.core.batch_schedule.BatchSizeSchedule` or any
        callable).  Each epoch runs :meth:`fit`'s loop at that epoch's batch
        size.
        """
        return self._fit(x_train, y_train, x_test, y_test, epochs,
                         batch_schedule, callback, None)

    def _fit(self, x_train, y_train, x_test, y_test, epochs, batch_schedule,
             callback, micro_batch_size) -> TrainResult:
        """The epoch loop behind :meth:`fit` and :meth:`fit_with_batch_schedule`.

        Epoch ``e`` visits the examples in
        ``epoch_permutation(n, e, shuffle_seed)`` order — the same shuffle
        every rank of a simulated cluster uses.
        """
        n = len(x_train)
        if n == 0:
            raise ValueError("empty training set: x_train has no examples")
        result = TrainResult()
        for epoch in range(epochs):
            batch_size = int(batch_schedule(epoch))
            if batch_size <= 0:
                raise ValueError(f"epoch {epoch + 1}: batch size must be positive "
                                 f"(got {batch_size})")
            batch_size = min(batch_size, n)
            with _timed("trainer.epoch", epoch=epoch + 1, batch_size=batch_size):
                order = epoch_permutation(n, epoch, self.shuffle_seed)
                loss_avg, acc_avg = RunningMean(), RunningMean()
                iters = 0
                lr_last = 0.0
                for lo in range(0, n, batch_size):
                    idx = order[lo : lo + batch_size]
                    lr_last = self.schedule(self.iteration)
                    loss_val, acc = self.train_step(
                        x_train[idx], y_train[idx],
                        micro_batch_size=micro_batch_size,
                    )
                    loss_avg.update(loss_val, weight=len(idx))
                    acc_avg.update(acc, weight=len(idx))
                    iters += 1
                record = EpochRecord(
                    epoch=epoch + 1,
                    train_loss=loss_avg.mean,
                    train_accuracy=acc_avg.mean,
                    test_accuracy=self.evaluate(  # at the step's largest chunk
                        x_test, y_test, min(micro_batch_size or n, batch_size)),
                    learning_rate=lr_last,
                    iterations=iters,
                )
            _publish("trainer.epoch", epoch=record.epoch,
                     train_loss=record.train_loss,
                     test_accuracy=record.test_accuracy)
            result.history.append(record)
            if callback is not None:
                callback(record)
        return result
