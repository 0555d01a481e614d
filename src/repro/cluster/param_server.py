"""Asynchronous parameter server (Downpour-style) — the baseline the paper
argues *against*.

The Background section contrasts synchronous SGD with the master-worker
asynchronous scheme: "At each step, the master only communicates with one
worker... first-come-first-serve"; asynchronous methods "are not guaranteed
to be stable on large-scale systems".  This module reproduces that scheme as
a deterministic discrete-event simulation so the sync-vs-async stability
experiment is runnable (and seed-reproducible) on one machine.

Event model per worker cycle:

1. fetch — the server's current weights travel server→worker
   (α + β·|W| seconds);
2. compute — the worker computes a gradient on its next mini-batch against
   those (by now possibly stale) weights, taking ``compute_time`` seconds
   ± jitter drawn from a seeded RNG;
3. push — the gradient travels worker→server; the server applies updates
   strictly in arrival order (FCFS), one at a time.

Staleness of an update = number of server updates applied between the
worker's fetch and its gradient's arrival — the quantity that grows with
worker count and drives divergence at scale.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..comm.fabric import NetworkProfile
from ..core.metrics import evaluate
from ..core.optimizer import Optimizer
from ..core.schedules import ConstantLR, Schedule
from ..core.step import backprop
from ..nn.layers.base import Module
from ..nn.losses import SoftmaxCrossEntropy
from .packing import flatten_grads, flatten_params, unflatten_grads, unflatten_params

__all__ = ["ParamServerConfig", "ParamServerResult", "train_param_server"]


@dataclass(frozen=True)
class ParamServerConfig:
    """Async-training configuration.

    ``total_updates`` bounds the run (the async scheme has no global epoch
    barrier, so a fixed update budget replaces the epoch count —
    ``E·n/B`` updates equals the synchronous run's total iteration count).
    """

    workers: int
    total_updates: int
    batch_size: int  # per-worker batch
    compute_time: float = 1.0  # mean seconds per gradient
    compute_jitter: float = 0.1  # relative uniform jitter
    profile: NetworkProfile | None = None
    seed: int = 0
    eval_every: int = 0  # evaluate each k updates (0 = only at the end)

    def __post_init__(self):
        if self.workers <= 0 or self.total_updates <= 0 or self.batch_size <= 0:
            raise ValueError("workers, total_updates and batch_size must be positive")
        if not 0.0 <= self.compute_jitter < 1.0:
            raise ValueError("compute_jitter must be in [0, 1)")


@dataclass
class ParamServerResult:
    updates_applied: int = 0
    simulated_seconds: float = 0.0
    staleness: list[int] = field(default_factory=list)
    final_test_accuracy: float = 0.0
    #: (update index, simulated time, test accuracy) at eval points
    accuracy_curve: list[tuple[int, float, float]] = field(default_factory=list)
    diverged: bool = False

    @property
    def mean_staleness(self) -> float:
        return float(np.mean(self.staleness)) if self.staleness else 0.0

    @property
    def max_staleness(self) -> int:
        return max(self.staleness, default=0)


def train_param_server(
    model_builder: Callable[[], Module],
    optimizer_builder: Callable[[Sequence], Optimizer],
    schedule: Schedule | float,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    config: ParamServerConfig,
) -> ParamServerResult:
    """Run the asynchronous parameter-server simulation."""
    sched = ConstantLR(schedule) if isinstance(schedule, (int, float)) else schedule
    profile = config.profile if config.profile is not None else NetworkProfile.ideal()

    server_model = model_builder()
    optimizer = optimizer_builder(server_model.parameters())
    shadow = model_builder()  # reusable replica for stale-gradient evaluation
    shadow_params = shadow.parameters()
    loss_fn = SoftmaxCrossEntropy()
    params = server_model.parameters()
    model_bytes = int(sum(p.size for p in params)) * 8

    n = len(x_train)
    batch_rngs = [np.random.default_rng((config.seed, w)) for w in range(config.workers)]
    jitter_rng = np.random.default_rng((config.seed, "jitter".__hash__() & 0x7FFFFFFF))

    result = ParamServerResult()
    version = 0  # number of updates applied so far

    def gradient_on(weights_flat: np.ndarray, worker: int) -> np.ndarray:
        """Gradient of the mean loss on the worker's next batch at the given
        (possibly stale) weights."""
        unflatten_params(weights_flat, shadow_params)
        idx = batch_rngs[worker].integers(0, n, size=config.batch_size)
        backprop(shadow, loss_fn, shadow_params, x_train, y_train, [idx], len(idx))
        return flatten_grads(shadow_params)

    def compute_duration() -> float:
        j = config.compute_jitter
        scale = 1.0 + (jitter_rng.uniform(-j, j) if j > 0 else 0.0)
        return config.compute_time * scale

    def test_accuracy() -> float:
        return evaluate(server_model, x_test, y_test, config.batch_size)

    # Event heap: (arrival_time, tiebreak, worker, gradient, fetch_version).
    # Gradients are computed eagerly at fetch time (weights are only known
    # then); staleness accrues until the arrival event is processed.
    events: list[tuple[float, int, int, np.ndarray, int]] = []
    tiebreak = 0
    server_free_at = 0.0

    def schedule_cycle(worker: int, start_time: float) -> None:
        nonlocal tiebreak
        fetch_done = start_time + profile.transfer_time(model_bytes)
        grad = gradient_on(flatten_params(params), worker)
        arrival = fetch_done + compute_duration() + profile.transfer_time(model_bytes)
        heapq.heappush(events, (arrival, tiebreak, worker, grad, version))
        tiebreak += 1

    for w in range(config.workers):
        schedule_cycle(w, 0.0)

    while result.updates_applied < config.total_updates and events:
        arrival, _, worker, grad, fetch_version = heapq.heappop(events)
        apply_time = max(arrival, server_free_at)
        server_free_at = apply_time  # update cost itself treated as instant

        unflatten_grads(grad, params)
        lr = sched(result.updates_applied)
        optimizer.step(lr)
        version += 1
        result.updates_applied += 1
        result.staleness.append(version - 1 - fetch_version)
        result.simulated_seconds = apply_time

        if not all(np.isfinite(p.data).all() for p in params):
            result.diverged = True
            break

        if config.eval_every and result.updates_applied % config.eval_every == 0:
            result.accuracy_curve.append(
                (result.updates_applied, apply_time, test_accuracy())
            )

        if result.updates_applied < config.total_updates:
            schedule_cycle(worker, apply_time)

    result.final_test_accuracy = 0.0 if result.diverged else test_accuracy()
    return result
