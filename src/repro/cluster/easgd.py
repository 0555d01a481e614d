"""Elastic Averaging SGD (Zhang, Choromanska & LeCun 2015) — the other
asynchronous-family baseline the paper cites.

Workers hold independent replicas that explore freely for ``tau`` local SGD
steps, then exchange an *elastic* pull with a center variable x̃ kept by the
master:

    x_i ← x_i − α (x_i − x̃)          (worker pulled toward center)
    x̃  ← x̃ + α Σ_i (x_i − x̃)        (center pulled toward workers)

Unlike synchronous SGD, the replicas are *not* kept identical — exploration
is the point — so EASGD is not sequentially consistent; it trades exactness
for reduced communication frequency (one exchange per τ steps instead of
per step).  This implementation is the synchronous-round variant (EASGD's
deterministic form), running on the simulated fabric with the master-worker
topology of Figure 2(a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..comm import Communicator, NetworkProfile, run_cluster
from ..core.metrics import evaluate
from ..core.optimizer import Optimizer
from ..core.schedules import ConstantLR, Schedule
from ..core.step import backprop
from ..nn.layers.base import Module
from ..nn.losses import SoftmaxCrossEntropy
from .packing import flatten_params, unflatten_params
from .sharding import epoch_permutation, shard_batch

__all__ = ["EASGDConfig", "EASGDResult", "train_easgd"]


@dataclass(frozen=True)
class EASGDConfig:
    """Elastic-averaging configuration.

    ``alpha`` is the elastic coefficient (the paper's stability condition
    needs α·P < 1 — validated here); ``tau`` the communication period in
    local steps.
    """

    world: int
    epochs: int
    batch_size: int  # per-worker batch
    alpha: float = 0.05
    tau: int = 4
    profile: NetworkProfile | None = None
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.world < 2:
            raise ValueError("EASGD needs a master and at least one worker")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.alpha * (self.world - 1) >= 1:
            raise ValueError("stability requires alpha * workers < 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")


@dataclass
class EASGDResult:
    center_accuracy: float = 0.0
    worker_accuracies: list[float] = field(default_factory=list)
    #: mean L2 distance worker→center at the end (exploration spread)
    consensus_distance: float = 0.0
    rounds: int = 0
    simulated_seconds: float = 0.0
    messages: int = 0


def train_easgd(
    model_builder: Callable[[], Module],
    optimizer_builder: Callable[[Sequence], Optimizer],
    schedule: Schedule | float,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    config: EASGDConfig,
) -> EASGDResult:
    """Run synchronous-round EASGD: rank 0 is the center, ranks 1..P−1 are
    exploring workers, each training on its own shard of the data."""
    sched = ConstantLR(schedule) if isinstance(schedule, (int, float)) else schedule
    n = len(x_train)
    n_workers = config.world - 1

    def worker(comm: Communicator):
        model = model_builder()
        params = model.parameters()

        if comm.rank == 0:
            # master: hold the center variable, answer elastic rounds until
            # every worker has signalled completion (workers may run
            # different round counts when shards are uneven)
            center = flatten_params(params)
            rounds = 0
            active = set(range(1, config.world))
            while active:
                msgs = {src: comm.recv(src, tag=1) for src in sorted(active)}
                finished = {s for s, m in msgs.items() if isinstance(m, str)}
                active -= finished
                arrays = {s: m for s, m in msgs.items() if not isinstance(m, str)}
                if arrays:
                    diffs = {s: m - center for s, m in arrays.items()}
                    for src, xi in arrays.items():
                        comm.send(src, xi - config.alpha * diffs[src], tag=2)
                    center = center + config.alpha * sum(diffs.values())
                    rounds += 1
            unflatten_params(center, params)
            acc = evaluate(model, x_test, y_test, config.batch_size)
            return {"center_acc": acc, "rounds": rounds, "center": center}

        # worker: local SGD with periodic elastic exchange
        optimizer = optimizer_builder(params)
        loss_fn = SoftmaxCrossEntropy()
        iteration = 0
        for epoch in range(config.epochs):
            order = epoch_permutation(n, epoch, config.shuffle_seed)
            my_stream = shard_batch(order, n_workers, comm.rank - 1)
            for lo in range(0, len(my_stream), config.batch_size):
                idx = my_stream[lo : lo + config.batch_size]
                if len(idx) == 0:
                    continue
                backprop(model, loss_fn, params, x_train, y_train, [idx], len(idx))
                optimizer.step(sched(iteration))
                iteration += 1
                if iteration % config.tau == 0:
                    comm.send(0, flatten_params(params), tag=1)
                    pulled = comm.recv(0, tag=2)
                    unflatten_params(pulled, params)
        # final exchange so the center sees the last state, then stop
        comm.send(0, flatten_params(params), tag=1)
        pulled = comm.recv(0, tag=2)
        unflatten_params(pulled, params)
        comm.send(0, "done", tag=1)

        acc = evaluate(model, x_test, y_test, config.batch_size)
        return {"worker_acc": acc, "state": flatten_params(params)}

    results, fabric = run_cluster(config.world, worker, profile=config.profile)
    master = results[0]
    workers = results[1:]
    center = master["center"]
    dists = [float(np.linalg.norm(w["state"] - center)) for w in workers]
    return EASGDResult(
        center_accuracy=master["center_acc"],
        worker_accuracies=[w["worker_acc"] for w in workers],
        consensus_distance=float(np.mean(dists)),
        rounds=master["rounds"],
        simulated_seconds=fabric.makespan,
        messages=fabric.stats.messages,
    )
