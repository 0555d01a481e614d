"""Synchronous data-parallel SGD on the simulated cluster.

This is the algorithm the paper scales: every rank holds a full model
replica, computes gradients on its shard of the global batch, the gradients
are summed across ranks (allreduce, or gather-update-broadcast through a
master — Figure 2(a)), and every replica applies the *same* update.

Sequential consistency — the property the paper leans on ("all valid
parallel implementations of the algorithm match the behavior of the
sequential version") — holds by construction: the allreduced gradient is the
same global-batch mean the serial trainer computes, every rank sees a
bit-identical copy, and the optimiser arithmetic is identical.  Tests verify
P-worker runs match the serial large-batch run to fp tolerance.  The one
deliberate exception is BatchNorm, whose statistics are per-shard (exactly
as in the paper's Caffe/MLSL stacks); models without BN match the serial run
to ~1e-10, models with BN agree only statistically.

Simulated time: ranks advance their logical clocks by a caller-supplied
``compute_time(n_local_examples)`` before communicating, and the fabric
charges α-β time for every message, so ``ClusterResult.simulated_seconds``
is the α-β-γ critical path of the whole training run — the quantity
Tables 2/8/9 report.

Fault tolerance (``docs/architecture.md``, "Failure model & recovery"):
supplying a :class:`repro.faults.FaultPlan` in the config arms the fault
injector and the recovery machinery.  Message loss/corruption/delay are
absorbed by the reliable link layer (values exact, time lost); a rank crash
is detected by the survivors (transport dead-set + recv timeouts + the
failure detector), the attempt is halted in bounded time, and training
restarts from the latest periodic checkpoint with the surviving P−k ranks
and re-sharded batches — or aborts cleanly with a structured
:class:`repro.faults.FaultReport` when recovery is disabled or impossible.
Because the global-batch gradient is a sum over shards, re-sharding across
fewer ranks preserves the mathematics: a recovered run (no BatchNorm)
matches the fault-free run to floating-point associativity tolerance
(~1e-12) from the restored epoch onward, and a lossy run at the same world
size is bitwise identical (retransmission costs time, never values).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from threading import Lock
from typing import Callable, Sequence

import numpy as np

from ..comm import (
    ClusterHalted,
    Communicator,
    FabricTimeout,
    FailureDetector,
    NetworkProfile,
    PeerDeadError,
    PeerStatus,
    RankKilled,
    RetransmitExhausted,
    run_cluster,
)
from ..core.metrics import EpochRecord, top1_accuracy
from ..core.optimizer import Optimizer
from ..core.schedules import ConstantLR, Schedule
from ..faults import (
    FaultInjector,
    FaultPlan,
    FaultReport,
    FaultStats,
    TrainingAborted,
)
from ..nn.layers.base import Module
from ..nn.layers.norm import SyncBatchNorm
from ..nn.losses import SoftmaxCrossEntropy
from ..nn.memory import MemoryContext
from ..obs import timed as _timed
from ..obs.events import publish as _publish
from ..obs.metrics import gauge as _gauge
from .packing import flatten_grads, flatten_params, unflatten_grads, unflatten_params
from .sharding import epoch_permutation, shard_batch

__all__ = ["SyncSGDConfig", "ClusterResult", "train_sync_sgd"]


@dataclass(frozen=True)
class SyncSGDConfig:
    """Cluster-run configuration.

    Parameters
    ----------
    world:
        Number of simulated ranks P.
    epochs, batch_size:
        Fixed-epoch budget and *global* batch size (split across ranks).
    mode:
        ``"allreduce"`` — decentralised gradient allreduce (production);
        ``"master"`` — Figure 2(a): gradients reduce to rank 0, rank 0
        updates, new weights broadcast.
    algorithm:
        Allreduce algorithm (``tree``/``ring``/``rhd``) for allreduce mode
        and for the reduce/bcast trees in master mode.
    profile:
        α-β network profile; ``None`` = free network (pure correctness).
    compute_time:
        Maps a rank's local example count to simulated seconds of
        forward+backward work (plug in ``repro.perfmodel`` here).  ``None``
        charges no compute time.
    compressor_factory:
        Optional ``() -> Compressor`` enabling compressed gradient exchange
        (allreduce mode only): each rank keeps its own stateful compressor
        (error feedback is per-worker) and the wire carries compressed
        payloads.  ``None`` = full-precision exchange.
    bucket_bytes:
        Split the gradient exchange into ~this many bytes per bucket
        (allreduce mode only); ``None`` with ``overlap=False`` keeps the
        monolithic single-message exchange.  See
        :mod:`repro.cluster.bucketing`.
    overlap:
        Overlap gradient communication with backward compute: each
        bucket's allreduce launches as soon as backward finalises its
        gradients, so per-step simulated time is ``max(compute, comm)``
        instead of their sum.  Implies bucketing (default 1 MiB buckets
        when ``bucket_bytes`` is unset).  Results are bit-identical to the
        monolithic exchange for the ``tree``/``rhd`` algorithms; ``ring``
        agrees to summation-order tolerance (~1e-12).  Incompatible with
        ``compressor_factory`` (compression is blocking per bucket).
    static_memory:
        Each rank binds a :class:`repro.nn.MemoryContext` to its replica
        and loss, so steady-state steps run allocation-free out of a
        per-rank slab.  Only the allocator changes: ``False`` runs the
        same layer code on fresh arrays, with bitwise-identical results.
    shuffle_seed:
        Must match the serial trainer's for consistency comparisons.
    eval_every:
        Evaluate on rank 0 every k epochs (1 = every epoch).
    fault_plan:
        Optional :class:`repro.faults.FaultPlan`; arms fault injection and
        the recovery machinery below.
    recv_timeout:
        Wall-clock seconds a blocking receive waits before raising the
        typed ``FabricTimeout`` (``None`` = the communicator default).
    checkpoint_every:
        Epochs between recovery snapshots while a fault plan is armed.
    checkpoint_dir:
        When set, rank 0 also writes each snapshot to disk (atomically, via
        :func:`repro.util.checkpoint.save_checkpoint`) and recovery
        restores through the on-disk file — the full crash-restart path.
    on_failure:
        ``"recover"`` — restart from the latest snapshot with the surviving
        ranks; ``"abort"`` — raise :class:`repro.faults.TrainingAborted`
        carrying a structured :class:`repro.faults.FaultReport`.
    max_recoveries:
        Elastic restarts allowed before giving up and aborting.
    restart_overhead_seconds:
        Simulated seconds charged per recovery (failure detection +
        respawn + checkpoint reload on a real cluster).
    """

    world: int
    epochs: int
    batch_size: int
    mode: str = "allreduce"
    algorithm: str = "tree"
    profile: NetworkProfile | None = None
    compute_time: Callable[[int], float] | None = None
    compressor_factory: Callable[[], object] | None = None
    bucket_bytes: int | None = None
    overlap: bool = False
    static_memory: bool = False
    shuffle_seed: int = 0
    eval_every: int = 1
    #: restart support: epoch to resume from plus the states to load (every
    #: rank loads the same snapshot — replicas are identical by construction)
    start_epoch: int = 0
    initial_model_state: dict | None = None
    initial_optimizer_state: dict | None = None
    # -- fault tolerance ----------------------------------------------------
    fault_plan: FaultPlan | None = None
    recv_timeout: float | None = None
    checkpoint_every: int = 1
    checkpoint_dir: str | os.PathLike | None = None
    on_failure: str = "recover"
    max_recoveries: int = 8
    restart_overhead_seconds: float = 0.0

    def __post_init__(self):
        if self.world < 1:
            raise ValueError(
                f"world must be >= 1 (got {self.world}); "
                "use world=1 for a single-rank run"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1 (got {self.epochs})")
        if self.mode not in ("allreduce", "master"):
            raise ValueError(
                f"unknown mode {self.mode!r}; expected 'allreduce' or 'master'"
            )
        from ..comm.collectives import ALLREDUCE_ALGORITHMS

        if self.algorithm not in ALLREDUCE_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"available: {sorted(ALLREDUCE_ALGORITHMS)}"
            )
        if self.algorithm == "rhd" and self.world & (self.world - 1):
            raise ValueError(
                f"rhd allreduce requires a power-of-two world (got "
                f"{self.world}); pick algorithm='tree' or 'ring'"
            )
        if self.batch_size < self.world:
            raise ValueError(
                f"global batch {self.batch_size} smaller than world "
                f"{self.world}: some ranks would never see data — shrink "
                "world or grow the batch"
            )
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1 (got {self.eval_every})")
        if not 0 <= self.start_epoch < self.epochs:
            raise ValueError("start_epoch must be in [0, epochs)")
        if self.compressor_factory is not None and self.mode != "allreduce":
            raise ValueError("compressed exchange requires allreduce mode")
        if self.bucket_bytes is not None and self.bucket_bytes <= 0:
            raise ValueError(
                f"bucket_bytes must be positive (got {self.bucket_bytes})"
            )
        if (self.bucket_bytes is not None or self.overlap) and self.mode != "allreduce":
            raise ValueError("bucketed/overlapped exchange requires allreduce mode")
        if self.overlap and self.compressor_factory is not None:
            raise ValueError(
                "overlap is incompatible with compressed exchange "
                "(compression is blocking per bucket: set overlap=False)"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1 epoch (got {self.checkpoint_every})"
            )
        if self.on_failure not in ("recover", "abort"):
            raise ValueError(
                f"unknown on_failure {self.on_failure!r}; "
                "expected 'recover' or 'abort'"
            )
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be non-negative")
        if self.recv_timeout is not None and self.recv_timeout <= 0:
            raise ValueError(
                f"recv_timeout must be positive (got {self.recv_timeout})"
            )
        if self.restart_overhead_seconds < 0:
            raise ValueError("restart_overhead_seconds must be non-negative")


@dataclass
class ClusterResult:
    """Outcome of a simulated cluster training run."""

    history: list[EpochRecord] = field(default_factory=list)
    simulated_seconds: float = 0.0
    messages: int = 0
    comm_bytes: int = 0
    #: (epoch, simulated seconds at epoch end, test accuracy) — Figure 7
    time_curve: list[tuple[int, float, float]] = field(default_factory=list)
    final_state: dict | None = None
    #: rank 0's optimiser state (identical on every rank in allreduce mode) —
    #: together with ``final_state`` this is a complete restart checkpoint
    final_optimizer_state: dict | None = None
    #: fault accounting (None when no fault plan was armed)
    fault_stats: FaultStats | None = None
    #: one report per survived failure, in order
    fault_reports: list[FaultReport] = field(default_factory=list)
    #: elastic restarts performed
    recoveries: int = 0
    #: ranks still alive at the end (== world when nothing died)
    final_world: int = 0
    #: rank 0's simulated seconds spent *blocked* on gradient communication
    #: (the part of the α-β cost overlap could not hide)
    exposed_comm_seconds: float = 0.0
    #: rank 0's total gradient-allreduce occupancy in simulated seconds
    #: (sum over buckets; == exposed for every blocking exchange)
    comm_busy_seconds: float = 0.0

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of gradient communication hidden under compute."""
        if self.comm_busy_seconds <= 0.0:
            return 0.0
        return 1.0 - self.exposed_comm_seconds / self.comm_busy_seconds

    @property
    def final_test_accuracy(self) -> float:
        return self.history[-1].test_accuracy if self.history else 0.0

    @property
    def peak_test_accuracy(self) -> float:
        return max((r.test_accuracy for r in self.history), default=0.0)

    def time_to_accuracy(self, target: float) -> float | None:
        """Simulated seconds until test accuracy first reaches ``target``."""
        for _, t, acc in self.time_curve:
            if acc >= target:
                return t
        return None


class _SnapshotStore:
    """Thread-safe holder of the latest recovery snapshot (rank 0 writes,
    the controller reads after the attempt's threads have joined)."""

    def __init__(self):
        self._lock = Lock()
        self._latest: dict | None = None

    def push(self, snapshot: dict) -> None:
        with self._lock:
            self._latest = snapshot

    @property
    def latest(self) -> dict | None:
        with self._lock:
            return self._latest


def _sync_gradient_allreduce(
    comm: Communicator,
    model: Module,
    weight: float,
    algorithm: str,
    compressor=None,
    bucket: np.ndarray | None = None,
) -> None:
    """Decentralised mode: allreduce shard-weighted gradients in place,
    optionally through a gradient compressor (1-bit / top-k / quantised).

    ``bucket`` is the rank's reusable flat gradient buffer (|W| floats);
    supplying it avoids reallocating the bucket every iteration."""
    params = model.parameters()
    flat = flatten_grads(params, out=bucket)
    if weight != 1.0:
        flat *= weight
    if compressor is not None:
        from .compression import compressed_allreduce

        total = compressed_allreduce(comm, flat, compressor)
    else:
        total = comm.allreduce(flat, algorithm=algorithm)
    unflatten_grads(total, params)


def _sync_gradient_master(
    comm: Communicator,
    model: Module,
    optimizer: Optimizer,
    weight: float,
    lr: float,
    grad_bucket: np.ndarray | None = None,
    param_bucket: np.ndarray | None = None,
) -> None:
    """Figure 2(a) mode: reduce to master, master updates, weights broadcast.

    Only rank 0's optimiser state advances; worker replicas just load the
    broadcast weights, exactly like parameter-server-style sync SGD.

    ``grad_bucket``/``param_bucket`` are reusable |W| flat buffers for the
    gradient reduce and the weight broadcast — same buffer-reuse discipline
    as the allreduce path (the fabric copies payloads on send, so reuse
    across iterations is safe).
    """
    params = model.parameters()
    flat = flatten_grads(params, out=grad_bucket)
    flat *= weight
    total = comm.reduce(flat, root=0)
    if comm.rank == 0:
        unflatten_grads(total, params)
        optimizer.step(lr)
        new_weights = flatten_params(params, out=param_bucket)
    else:
        new_weights = None
    new_weights = comm.bcast(new_weights, root=0)
    if comm.rank != 0:
        unflatten_params(new_weights, params)


def train_sync_sgd(
    model_builder: Callable[[], Module],
    optimizer_builder: Callable[[Sequence], Optimizer],
    schedule: Schedule | float,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    config: SyncSGDConfig,
) -> ClusterResult:
    """Run synchronous data-parallel SGD on a simulated cluster.

    ``model_builder`` must be deterministic (same weights every call) — each
    rank builds its own replica and consistency depends on identical
    initialisation, mirroring a real cluster's synchronised weight init.

    With a :class:`repro.faults.FaultPlan` armed, the run survives message
    loss (retransmit), stragglers (slow ranks), and rank crashes (elastic
    restart from the latest snapshot with P−k ranks); an unsurvivable
    failure raises :class:`repro.faults.TrainingAborted`.
    """
    sched = ConstantLR(schedule) if isinstance(schedule, (int, float)) else schedule
    n = len(x_train)
    loss_fn_proto = SoftmaxCrossEntropy
    fault_tolerant = config.fault_plan is not None

    def make_worker(
        world: int,
        start_epoch: int,
        model_state: dict | None,
        opt_state: dict | None,
        injector: FaultInjector | None,
        store: _SnapshotStore | None,
        cfg: SyncSGDConfig,
    ):
        iters_per_epoch = -(-n // cfg.batch_size)

        def body(comm: Communicator):
            model = model_builder()
            optimizer = optimizer_builder(model.parameters())
            loss_fn = loss_fn_proto()
            memory = None
            if cfg.static_memory:
                memory = MemoryContext()
                model.bind_memory(memory)
                loss_fn.bind_memory(memory)
            if model_state is not None:
                model.load_state_dict(model_state)
            if opt_state is not None:
                optimizer.load_state_dict(opt_state)
            iteration = start_epoch * iters_per_epoch
            history: list[EpochRecord] = []
            time_curve: list[tuple[int, float, float]] = []
            # gradient-exchange accounting for the monolithic path (the
            # bucketed exchange keeps its own running totals)
            exposed_total = 0.0
            busy_total = 0.0

            # SyncBatchNorm layers need this rank's communicator; their
            # presence switches the gradient protocol to pre-scaling.
            sync_bn = [m for m in model.modules() if isinstance(m, SyncBatchNorm)]
            for bn in sync_bn:
                bn.set_comm(comm)
            uses_sync_bn = bool(sync_bn)
            compressor = (
                cfg.compressor_factory() if cfg.compressor_factory else None
            )
            # Reusable flat gradient bucket (one |W| buffer per rank); master
            # mode also reuses a |W| buffer for the weight broadcast.
            grad_bucket = np.empty(
                sum(p.size for p in model.parameters()), dtype=np.float64
            )
            param_bucket = (
                np.empty_like(grad_bucket) if cfg.mode == "master" else None
            )
            # Bucketed (optionally overlapped) gradient exchange — see
            # repro.cluster.bucketing.  The monolithic path below stays
            # byte-identical when neither bucket_bytes nor overlap is set.
            exchange = None
            if cfg.mode == "allreduce" and (cfg.overlap or cfg.bucket_bytes is not None):
                from .bucketing import BucketedExchange, BucketPlan

                exchange = BucketedExchange(
                    comm,
                    BucketPlan.from_model(model, bucket_bytes=cfg.bucket_bytes),
                    algorithm=cfg.algorithm,
                    overlap=cfg.overlap,
                    compressor=compressor,
                )
                if cfg.overlap:
                    exchange.install_hooks(model)

            for epoch in range(start_epoch, cfg.epochs):
                order = epoch_permutation(n, epoch, cfg.shuffle_seed)
                loss_sum = 0.0
                correct_sum = 0.0
                seen = 0
                for lo in range(0, n, cfg.batch_size):
                    if injector is not None and injector.should_kill(
                        comm.rank, iteration
                    ):
                        raise RankKilled(comm.rank, iteration)
                    global_idx = order[lo : lo + cfg.batch_size]
                    local_idx = shard_batch(global_idx, world, comm.rank)
                    gbs = len(global_idx)
                    lr = sched(iteration)
                    # local loss gradients are means over the shard;
                    # weighting by |shard|/|global batch| makes the
                    # cross-rank sum the exact global-batch mean even when
                    # shards are uneven
                    weight = len(local_idx) / gbs
                    combine_weight = 1.0 if uses_sync_bn else weight
                    overlapping = exchange is not None and cfg.overlap

                    with _timed("trainer.train_step", rank=comm.rank,
                                iteration=iteration, epoch=epoch):
                        step_seconds = (
                            cfg.compute_time(len(local_idx))
                            if cfg.compute_time is not None and len(local_idx) > 0
                            else 0.0
                        )
                        with _timed("cluster.compute", rank=comm.rank,
                                    examples=len(local_idx)):
                            model.train()
                            optimizer.zero_grad()
                            if overlapping:
                                # charges forward time now; backward time is
                                # charged per bucket as the hooks launch
                                exchange.begin_step(combine_weight, step_seconds)
                            # With SyncBatchNorm every rank must join the
                            # collective forward/backward, even on an empty
                            # shard, and the loss gradient is pre-scaled so
                            # BN's global reductions see consistent
                            # per-example 1/N scaling.
                            if len(local_idx) > 0 or uses_sync_bn:
                                xb, yb = x_train[local_idx], y_train[local_idx]
                                logits = model.forward(xb)
                                batch_loss = loss_fn.forward(logits, yb)
                                grad = loss_fn.backward()
                                if uses_sync_bn:
                                    grad *= weight  # in place
                                model.backward(grad)
                                if len(local_idx) > 0:
                                    loss_sum += batch_loss * len(local_idx)
                                    correct_sum += (
                                        top1_accuracy(logits, yb) * len(local_idx)
                                    )
                                    seen += len(local_idx)
                                    if (not overlapping
                                            and cfg.compute_time is not None):
                                        comm.compute(step_seconds)

                        # Simulated seconds this rank spends in the gradient
                        # exchange: its own send cost plus any wait for
                        # slower peers — the straggler-wait signal.
                        sync_start = comm.time
                        with _timed("cluster.grad_sync", rank=comm.rank,
                                    mode=cfg.mode):
                            if cfg.mode == "allreduce":
                                if overlapping:
                                    exchange.finish_step()
                                elif exchange is not None:
                                    exchange.sync_blocking(combine_weight)
                                else:
                                    _sync_gradient_allreduce(
                                        comm, model, combine_weight,
                                        cfg.algorithm, compressor,
                                        bucket=grad_bucket)
                                optimizer.step(lr)
                            else:
                                _sync_gradient_master(
                                    comm, model, optimizer, combine_weight,
                                    lr, grad_bucket=grad_bucket,
                                    param_bucket=param_bucket)
                        sync_elapsed = comm.time - sync_start
                        if exchange is None:
                            exposed_total += sync_elapsed
                            busy_total += sync_elapsed
                        _gauge("cluster.straggler_wait_s",
                               rank=comm.rank).set(sync_elapsed)
                    iteration += 1

                # per-epoch metric aggregation: one tiny allreduce
                stats = comm.allreduce(
                    np.array([loss_sum, correct_sum, float(seen)])
                )
                if comm.rank == 0:
                    test_acc = float("nan")
                    if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
                        # count per batch: under static memory every batch's
                        # logits reuse the same slab bytes
                        model.eval()
                        correct = 0
                        for elo in range(0, len(x_test), 512):
                            logits = model.forward(x_test[elo : elo + 512])
                            correct += int(np.count_nonzero(
                                logits.argmax(axis=1) == y_test[elo : elo + 512]))
                        test_acc = correct / len(x_test)
                    history.append(
                        EpochRecord(
                            epoch=epoch + 1,
                            train_loss=stats[0] / max(stats[2], 1.0),
                            train_accuracy=stats[1] / max(stats[2], 1.0),
                            test_accuracy=test_acc,
                            learning_rate=sched(max(iteration - 1, 0)),
                            iterations=iters_per_epoch,
                        )
                    )
                    time_curve.append((epoch + 1, comm.time, test_acc))
                    _publish("cluster.epoch", epoch=epoch + 1,
                             test_accuracy=test_acc, sim_seconds=comm.time)
                    if (
                        store is not None
                        and (epoch + 1) % cfg.checkpoint_every == 0
                        and epoch + 1 < cfg.epochs
                    ):
                        snapshot = {
                            "next_epoch": epoch + 1,
                            "model_state": model.state_dict(),
                            "optimizer_state": optimizer.state_dict(),
                            "sim_time": comm.time,
                            "history": list(history),
                            "time_curve": list(time_curve),
                            "path": None,
                        }
                        if cfg.checkpoint_dir is not None:
                            path = os.path.join(
                                os.fspath(cfg.checkpoint_dir),
                                f"ckpt_epoch{epoch + 1:04d}.npz",
                            )
                            from ..util.checkpoint import save_checkpoint

                            save_checkpoint(path, model, optimizer,
                                            iteration=iteration)
                            snapshot["path"] = path
                        store.push(snapshot)
                        _publish("checkpoint.save", epoch=epoch + 1,
                                 path=snapshot["path"], sim_seconds=comm.time)

            if comm.rank == 0:
                if exchange is not None:
                    exposed_total = exchange.exposed_seconds
                    busy_total = exchange.busy_seconds
                return {
                    "history": history,
                    "time_curve": time_curve,
                    "state": model.state_dict(),
                    "optimizer_state": optimizer.state_dict(),
                    "exposed_comm_seconds": exposed_total,
                    "comm_busy_seconds": busy_total,
                }
            return None

        if not fault_tolerant:
            return body

        def worker(comm: Communicator):
            comm.detector = FailureDetector(comm.fabric, comm.rank)
            try:
                return body(comm)
            except RankKilled as exc:
                # fail-stop crash: the dying process's connections reset
                comm.fabric.mark_dead(comm.rank)
                return {"fault": "killed", "rank": comm.rank,
                        "iteration": exc.iteration}
            except FabricTimeout as exc:
                injector.stats.count_timeout()
                verdict = comm.detector.diagnose_timeout(exc)
                comm.fabric.halt(
                    f"rank {comm.rank}: peer {exc.src} {verdict} "
                    f"(recv timeout)"
                )
                return {"fault": "aborted", "rank": comm.rank,
                        "cause": f"timeout waiting for rank {exc.src} "
                                 f"({verdict})",
                        "suspect": exc.src if verdict == PeerStatus.SUSPECT
                        else None}
            except PeerDeadError as exc:
                comm.fabric.halt(f"rank {comm.rank}: peer {exc.src} dead")
                return {"fault": "aborted", "rank": comm.rank,
                        "cause": f"peer rank {exc.src} dead", "suspect": None}
            except RetransmitExhausted as exc:
                comm.fabric.halt(
                    f"rank {comm.rank}: link to rank {exc.dst} down"
                )
                return {"fault": "aborted", "rank": comm.rank,
                        "cause": f"retransmits to rank {exc.dst} exhausted",
                        "suspect": exc.dst}
            except ClusterHalted as exc:
                return {"fault": "halted", "rank": comm.rank,
                        "cause": exc.reason}

        return worker

    # ---- fault-free fast path: one attempt, exceptions propagate -------------
    if not fault_tolerant:
        worker = make_worker(config.world, config.start_epoch,
                             config.initial_model_state,
                             config.initial_optimizer_state,
                             injector=None, store=None, cfg=config)
        results, fabric = run_cluster(config.world, worker,
                                      profile=config.profile,
                                      recv_timeout=config.recv_timeout)
        root = results[0]
        return ClusterResult(
            history=root["history"],
            simulated_seconds=fabric.makespan,
            messages=fabric.stats.messages,
            comm_bytes=fabric.stats.bytes,
            time_curve=root["time_curve"],
            final_state=root["state"],
            final_optimizer_state=root["optimizer_state"],
            final_world=config.world,
            exposed_comm_seconds=root["exposed_comm_seconds"],
            comm_busy_seconds=root["comm_busy_seconds"],
        )

    # ---- fault-tolerant controller: attempts + elastic recovery --------------
    total_stats = FaultStats()
    reports: list[FaultReport] = []
    plan = config.fault_plan
    cfg = config
    world = config.world
    start_epoch = config.start_epoch
    model_state = config.initial_model_state
    opt_state = config.initial_optimizer_state
    prior_history: list[EpochRecord] = []
    prior_curve: list[tuple[int, float, float]] = []
    time_offset = 0.0
    total_messages = 0
    total_bytes = 0
    recoveries = 0

    while True:
        injector = FaultInjector(plan)
        store = _SnapshotStore()
        worker = make_worker(world, start_epoch, model_state, opt_state,
                             injector, store, cfg)
        results, fabric = run_cluster(world, worker, profile=cfg.profile,
                                      injector=injector,
                                      recv_timeout=cfg.recv_timeout)
        total_stats.merge(injector.stats)
        total_messages += fabric.stats.messages
        total_bytes += fabric.stats.bytes

        markers = [r for r in results if isinstance(r, dict) and "fault" in r]
        if not markers:
            root = results[0]
            history = prior_history + root["history"]
            curve = prior_curve + [
                (e, time_offset + t, a) for e, t, a in root["time_curve"]
            ]
            return ClusterResult(
                history=history,
                simulated_seconds=time_offset + fabric.makespan,
                messages=total_messages,
                comm_bytes=total_bytes,
                time_curve=curve,
                final_state=root["state"],
                final_optimizer_state=root["optimizer_state"],
                fault_stats=total_stats,
                fault_reports=reports,
                recoveries=recoveries,
                final_world=world,
                exposed_comm_seconds=root["exposed_comm_seconds"],
                comm_busy_seconds=root["comm_busy_seconds"],
            )

        # -- the attempt failed: diagnose -----------------------------------
        dead = sorted(fabric.dead_ranks)
        killed = [m for m in markers if m["fault"] == "killed"]
        failed_iter = min((m["iteration"] for m in killed), default=None)
        causes = sorted({m["cause"] for m in markers if m["fault"] == "aborted"})
        cause = (
            f"rank(s) {dead} crashed" if dead
            else "; ".join(causes) or "unknown fault"
        )
        snap = store.latest
        survivors = world - len(dead)

        recoverable = (
            cfg.on_failure == "recover"
            and recoveries < cfg.max_recoveries
            and survivors >= 1
            and len(dead) > 0  # a pure timeout with no confirmed death is
            # indistinguishable from a partitioned-but-alive peer: restarting
            # would fork the cluster, so abort instead
        )
        if not recoverable:
            report = FaultReport(
                outcome="aborted",
                cause=cause if cfg.on_failure != "abort"
                else f"on_failure='abort': {cause}",
                dead_ranks=dead,
                failed_at_iteration=failed_iter,
                world_before=world,
                world_after=survivors,
                stats=total_stats,
            )
            reports.append(report)
            _publish("recovery.abort", cause=report.cause,
                     dead_ranks=list(dead), world_before=world,
                     world_after=survivors)
            raise TrainingAborted(report)

        # -- elastic restart from the latest snapshot ------------------------
        recoveries += 1
        total_stats.recoveries += 1
        snap_time = snap["sim_time"] if snap else 0.0
        total_stats.lost_seconds += max(fabric.makespan - snap_time, 0.0)
        if snap is not None:
            if snap["path"] is not None:
                # exercise the real crash-restart path: reload through the
                # on-disk atomic checkpoint rather than the in-memory copy
                from ..util.checkpoint import load_checkpoint

                ckpt_model = model_builder()
                ckpt_opt = optimizer_builder(ckpt_model.parameters())
                load_checkpoint(snap["path"], ckpt_model, ckpt_opt)
                model_state = ckpt_model.state_dict()
                opt_state = ckpt_opt.state_dict()
            else:
                model_state = snap["model_state"]
                opt_state = snap["optimizer_state"]
            start_epoch = snap["next_epoch"]
            prior_history = prior_history + snap["history"]
            prior_curve = prior_curve + [
                (e, time_offset + t, a) for e, t, a in snap["time_curve"]
            ]
        # else: no snapshot yet — restart the attempt from its own start
        # state (model_state/opt_state/start_epoch are unchanged)
        time_offset += fabric.makespan + cfg.restart_overhead_seconds

        new_world = survivors
        new_algorithm = cfg.algorithm
        if new_algorithm == "rhd" and new_world & (new_world - 1):
            # rhd needs a power-of-two world; fall back to the tree
            new_algorithm = "tree"
        reports.append(
            FaultReport(
                outcome="recovered",
                cause=cause,
                dead_ranks=dead,
                failed_at_iteration=failed_iter,
                restarted_from_epoch=start_epoch,
                world_before=world,
                world_after=new_world,
            )
        )
        _publish("recovery.restart", cause=cause, dead_ranks=list(dead),
                 restarted_from_epoch=start_epoch, world_before=world,
                 world_after=new_world)
        plan = plan.without_rank(set(dead), world)
        world = new_world
        cfg = replace(cfg, world=world, algorithm=new_algorithm,
                      start_epoch=start_epoch)
