"""Synchronous data-parallel SGD on the simulated cluster.

This is the algorithm the paper scales: every rank holds a full model
replica, computes gradients on its shard of the global batch, the gradients
are summed across ranks (allreduce, or reduce to a master and broadcast
back — Figure 2(a)), and every replica applies the *same* update.

Sequential consistency — the property the paper leans on ("all valid
parallel implementations of the algorithm match the behavior of the
sequential version") — holds by construction: every rank scales its loss
gradient by |shard|/|global batch| before backward (the rule the serial
trainer's micro-batches and SyncBatchNorm use), so the exchange's plain sum
is the same global-batch mean the serial trainer computes, every rank sees
a bit-identical copy, and the optimiser arithmetic is identical.  Tests verify
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
reaches the survivors through the transport dead set (a deadlock among them
through the fabric's wait table), the attempt is halted at once, and
training restarts from the latest periodic checkpoint with the surviving
P−k ranks and re-sharded batches — or aborts cleanly with a structured
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
    NetworkProfile,
    PeerDeadError,
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
from .bucketing import BucketedExchange, BucketPlan
# no path here calls these; they stay module attributes because
# perfbench/tracing.py wraps them by name
from .packing import flatten_grads, unflatten_grads  # noqa: F401
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
        ``"master"`` — Figure 2(a): gradients reduce to rank 0 and rank 0's
        sum is broadcast back, both along binomial trees, after which every
        replica applies the same update.  Rank 0 sends the summed gradient
        rather than its updated weights: the payload is the same |W|
        floats, and every replica then holds exactly the weights rank 0
        would have sent.  This is the one-bucket blocking ``tree``
        allreduce, and runs as that exchange.
    algorithm:
        Allreduce algorithm (``tree``/``ring``/``rhd``), allreduce mode
        only: master mode always reduces and broadcasts along binomial
        trees.
    profile:
        α-β network profile; ``None`` = free network (pure correctness).
    compute_time:
        Maps a rank's local example count to simulated seconds of
        forward+backward work (plug in ``repro.perfmodel`` here).  ``None``
        charges no compute time.
    compressor_factory:
        Optional ``() -> Compressor`` enabling compressed gradient exchange
        (allreduce mode only): each rank builds one stateful compressor per
        bucket (error feedback is per worker and per bucket) and the wire
        carries compressed payloads.  ``None`` = full-precision exchange.
    bucket_bytes:
        Split the gradient exchange into ~this many bytes per bucket
        (allreduce mode only).  ``None`` with ``overlap=False`` is the
        monolithic exchange: the one-bucket plan, one |W|-element
        allreduce per step.  See :mod:`repro.cluster.bucketing`.
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
        Ignored.  Receives wait on fabric state, not on a wall clock: a
        dead peer, a halt or a deadlock ends them (see
        :mod:`repro.comm.fabric`).
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
    #: resume support: epoch to resume from plus the states to load (every
    #: rank loads the same snapshot — replicas are identical by construction);
    #: a recovery attempt is the run resumed from its latest snapshot
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
    #: rank 0's optimiser state (identical on every rank) —
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


def _sync_gradient_allreduce(exchange) -> None:
    """The step loop's one exchange call: sum every rank's pre-scaled
    gradients in place — finishing the overlapped buckets backward
    launched, or running the whole exchange now."""
    if exchange.overlap:
        exchange.finish_step()
    else:
        exchange.sync_blocking()


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
    iters_per_epoch = -(-n // config.batch_size)
    fault_tolerant = config.fault_plan is not None

    def make_worker(cfg: SyncSGDConfig, injector: FaultInjector | None,
                    store: _SnapshotStore | None):
        """One attempt's rank body: ``cfg`` says everything the attempt
        runs, ``injector``/``store`` are its fault injector and snapshots."""

        def body(comm: Communicator):
            model = model_builder()
            optimizer = optimizer_builder(model.parameters())
            loss_fn = SoftmaxCrossEntropy()
            if cfg.static_memory:
                memory = MemoryContext()
                model.bind_memory(memory)
                loss_fn.bind_memory(memory)
            if cfg.initial_model_state is not None:
                model.load_state_dict(cfg.initial_model_state)
            if cfg.initial_optimizer_state is not None:
                optimizer.load_state_dict(cfg.initial_optimizer_state)
            # SyncBatchNorm layers need this rank's communicator, and every
            # rank must join their collectives, even on an empty shard
            sync_bn = [m for m in model.modules() if isinstance(m, SyncBatchNorm)]
            for bn in sync_bn:
                bn.set_comm(comm)
            # the monolithic exchange is the one-bucket plan; master mode
            # (which rejects buckets and overlap) is its tree allreduce: a
            # reduce to rank 0, then a broadcast of rank 0's sum back
            bucket_bytes = cfg.bucket_bytes
            if bucket_bytes is None and not cfg.overlap:
                bucket_bytes = sum(p.data.nbytes for p in model.parameters())
            exchange = BucketedExchange(
                comm,
                BucketPlan.from_model(model, bucket_bytes=bucket_bytes),
                algorithm="tree" if cfg.mode == "master" else cfg.algorithm,
                overlap=cfg.overlap,
                compressor_factory=cfg.compressor_factory,
            )
            if cfg.overlap:
                exchange.install_hooks(model)
            iteration = cfg.start_epoch * iters_per_epoch
            history: list[EpochRecord] = []
            time_curve: list[tuple[int, float, float]] = []

            for epoch in range(cfg.start_epoch, cfg.epochs):
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
                    local_idx = shard_batch(global_idx, cfg.world, comm.rank)
                    lr = sched(iteration)

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
                            if cfg.overlap:
                                # charges forward time now; backward time is
                                # charged per bucket as the hooks launch
                                exchange.begin_step(step_seconds)
                            if len(local_idx) > 0 or sync_bn:
                                xb, yb = x_train[local_idx], y_train[local_idx]
                                logits = model.forward(xb)
                                batch_loss = loss_fn.forward(logits, yb)
                                # the loss gradient is a mean over the shard;
                                # scaling it by |shard|/|global batch| makes
                                # the exchange's sum over ranks the exact
                                # global-batch mean, even for uneven shards
                                grad = loss_fn.backward()
                                grad *= len(local_idx) / len(global_idx)
                                model.backward(grad)
                                if len(local_idx) > 0:
                                    loss_sum += batch_loss * len(local_idx)
                                    correct_sum += (
                                        top1_accuracy(logits, yb) * len(local_idx)
                                    )
                                    seen += len(local_idx)
                                    if (not cfg.overlap
                                            and cfg.compute_time is not None):
                                        comm.compute(step_seconds)

                        # Simulated seconds this rank spends in the gradient
                        # exchange: its own send cost plus any wait for
                        # slower peers — the straggler-wait signal.
                        sync_start = comm.time
                        with _timed("cluster.grad_sync", rank=comm.rank,
                                    mode=cfg.mode):
                            _sync_gradient_allreduce(exchange)
                            optimizer.step(lr)
                        _gauge("cluster.straggler_wait_s",
                               rank=comm.rank).set(comm.time - sync_start)
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
                return {
                    "history": history,
                    "time_curve": time_curve,
                    "state": model.state_dict(),
                    "optimizer_state": optimizer.state_dict(),
                    "exposed_comm_seconds": exchange.exposed_seconds,
                    "comm_busy_seconds": exchange.busy_seconds,
                }
            return None

        if not fault_tolerant:
            return body

        def worker(comm: Communicator):
            try:
                return body(comm)
            except RankKilled as exc:
                # fail-stop crash: the dying process's connections reset
                comm.fabric.mark_dead(comm.rank)
                return {"fault": "killed", "rank": comm.rank,
                        "iteration": exc.iteration}
            except (FabricTimeout, PeerDeadError, RetransmitExhausted) as exc:
                comm.fabric.halt(str(exc))
                return {"fault": "aborted", "rank": comm.rank,
                        "cause": str(exc)}
            except ClusterHalted as exc:
                return {"fault": "halted", "rank": comm.rank,
                        "cause": exc.reason}

        return worker

    # ---- the controller: attempts + elastic recovery --------------------------
    # Without a fault plan there is one attempt: no injector, no snapshots,
    # and the worker is the bare body, so its exceptions propagate.  Each
    # recovery resumes the run from its latest snapshot: the next attempt's
    # config is this one with the survivors' world, the restored epoch and
    # states, and the fault plan renumbered over the survivors.
    total_stats = FaultStats() if fault_tolerant else None
    reports: list[FaultReport] = []
    cfg = config
    prior_history: list[EpochRecord] = []
    prior_curve: list[tuple[int, float, float]] = []
    time_offset = 0.0
    total_messages = 0
    total_bytes = 0

    while True:
        injector = FaultInjector(cfg.fault_plan) if fault_tolerant else None
        store = _SnapshotStore() if fault_tolerant else None
        results, fabric = run_cluster(cfg.world, make_worker(cfg, injector, store),
                                      profile=cfg.profile, injector=injector)
        if fault_tolerant:
            total_stats.merge(injector.stats)
        total_messages += fabric.stats.messages
        total_bytes += fabric.stats.bytes

        markers = [r for r in results if isinstance(r, dict) and "fault" in r]
        if not markers:
            root = results[0]
            return ClusterResult(
                history=prior_history + root["history"],
                simulated_seconds=time_offset + fabric.makespan,
                messages=total_messages,
                comm_bytes=total_bytes,
                time_curve=prior_curve + [
                    (e, time_offset + t, a) for e, t, a in root["time_curve"]
                ],
                final_state=root["state"],
                final_optimizer_state=root["optimizer_state"],
                fault_stats=total_stats,
                fault_reports=reports,
                recoveries=len(reports),
                final_world=cfg.world,
                exposed_comm_seconds=root["exposed_comm_seconds"],
                comm_busy_seconds=root["comm_busy_seconds"],
            )

        # -- the attempt failed: diagnose -----------------------------------
        world = cfg.world
        dead = sorted(fabric.dead_ranks)
        killed = [m for m in markers if m["fault"] == "killed"]
        failed_iter = min((m["iteration"] for m in killed), default=None)
        causes = sorted({m["cause"] for m in markers if m["fault"] == "aborted"})
        cause = (
            f"rank(s) {dead} crashed" if dead
            else "; ".join(causes) or "unknown fault"
        )
        survivors = world - len(dead)

        recoverable = (
            cfg.on_failure == "recover"
            and len(reports) < cfg.max_recoveries
            and survivors >= 1
            and len(dead) > 0  # a deadlock or an exhausted link with no
            # confirmed death leaves no rank to drop: a restart at the same
            # world would fail the same way, so abort instead
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

        # -- elastic restart: resume from the latest snapshot ----------------
        total_stats.recoveries += 1
        snap = store.latest
        snap_time = snap["sim_time"] if snap else 0.0
        total_stats.lost_seconds += max(fabric.makespan - snap_time, 0.0)
        if snap is not None:
            if snap["path"] is None:
                model_state = snap["model_state"]
                opt_state = snap["optimizer_state"]
            else:
                # exercise the real crash-restart path: reload through the
                # on-disk atomic checkpoint rather than the in-memory copy
                from ..util.checkpoint import load_checkpoint

                ckpt_model = model_builder()
                ckpt_opt = optimizer_builder(ckpt_model.parameters())
                load_checkpoint(snap["path"], ckpt_model, ckpt_opt)
                model_state = ckpt_model.state_dict()
                opt_state = ckpt_opt.state_dict()
            cfg = replace(cfg, start_epoch=snap["next_epoch"],
                          initial_model_state=model_state,
                          initial_optimizer_state=opt_state)
            prior_history = prior_history + snap["history"]
            prior_curve = prior_curve + [
                (e, time_offset + t, a) for e, t, a in snap["time_curve"]
            ]
        # else: no snapshot yet — the attempt restarts from its own start
        time_offset += fabric.makespan + cfg.restart_overhead_seconds

        reports.append(
            FaultReport(
                outcome="recovered",
                cause=cause,
                dead_ranks=dead,
                failed_at_iteration=failed_iter,
                restarted_from_epoch=cfg.start_epoch,
                world_before=world,
                world_after=survivors,
            )
        )
        _publish("recovery.restart", cause=cause, dead_ranks=list(dead),
                 restarted_from_epoch=cfg.start_epoch, world_before=world,
                 world_after=survivors)
        cfg = replace(
            cfg,
            world=survivors,
            # rhd needs a power-of-two world; fall back to the tree
            algorithm="tree" if cfg.algorithm == "rhd"
            and survivors & (survivors - 1) else cfg.algorithm,
            fault_plan=cfg.fault_plan.without_rank(set(dead), world),
        )
