"""Fault accounting: per-run counters and the structured abort report."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["FaultStats", "FaultReport", "TrainingAborted"]


@dataclass
class FaultStats:
    """What the faults cost, in events and simulated seconds.

    Attached to :class:`repro.cluster.sync_sgd.ClusterResult` so experiments
    can report fault overhead next to time-to-accuracy.  Counter updates go
    through the ``count_*`` methods, which are thread-safe (rank threads
    report concurrently).
    """

    messages_dropped: int = 0
    messages_delayed: int = 0
    messages_corrupted: int = 0
    retransmits: int = 0
    timeouts_fired: int = 0
    ranks_killed: int = 0
    recoveries: int = 0
    straggler_seconds: float = 0.0
    retransmit_seconds: float = 0.0
    #: simulated progress discarded at restarts (failure time − checkpoint time)
    lost_seconds: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count_loss(
        self, drop_rounds: int, corrupt_rounds: int, delay: float
    ) -> None:
        """One message that lost ``drop_rounds + corrupt_rounds`` frames
        before getting through (each lost frame = one ack-timeout + one
        retransmit costing ``delay`` total simulated seconds)."""
        rounds = drop_rounds + corrupt_rounds
        with self._lock:
            self.messages_dropped += drop_rounds
            self.messages_corrupted += corrupt_rounds
            self.retransmits += rounds
            self.timeouts_fired += rounds
            self.retransmit_seconds += delay

    def count_delay(self, seconds: float) -> None:
        with self._lock:
            self.messages_delayed += 1
            self.retransmit_seconds += seconds

    def count_straggle(self, seconds: float) -> None:
        with self._lock:
            self.straggler_seconds += seconds

    def count_kill(self) -> None:
        with self._lock:
            self.ranks_killed += 1

    def merge(self, other: "FaultStats") -> None:
        """Accumulate ``other`` (one attempt's counters) into this record."""
        with self._lock:
            self.messages_dropped += other.messages_dropped
            self.messages_delayed += other.messages_delayed
            self.messages_corrupted += other.messages_corrupted
            self.retransmits += other.retransmits
            self.timeouts_fired += other.timeouts_fired
            self.ranks_killed += other.ranks_killed
            self.recoveries += other.recoveries
            self.straggler_seconds += other.straggler_seconds
            self.retransmit_seconds += other.retransmit_seconds
            self.lost_seconds += other.lost_seconds

    def summary(self) -> str:
        return (
            f"dropped={self.messages_dropped} corrupted={self.messages_corrupted} "
            f"delayed={self.messages_delayed} retransmits={self.retransmits} "
            f"timeouts={self.timeouts_fired} killed={self.ranks_killed} "
            f"recoveries={self.recoveries} "
            f"lost={self.lost_seconds:.3g}s straggle={self.straggler_seconds:.3g}s "
            f"retransmit={self.retransmit_seconds:.3g}s"
        )


@dataclass
class FaultReport:
    """Structured post-mortem of a failed (or recovered) training run."""

    #: ``"recovered"`` | ``"aborted"``
    outcome: str
    #: why the run could not simply continue
    cause: str
    #: ranks confirmed dead by the transport, in original numbering
    dead_ranks: list[int] = field(default_factory=list)
    #: global iteration at which the failure was detected (best effort)
    failed_at_iteration: int | None = None
    #: epoch the survivors restarted from (None when aborted)
    restarted_from_epoch: int | None = None
    world_before: int = 0
    world_after: int = 0
    stats: FaultStats | None = None

    def format(self) -> str:
        lines = [
            f"FaultReport: {self.outcome} ({self.cause})",
            f"  dead ranks: {self.dead_ranks or 'none'}",
            f"  world: {self.world_before} -> {self.world_after}",
        ]
        if self.failed_at_iteration is not None:
            lines.append(f"  failed at iteration: {self.failed_at_iteration}")
        if self.restarted_from_epoch is not None:
            lines.append(f"  restarted from epoch: {self.restarted_from_epoch}")
        if self.stats is not None:
            lines.append(f"  stats: {self.stats.summary()}")
        return "\n".join(lines)


class TrainingAborted(RuntimeError):
    """A cluster run hit a fault it was not allowed (or able) to survive."""

    def __init__(self, report: FaultReport):
        self.report = report
        super().__init__(report.format())
