"""Simulated interconnect: message passing with α-β cost accounting.

The fabric is the "wire" between simulated ranks.  Payloads move through
thread-safe mailboxes (each rank runs in its own Python thread, so blocking
``recv`` semantics are real), while *time* is purely logical:

* a send at sender-time ``t`` occupies the sender for ``α + β·nbytes`` and
  the message arrives at ``t + α + β·nbytes``;
* a receive first blocks until the payload exists, then merges the arrival
  time into the receiver's logical clock (plus the receiver's copy cost).

α (latency) and β (inverse bandwidth) come from a :class:`NetworkProfile`;
the profiles for the paper's interconnects (Table 11) live in
:mod:`repro.perfmodel.hardware`.

The fabric also keeps global message/byte counters — the quantities
Figures 9 and 10 plot.

Liveness comes from the fabric's own state, never from a wall clock.  A
``recv`` blocks until one of these holds:

* its message exists;
* its source is dead: ``mark_dead(rank)`` is the transport-level crash
  notification (a dying rank's connections reset), and the receive raises
  :class:`PeerDeadError`;
* the fabric is halted: ``halt()`` is ``MPI_Abort``, and every blocked
  ``recv`` wakes with :class:`ClusterHalted`;
* every rank still running is blocked on a message that none of them can
  send.  That is a deadlock, and every blocked rank raises
  :class:`FabricTimeout` at once, carrying the whole wait-for graph.

:func:`repro.comm.run_cluster` registers its ranks as running and marks
each one finished when its worker returns or raises.  A fabric driven
without it has no other running rank, so a receive that cannot be
satisfied raises at once.

An optional :class:`repro.faults.FaultInjector` prices message loss,
checksum-detected corruption, and delay into arrival times (reliable-link
retransmit semantics: values exact, time lost).  See
``docs/architecture.md``, "Failure model & recovery".
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from ..obs.metrics import counter as _counter, get_registry as _get_registry
from .clock import LogicalClock
from .errors import ClusterHalted, FabricTimeout, PeerDeadError

__all__ = [
    "NetworkProfile",
    "FabricStats",
    "SimulatedFabric",
    "Envelope",
    "FabricTimeout",
    "PeerDeadError",
    "ClusterHalted",
]


@dataclass(frozen=True)
class NetworkProfile:
    """α-β model of one interconnect.

    Parameters
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Per-byte transfer time in seconds (1 / bandwidth).
    name:
        Display label, e.g. ``"Mellanox 56Gb/s FDR IB"``.
    """

    alpha: float
    beta: float
    name: str = "generic"

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")

    def transfer_time(self, nbytes: int) -> float:
        """Time for one point-to-point message of ``nbytes``."""
        return self.alpha + self.beta * nbytes

    @staticmethod
    def ideal() -> "NetworkProfile":
        """Zero-cost network (for pure-correctness tests)."""
        return NetworkProfile(0.0, 0.0, "ideal")


@dataclass
class Envelope:
    """A message in flight: payload plus its simulated arrival time."""

    payload: object
    nbytes: int
    arrival_time: float
    src: int
    tag: int


@dataclass
class FabricStats:
    """Global communication counters (Figures 9/10); the fabric lock
    guards them."""

    messages: int = 0
    bytes: int = 0

    def record(self, nbytes: int) -> None:
        self.messages += 1
        self.bytes += nbytes


def _record_message(kind: str, nbytes: int) -> None:
    """Mirror one wire message into the obs metrics registry.

    Separate from :class:`FabricStats` (which experiments always need) so
    the hot path pays a single ``enabled`` check when telemetry is off.
    """
    if not _get_registry().enabled:
        return
    _counter("comm.messages", kind=kind).inc()
    _counter("comm.bytes", kind=kind).inc(nbytes)


def payload_nbytes(payload) -> int:
    """Wire size of a payload: ndarray buffers are exact, scalars 8 bytes,
    everything else a small fixed envelope (control messages)."""
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (int, float, np.floating, np.integer)):
        return 8
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(p) for p in payload) or 8
    return 64


class SimulatedFabric:
    """All-to-all interconnect among ``size`` ranks.

    One mailbox per destination rank, keyed by (source, tag).  ``send`` is
    asynchronous-with-timing (the sender's clock advances by the transfer
    time, matching blocking MPI sends of rendezvous-sized gradient
    messages); ``recv`` blocks the calling thread until the payload exists,
    the peer is known dead, the fabric is halted, or a deadlock leaves no
    running rank that could send it.

    One lock guards the mailboxes, the dead set, the halt flag, the stats
    and the wait table ``{blocked rank: (src, tag)}``.  Each rank sleeps on
    its own condition of that lock, so a delivery wakes only its
    destination.
    """

    def __init__(self, size: int, profile: NetworkProfile | None = None,
                 injector=None):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self.profile = profile if profile is not None else NetworkProfile.ideal()
        #: optional :class:`repro.faults.FaultInjector` (duck-typed)
        self.injector = injector
        self.clocks = [LogicalClock() for _ in range(size)]
        self.stats = FabricStats()
        self._mailboxes: list[dict[tuple[int, int], deque[Envelope]]] = [
            defaultdict(deque) for _ in range(size)
        ]
        self._lock = threading.Lock()
        self._wakeups = [threading.Condition(self._lock) for _ in range(size)]
        self._dead: set[int] = set()
        self._halted = False
        self._halt_reason = ""
        #: ranks whose worker has not returned yet (see :meth:`mark_running`)
        self._running: set[int] = set()
        #: blocked rank -> the (src, tag) it waits for
        self._waits: dict[int, tuple[int, int]] = {}
        #: deadlocked rank -> the wait-for graph it raises with
        self._doomed: dict[int, dict[int, tuple[int, int]]] = {}

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")

    # -- failure signalling ---------------------------------------------------
    @property
    def dead_ranks(self) -> set[int]:
        """Ranks the transport knows have crashed (fail-stop)."""
        with self._lock:
            return set(self._dead)

    @property
    def halted(self) -> bool:
        return self._halted

    def mark_dead(self, rank: int) -> None:
        """Transport-level crash notification: ``rank`` will never send
        again.  Wakes every blocked ``recv`` so waits on the dead peer fail
        at once."""
        self._check_rank(rank)
        with self._lock:
            self._dead.add(rank)
            self._wake_all()

    def halt(self, reason: str = "") -> None:
        """MPI_Abort: wake every blocked ``recv`` with ClusterHalted."""
        with self._lock:
            self._halted = True
            if reason and not self._halt_reason:
                self._halt_reason = reason
            self._wake_all()

    def _wake_all(self) -> None:
        for cond in self._wakeups:
            cond.notify_all()

    # -- liveness ---------------------------------------------------------------
    def mark_running(self, ranks) -> None:
        """Register the ranks whose workers are about to start; each counts
        as a possible sender until :meth:`mark_finished`."""
        with self._lock:
            self._running.update(ranks)

    def mark_finished(self, rank: int) -> None:
        """``rank``'s worker returned or raised, so it sends nothing more;
        peers left waiting only on each other are now deadlocked."""
        with self._lock:
            self._running.discard(rank)
            self._detect_deadlock()

    def _satisfiable(self, dst: int, src: int, tag: int) -> bool:
        return (self._halted or src in self._dead
                or bool(self._mailboxes[dst].get((src, tag))))

    def _detect_deadlock(self) -> None:
        """Lock held.  If every running rank is blocked on a receive that
        nothing queued, no death and no halt can satisfy, no rank is left
        to send any of them: every blocked rank raises with the graph."""
        waits = self._waits
        if not waits or not self._running <= waits.keys():
            return
        if any(self._satisfiable(d, s, t) for d, (s, t) in waits.items()):
            return
        graph = dict(waits)
        waits.clear()
        for rank in graph:
            self._doomed[rank] = graph
            self._wakeups[rank].notify()

    def _fault_delay(self, src: int, dst: int, tag: int) -> float:
        """Extra arrival delay from injected faults (0 when no injector).

        May raise :class:`repro.comm.errors.RetransmitExhausted` in the
        *sender* thread when the reliable link gives up on the message.
        """
        if self.injector is None:
            return 0.0
        return self.injector.decide_send(src, dst, tag)

    # -- point-to-point ---------------------------------------------------------
    def _send(self, kind: str, src: int, dst: int, payload, tag: int,
              arrival_of) -> float:
        """The path every send shares; ``arrival_of(nbytes, extra)`` is the
        caller's clock rule and returns the simulated arrival time.

        ndarray payloads are copied so later in-place mutation by the sender
        cannot race the receiver (value semantics, like a real wire).
        ``extra`` is the fault injector's retransmit/backoff delay.
        """
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise ValueError("self-sends are not allowed; use local state")
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        nbytes = payload_nbytes(payload)
        arrival = arrival_of(nbytes, self._fault_delay(src, dst, tag))
        with self._lock:
            self.stats.record(nbytes)
            self._mailboxes[dst][(src, tag)].append(
                Envelope(payload, nbytes, arrival, src, tag))
            self._wakeups[dst].notify()
        _record_message(kind, nbytes)
        return arrival

    def isend(self, src: int, dst: int, payload, tag: int = 0) -> None:
        """Nonblocking send: the sender is only charged the injection
        latency α; the payload still arrives a full α + β·n after the
        current send time (the NIC drains the transfer in the background).

        This is the primitive behind communication/computation overlap
        (Das et al. 2016; Goyal et al. 2017): compute advanced after an
        ``isend`` happens *concurrently* with the transfer.
        """
        def arrival(nbytes: int, extra: float) -> float:
            t_start = self.clocks[src].advance(self.profile.alpha)
            return t_start + self.profile.beta * nbytes + extra

        self._send("isend", src, dst, payload, tag, arrival)

    def post_send(
        self, src: int, dst: int, payload, tag: int = 0,
        at_time: float | None = None,
    ) -> float:
        """NIC-offloaded send posted at simulated time ``at_time``.

        Unlike :meth:`send`/:meth:`isend`, the sender's *rank clock* is not
        touched at all: the message belongs to an asynchronous operation
        (an in-flight bucket allreduce) whose progress engine keeps its own
        operation clock.  The payload arrives a full ``α + β·n`` after
        ``at_time`` (default: the sender's current clock); the arrival time
        is returned so the operation can advance its pipeline.

        Fault injection applies per posted message — every bucket of a
        bucketed exchange rolls its own loss/delay decision, exactly like
        the per-message reliable link under blocking sends.
        """
        def arrival(nbytes: int, extra: float) -> float:
            t_post = self.clocks[src].time if at_time is None else at_time
            return t_post + self.profile.transfer_time(nbytes) + extra

        return self._send("post", src, dst, payload, tag, arrival)

    def send(self, src: int, dst: int, payload, tag: int = 0) -> None:
        """Deliver ``payload`` from ``src`` to ``dst``; advances src's clock
        by the whole transfer.  With a fault injector installed,
        retransmit/backoff delays occupy the sender too (stop-and-wait
        reliable link)."""
        def arrival(nbytes: int, extra: float) -> float:
            cost = self.profile.transfer_time(nbytes) + extra
            return self.clocks[src].advance(cost)

        self._send("send", src, dst, payload, tag, arrival)

    def poll(self, dst: int, src: int, tag: int = 0) -> Envelope | None:
        """Nonblocking mailbox check: pop and return the next envelope on
        ``(src, tag)`` if one is queued, else ``None``.  Never blocks and
        never touches any clock — the caller (a request's ``test``) decides
        what completion means for simulated time.

        Raises :class:`ClusterHalted` if the job aborted, and
        :class:`PeerDeadError` once ``src`` is dead with nothing queued.
        """
        self._check_rank(src)
        self._check_rank(dst)
        with self._lock:
            if self._halted:
                raise ClusterHalted(dst, self._halt_reason)
            queue = self._mailboxes[dst].get((src, tag))
            if queue:
                return queue.popleft()
            if src in self._dead:
                raise PeerDeadError(dst, src, tag)
            return None

    def recv_envelope(self, dst: int, src: int, tag: int = 0) -> Envelope:
        """Blocking receive returning the raw :class:`Envelope` without
        merging its arrival time into ``dst``'s clock.

        The nonblocking request layer builds on this: an in-flight
        operation consumes arrival times on its own pipeline clock and only
        merges into the rank clock when the caller *waits* on the result.

        Raises :class:`PeerDeadError` as soon as ``src`` is known dead
        (in-flight messages are still drained first),
        :class:`ClusterHalted` if any rank aborted the job, and
        :class:`FabricTimeout` when every running rank is blocked on a
        message none of them can send.
        """
        self._check_rank(src)
        self._check_rank(dst)
        box = self._mailboxes[dst]
        with self._lock:
            while True:
                graph = self._doomed.pop(dst, None)
                if graph is not None:
                    raise FabricTimeout(dst, src, tag, graph)
                if self._halted:
                    raise ClusterHalted(dst, self._halt_reason)
                queue = box.get((src, tag))
                if queue:
                    return queue.popleft()
                if src in self._dead:
                    raise PeerDeadError(dst, src, tag)
                self._waits[dst] = (src, tag)
                self._detect_deadlock()
                if dst not in self._doomed:
                    self._wakeups[dst].wait()
                self._waits.pop(dst, None)

    def recv(self, dst: int, src: int, tag: int = 0):
        """Blocking receive; merges the arrival time into dst's clock.

        Raises like :meth:`recv_envelope`.
        """
        env = self.recv_envelope(dst, src, tag=tag)
        self.clocks[dst].merge(env.arrival_time)
        return env.payload

    # -- inspection ----------------------------------------------------------------
    def time_of(self, rank: int) -> float:
        return self.clocks[rank].time

    @property
    def makespan(self) -> float:
        """Simulated wall-clock: the slowest rank's time."""
        return max(c.time for c in self.clocks)

    def reset_time(self) -> None:
        for c in self.clocks:
            c.reset()
        self.stats = FabricStats()
