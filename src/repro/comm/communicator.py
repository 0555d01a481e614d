"""mpi4py-flavoured communicator over the simulated fabric.

Each simulated rank owns one :class:`Communicator` and runs in its own
thread (see :func:`run_cluster`).  The API follows mpi4py's lowercase
object-passing conventions — ``send``/``recv``/``bcast``/``allreduce``/
``gather``/``scatter``/``barrier`` — so code written against it reads like
standard MPI programs.

Collective calls are matched by *program order*: every rank must invoke the
same collectives in the same sequence (the standard MPI contract).  An
internal sequence counter namespaces the point-to-point tags of successive
collectives so back-to-back operations can never cross-match.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

import numpy as np

from . import collectives as coll
from .errors import ClusterHalted
from .fabric import NetworkProfile, SimulatedFabric
from .nonblocking import AllreduceRequest, RecvRequest, SendRequest

__all__ = ["Communicator", "run_cluster"]

# tag namespaces: user p2p traffic lives below this base
_COLLECTIVE_TAG_BASE = 1 << 20
_TAGS_PER_COLLECTIVE = 8


class Communicator:
    """Rank-local handle to the simulated cluster.

    Blocking receives wait on fabric state alone: a peer's message, its
    death, a halt, or a deadlock among the running ranks (see
    :mod:`repro.comm.fabric`).
    """

    def __init__(self, fabric: SimulatedFabric, rank: int):
        if not 0 <= rank < fabric.size:
            raise ValueError(f"rank {rank} out of range")
        self.fabric = fabric
        self.rank = rank
        self.size = fabric.size
        self._seq = 0

    # -- local time --------------------------------------------------------------
    @property
    def time(self) -> float:
        """This rank's simulated clock (seconds)."""
        return self.fabric.time_of(self.rank)

    def compute(self, seconds: float) -> None:
        """Model ``seconds`` of local computation (advances the clock).

        A straggler fault on this rank stretches the work by the plan's
        multiplier (thermal throttling / OS jitter on one node).
        """
        injector = self.fabric.injector
        if injector is not None:
            mult = injector.compute_multiplier(self.rank)
            if mult != 1.0:
                injector.record_straggle((mult - 1.0) * seconds)
                seconds *= mult
        self.fabric.clocks[self.rank].advance(seconds)

    # -- point-to-point --------------------------------------------------------
    def send(self, dst: int, payload, tag: int = 0) -> None:
        self.fabric.send(self.rank, dst, payload, tag=tag)

    def isend(self, dst: int, payload, tag: int = 0) -> SendRequest:
        """Nonblocking send (sender charged only the injection latency α);
        the transfer completes in the background — overlap primitive."""
        self.fabric.isend(self.rank, dst, payload, tag=tag)
        return SendRequest()

    def irecv(self, src: int, tag: int = 0) -> RecvRequest:
        """Post a nonblocking receive; complete it via ``test``/``wait``."""
        return RecvRequest(self, src, tag=tag)

    def recv(self, src: int, tag: int = 0):
        """Blocking receive (see :meth:`SimulatedFabric.recv`)."""
        return self.fabric.recv(self.rank, src, tag=tag)

    # -- collectives ---------------------------------------------------------------
    def _next_tag(self) -> int:
        tag = _COLLECTIVE_TAG_BASE + self._seq * _TAGS_PER_COLLECTIVE
        self._seq += 1
        return tag

    def bcast(self, value=None, root: int = 0):
        """Broadcast ``value`` from ``root``; other ranks pass anything."""
        return coll.bcast_tree(self, value, root=root, tag=self._next_tag())

    def reduce(self, array: np.ndarray, root: int = 0) -> np.ndarray | None:
        """Sum-reduce to ``root``; returns None elsewhere."""
        return coll.reduce_tree(self, array, root=root, tag=self._next_tag())

    def allreduce(self, array: np.ndarray, algorithm: str = "tree") -> np.ndarray:
        """Global sum, identical (bitwise) on every rank."""
        return coll.allreduce(self, array, algorithm, tag=self._next_tag())

    def iallreduce(
        self, array: np.ndarray, algorithm: str = "tree", copy: bool = True
    ) -> AllreduceRequest:
        """Launch a nonblocking global sum; progress via ``test``, finish
        via ``wait`` (which returns the reduced array and charges the rank
        clock ``max`` with the operation's completion time).

        Like every collective this matches by program order: each rank must
        launch its iallreduces in the same sequence.  Completion order is
        free — any number may be in flight, each on a private tag block.
        With ``copy=False`` the operation reduces in place into ``array``
        (which must be a contiguous float64 vector).
        """
        return AllreduceRequest(
            self, array, algorithm, tag=self._next_tag(), copy=copy
        )

    def allgather(self, array: np.ndarray) -> list[np.ndarray]:
        """Every rank receives [contribution of rank 0, …, rank P−1]."""
        return coll.allgather_ring(self, array, tag=self._next_tag())

    def gather(self, value, root: int = 0) -> list | None:
        """Collect one value per rank at ``root`` (rank order preserved)."""
        tag = self._next_tag()
        if self.rank == root:
            out = [None] * self.size
            out[root] = value
            for src in range(self.size):
                if src != root:
                    out[src] = self.recv(src, tag=tag)
            return out
        self.send(root, value, tag=tag)
        return None

    def scatter(self, values: Sequence | None = None, root: int = 0):
        """Distribute ``values[i]`` to rank i from ``root``."""
        tag = self._next_tag()
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise ValueError("root must supply one value per rank")
            for dst in range(self.size):
                if dst != root:
                    self.send(dst, values[dst], tag=tag)
            return values[root]
        return self.recv(root, tag=tag)

    def barrier(self) -> None:
        """Dissemination barrier: returns once every rank has entered."""
        coll.barrier_dissemination(self, tag=self._next_tag())


def run_cluster(
    size: int,
    worker: Callable[[Communicator], object],
    profile: NetworkProfile | None = None,
    timeout: float = 300.0,
    injector=None,
) -> tuple[list, SimulatedFabric]:
    """Run ``worker(comm)`` on ``size`` simulated ranks (one thread each,
    at most one running per usable core: see ``SimulatedFabric.slots``).

    Returns (per-rank results in rank order, the fabric — whose ``makespan``
    and ``stats`` carry the simulated time and communication volume).

    A rank that raises halts the fabric at once, so peers blocked in
    ``recv`` unwind with :class:`ClusterHalted`.  Ranks left blocked only on
    each other raise :class:`FabricTimeout` as soon as the last running rank
    blocks or finishes.  After all threads stop, the first rank's own error
    is re-raised — ahead of the ``ClusterHalted`` its peers saw.

    ``timeout`` is the one wall-clock bound, for a rank stuck in compute:
    once that many seconds pass, the fabric is halted and a ``TimeoutError``
    names every rank still unfinished.  ``injector`` installs a
    :class:`repro.faults.FaultInjector` on the fabric.
    """
    fabric = SimulatedFabric(size, profile, injector=injector)
    results: list = [None] * size
    errors: list = [None] * size

    def target(rank: int) -> None:
        fabric.slots.take(rank, 0.0)
        try:
            results[rank] = worker(Communicator(fabric, rank))
        except BaseException as exc:  # noqa: BLE001 - propagated below
            errors[rank] = exc
            if not isinstance(exc, ClusterHalted):
                fabric.halt(f"rank {rank} raised {type(exc).__name__}: {exc}")
        finally:
            fabric.slots.give(rank)
            fabric.mark_finished(rank)

    threads = [
        threading.Thread(target=target, args=(r,), name=f"rank-{r}", daemon=True)
        for r in range(size)
    ]
    fabric.mark_running(range(size))
    deadline = time.monotonic() + timeout
    for t in threads:
        t.start()
    for t in threads:
        t.join(max(deadline - time.monotonic(), 0.0))
    hung = ", ".join(t.name for t in threads if t.is_alive())
    if hung:
        fabric.halt(f"{hung} did not finish within {timeout} s")
        raise TimeoutError(
            f"simulated rank(s) {hung} did not finish within {timeout} s"
        )
    raised = [e for e in errors if e is not None]
    if raised:
        # the lowest rank's own error wins over the ClusterHalted it caused
        raise min(raised, key=lambda e: isinstance(e, ClusterHalted))
    return results, fabric
