"""Typed failure exceptions for the simulated communication stack.

The fault-tolerance machinery distinguishes these transport-level outcomes:

* :class:`FabricTimeout` — a ``recv`` that can never complete: every rank
  still running is blocked on a message none of them can send.  It carries
  the whole wait-for graph.
* :class:`PeerDeadError` — the transport *knows* the peer is gone (its
  thread exited and tore the connection down, like a TCP RST after a
  process crash).
* :class:`ClusterHalted` — some rank called :meth:`SimulatedFabric.halt`
  (the moral equivalent of ``MPI_Abort``); every blocked ``recv`` wakes and
  raises this so the whole attempt unwinds at once.
* :class:`RetransmitExhausted` — the reliable link layer gave up on a
  message after its bounded retry budget; the sender treats the peer as
  unreachable.

``FabricTimeout`` subclasses :class:`TimeoutError` so pre-existing callers
that caught the generic type keep working.
"""

from __future__ import annotations

__all__ = [
    "FabricTimeout",
    "PeerDeadError",
    "ClusterHalted",
    "RetransmitExhausted",
    "RankKilled",
]


class FabricTimeout(TimeoutError):
    """A deadlocked ``recv``: no running rank is left that could send it.

    ``dst``/``src``/``tag`` name this rank's own wait; ``waits`` is the
    wait-for graph at detection, ``{blocked rank: (src, tag)}``.
    """

    def __init__(self, dst: int, src: int, tag: int,
                 waits: dict[int, tuple[int, int]]):
        self.dst = dst
        self.src = src
        self.tag = tag
        self.waits = dict(waits)
        blocked = "; ".join(
            f"rank {d} <- (src={s}, tag={t})" for d, (s, t) in sorted(waits.items())
        )
        super().__init__(
            f"rank {dst} deadlocked waiting for (src={src}, tag={tag}); "
            f"blocked receives: {blocked}"
        )


class PeerDeadError(ConnectionError):
    """The transport observed the peer's death (fail-stop crash)."""

    def __init__(self, dst: int, src: int, tag: int = 0):
        self.dst = dst
        self.src = src
        self.tag = tag
        super().__init__(f"rank {dst}: peer rank {src} is dead")


class ClusterHalted(RuntimeError):
    """The fabric was halted (MPI_Abort-style) while this rank was blocked."""

    def __init__(self, rank: int, reason: str = ""):
        self.rank = rank
        self.reason = reason
        super().__init__(
            f"rank {rank}: cluster halted" + (f" ({reason})" if reason else "")
        )


class RetransmitExhausted(ConnectionError):
    """The reliable link layer exceeded its retry budget for one message."""

    def __init__(self, src: int, dst: int, tag: int, retries: int):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.retries = retries
        super().__init__(
            f"rank {src}: message to rank {dst} (tag={tag}) lost after "
            f"{retries} retransmits"
        )


class RankKilled(RuntimeError):
    """Raised inside a worker when the fault plan crashes this rank."""

    def __init__(self, rank: int, iteration: int):
        self.rank = rank
        self.iteration = iteration
        super().__init__(f"rank {rank} killed at iteration {iteration}")
