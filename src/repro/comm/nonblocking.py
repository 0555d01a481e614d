"""Nonblocking communication: request handles and progress-driven
collectives over the simulated fabric.

This is the overlap substrate production large-batch stacks rely on (Das
et al. 2016; Goyal et al. 2017; the MLSL stack behind the paper's own
runs): gradient *buckets* are allreduced while backward is still producing
the remaining gradients, so most of the α-β communication cost hides under
compute instead of extending the critical path.

Three request kinds, all sharing the mpi4py ``wait``/``test`` contract:

* :class:`SendRequest` — returned by ``Communicator.isend``; buffered
  sends complete immediately (the fabric copies the payload).
* :class:`RecvRequest` — returned by ``Communicator.irecv``; ``test``
  polls the mailbox without blocking or advancing any clock, ``wait``
  blocks and then merges the arrival time into the rank clock.
* :class:`AllreduceRequest` — returned by ``Communicator.iallreduce``; a
  tag-namespaced driver that runs one allreduce step generator
  (tree/ring/rhd, from :mod:`repro.comm.collectives`) incrementally.
  Multiple requests can be in flight at once and complete out of order —
  each owns a private tag block, so interleaved progress can never
  cross-match messages.

Simulated time.  An in-flight operation keeps its own *pipeline clock*
(``op_time``), modelling a NIC/progress engine that runs concurrently with
compute: sends are posted at ``op_time`` via :meth:`SimulatedFabric.post_send`
(charging the rank clock nothing), and every received message advances
``op_time`` to ``max(op_time, arrival)``.  Only ``wait`` merges the final
``op_time`` into the rank clock — so a rank that computes while an
operation progresses ends at ``max(compute, comm)``, the overlap regime,
instead of ``compute + comm``.

Bitwise semantics.  This module holds no algorithm code: the request drives
the same step generator the blocking ``allreduce`` drives (same pairings,
same chunk boundaries, same accumulation order), so an ``iallreduce`` result
is bit-identical to the blocking ``allreduce`` of the same buffer with the
same algorithm.
"""

from __future__ import annotations

import numpy as np

from .collectives import allreduce_steps
from .fabric import SimulatedFabric

__all__ = [
    "Request",
    "SendRequest",
    "RecvRequest",
    "AllreduceRequest",
]


class Request:
    """mpi4py-style handle for a nonblocking operation.

    ``test()`` returns completion *without blocking* (and never advances
    the rank clock); ``wait()`` blocks until complete, merges the
    operation's finish time into the rank clock, and returns the payload
    (``None`` for sends).  Both are idempotent after completion.
    """

    def test(self) -> bool:
        raise NotImplementedError

    def wait(self):
        raise NotImplementedError

    @property
    def done(self) -> bool:
        raise NotImplementedError


class SendRequest(Request):
    """A buffered nonblocking send: complete the moment it is posted.

    The fabric copies ndarray payloads on injection (value semantics), so
    there is no buffer to hand back and nothing to progress.
    """

    def test(self) -> bool:
        return True

    def wait(self):
        return None

    @property
    def done(self) -> bool:
        return True


class RecvRequest(Request):
    """A posted receive: completes when the matching message is consumed.

    Completion merges the message's arrival time into the rank clock — the
    data cannot be *used* before it exists on this rank, even though the
    request was posted early.
    """

    def __init__(self, comm, src: int, tag: int = 0):
        self._comm = comm
        self._src = src
        self._tag = tag
        self._payload = None
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    @property
    def payload(self):
        """The received payload (valid once the request is complete)."""
        return self._payload

    def _complete(self, env) -> None:
        self._payload = env.payload
        self._done = True
        self._comm.fabric.clocks[self._comm.rank].merge(env.arrival_time)

    def test(self) -> bool:
        if self._done:
            return True
        env = self._comm.fabric.poll(self._comm.rank, self._src, self._tag)
        if env is None:
            return False
        self._complete(env)
        return True

    def wait(self):
        if not self._done:
            self._complete(self._comm.fabric.recv_envelope(
                self._comm.rank, self._src, tag=self._tag))
        return self._payload


class AllreduceRequest(Request):
    """One in-flight allreduce, progressed incrementally.

    The request owns a private tag block (namespaced by the communicator's
    collective sequence counter), so any number of requests can be in
    flight per rank and completed in any order.  ``wait()`` returns the
    reduced array — bitwise identical on every rank and bitwise identical
    to the blocking ``allreduce`` of the same buffer.

    ``launch_time`` / ``completion_time`` expose the operation's simulated
    lifetime; ``sim_latency`` is their difference once complete.  The
    completion time only enters the rank clock at ``wait()`` — until then
    the rank is free to compute underneath the transfer.
    """

    def __init__(self, comm, array: np.ndarray, algorithm: str, tag: int,
                 copy: bool = True):
        steps = allreduce_steps(algorithm, comm.size)
        self._comm = comm
        self._fabric: SimulatedFabric = comm.fabric
        self.rank = comm.rank
        self.size = comm.size
        self.algorithm = algorithm
        self._shape = np.asarray(array).shape
        flat = np.asarray(array, dtype=np.float64).ravel()
        if copy:
            flat = flat.copy()
        self.launch_time = comm.time
        self._op_time = self.launch_time
        self._result: np.ndarray | None = None
        self._done = False
        self._need: tuple[int, int] | None = None
        self._gen = steps(self.rank, self.size, self.post, flat, tag)
        self._advance(None)

    # -- state machine plumbing ---------------------------------------------
    def post(self, dst: int, payload: np.ndarray, tag: int) -> None:
        """Post one of the operation's sends at the pipeline clock."""
        self._fabric.post_send(self.rank, dst, payload, tag=tag,
                               at_time=self._op_time)

    def _advance(self, payload) -> None:
        """Feed ``payload`` to the step generator; record what it needs
        next, or its result once it returns."""
        try:
            self._need = self._gen.send(payload)
        except StopIteration as stop:
            self._result = stop.value.reshape(self._shape)
            self._done = True
            self._need = self._gen = None

    def _consume(self, env) -> None:
        if env.arrival_time > self._op_time:
            self._op_time = env.arrival_time
        self._advance(env.payload)

    # -- Request contract ---------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def completion_time(self) -> float:
        """Simulated time the operation finished (valid once ``done``)."""
        return self._op_time

    @property
    def sim_latency(self) -> float:
        """Simulated seconds the operation occupied the fabric."""
        return self._op_time - self.launch_time

    @property
    def result(self) -> np.ndarray | None:
        """The reduced array (valid once ``done``; ``wait`` also merges
        the completion time into the rank clock)."""
        return self._result

    def test(self) -> bool:
        """Drain every already-arrived message; True when complete.

        Free progress: polling charges no simulated time, mirroring an
        asynchronous NIC/progress thread.
        """
        while not self._done:
            src, tag = self._need
            env = self._fabric.poll(self._comm.rank, src, tag)
            if env is None:
                return False
            self._consume(env)
        return True

    def wait(self) -> np.ndarray:
        """Block until complete; merge completion into the rank clock and
        return the reduced array."""
        while not self._done:
            src, tag = self._need
            self._consume(self._fabric.recv_envelope(self.rank, src, tag=tag))
        self._fabric.clocks[self.rank].merge(self._op_time)
        return self._result
