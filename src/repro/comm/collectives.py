"""Collective algorithms over point-to-point messaging, plus their analytic
α-β costs.

Three allreduce algorithms are provided, covering the design space the
paper's Table 2 sketches (its ``log(P) · t_comm`` iteration-time column is
the binomial-tree cost):

========================  =========================  ==========================
algorithm                 messages on critical path  bytes on critical path
========================  =========================  ==========================
``tree``  (binomial)      2·⌈log₂P⌉                  2·⌈log₂P⌉·n
``ring``                  2·(P−1)                    2·(P−1)·n/P ≈ 2n
``rhd`` (recursive        2·log₂P                    2·n·(1−1/P)
halving-doubling)
========================  =========================  ==========================

Each algorithm (and the binomial reduce and broadcast the tree is built
from) is written once, as a step generator.  The blocking ``allreduce_*``,
``reduce_tree`` and ``bcast_tree`` drive it with ``comm.send``/``comm.recv``;
:class:`repro.comm.nonblocking.AllreduceRequest` drives it from its progress
engine — so blocking and nonblocking results are bit-identical.

The blocking functions take a duck-typed ``comm`` exposing ``rank``,
``size``, ``send(dst, payload, tag)`` and ``recv(src, tag)``; the real
implementation is :class:`repro.comm.communicator.Communicator`.  All
algorithms reduce with exact elementwise addition in rank-deterministic
order, so every rank computes bit-identical results — the foundation of the
sequential-consistency guarantee.
"""

from __future__ import annotations

import math

import numpy as np

from ..obs import NULL_SPAN, timed as _timed
from ..obs.metrics import get_registry as _get_registry
from ..obs.trace import get_tracer as _get_tracer
from .fabric import NetworkProfile


def _coll_span(op: str, comm, payload=None, algorithm: str | None = None):
    """Span + per-collective wall-latency histogram for one collective call.

    The histogram series is ``comm.<op>_s`` labeled by algorithm (where one
    exists), so e.g. tree vs. ring allreduce latencies stay separable; the
    span carries rank/nbytes for the timeline view.  Collapses to the shared
    no-op before building any attributes when telemetry is disabled or the
    world is a single rank (no messages move).
    """
    if comm.size == 1 or not (_get_tracer().enabled or _get_registry().enabled):
        return NULL_SPAN
    attrs = {"rank": comm.rank, "size": comm.size}
    if payload is not None:
        attrs["nbytes"] = int(getattr(payload, "nbytes", 0))
    labels = None
    if algorithm is not None:
        attrs["algorithm"] = algorithm
        labels = {"algorithm": algorithm}
    return _timed(f"comm.{op}", hist_labels=labels, **attrs)


__all__ = [
    "bcast_tree",
    "reduce_tree",
    "allreduce_tree",
    "allreduce_ring",
    "allreduce_rhd",
    "allreduce",
    "allreduce_steps",
    "allgather_ring",
    "barrier_dissemination",
    "ALLREDUCE_ALGORITHMS",
    "allreduce_cost",
    "allreduce_message_count",
    "bcast_cost",
    "reduce_cost",
]


# Step generators — the one copy of each algorithm.  ``steps(rank, size,
# post, flat, tag)`` calls ``post(dst, payload, tag)`` for every send, yields
# ``(src, tag)`` for every message it needs (the driver sends the payload
# back in) and returns the result.


def _reduce_steps(rank, size, post, flat, tag, root=0):
    """Binomial sum-reduction to ``root``; non-root ranks return ``None``.

    Children accumulate in ascending-mask order on every rank, so the
    floating-point summation order is deterministic.
    """
    v = (rank - root) % size
    mask = 1
    while mask < size:
        if v & mask:
            post((v - mask + root) % size, flat, tag)
            return None
        src = v + mask
        if src < size:
            flat += yield ((src + root) % size, tag)
        mask <<= 1
    return flat


def _bcast_steps(rank, size, post, value, tag, root=0):
    """Binomial broadcast from ``root``: ⌈log₂P⌉ stages, P−1 messages."""
    v = (rank - root) % size
    mask = 1
    while mask < size:
        if v < mask:
            if v + mask < size:
                post((v + mask + root) % size, value, tag)
        elif v < 2 * mask:
            value = yield ((v - mask + root) % size, tag)
        mask <<= 1
    return value


def _tree_steps(rank, size, post, flat, tag):
    """reduce-to-0 followed by broadcast — the paper's log(P) model."""
    reduced = yield from _reduce_steps(rank, size, post, flat, tag)
    return (yield from _bcast_steps(rank, size, post, reduced, tag + 1))


def _ring_steps(rank, size, post, flat, tag):
    """Ring reduce-scatter then ring allgather.

    Bandwidth-optimal (each rank moves ≈2n bytes regardless of P); this is
    the algorithm production stacks (NCCL, MLSL) use for large gradient
    tensors.
    """
    # Chunk boundaries follow np.array_split's convention (first n % P
    # chunks get the extra element) computed arithmetically — no temporary
    # chunk views on the per-iteration critical path.
    base, extra = divmod(flat.size, size)
    offsets = [0] * (size + 1)
    for r in range(size):
        offsets[r + 1] = offsets[r] + base + (1 if r < extra else 0)
    right = (rank + 1) % size
    left = (rank - 1) % size

    # reduce-scatter: after P-1 steps, rank owns the full sum of chunk
    # (rank+1) % size
    for step in range(size - 1):
        send_idx = (rank - step) % size
        recv_idx = (rank - step - 1) % size
        post(right, flat[offsets[send_idx] : offsets[send_idx + 1]], tag)
        incoming = yield (left, tag)
        flat[offsets[recv_idx] : offsets[recv_idx + 1]] += incoming

    # allgather: circulate the completed chunks
    for step in range(size - 1):
        send_idx = (rank - step + 1) % size
        recv_idx = (rank - step) % size
        post(right, flat[offsets[send_idx] : offsets[send_idx + 1]], tag + 1)
        incoming = yield (left, tag + 1)
        flat[offsets[recv_idx] : offsets[recv_idx + 1]] = incoming

    return flat


def _rhd_steps(rank, size, post, flat, tag):
    """Recursive halving-doubling (Rabenseifner; power-of-two ranks only).

    Latency-optimal message count (2·log₂P) with near-bandwidth-optimal
    volume (2n·(1−1/P)).
    """

    # Region boundaries come from identical arithmetic on all ranks, so the
    # keep/send splits agree without any coordination messages.
    def region(lo: int, hi: int, take_high: bool) -> tuple[int, int]:
        mid = (lo + hi) // 2
        return (mid, hi) if take_high else (lo, mid)

    # reduce-scatter by recursive halving; record each level's split so the
    # allgather can replay it in reverse
    levels: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
    lo, hi = 0, flat.size
    mask = size >> 1
    while mask:
        partner = rank ^ mask
        i_am_high = bool(rank & mask)
        keep = region(lo, hi, i_am_high)
        give = region(lo, hi, not i_am_high)
        post(partner, flat[give[0] : give[1]], tag)
        flat[keep[0] : keep[1]] += yield (partner, tag)
        levels.append((partner, keep, give))
        lo, hi = keep
        mask >>= 1

    # allgather by recursive doubling: at each reversed level I own `keep`
    # fully reduced and my partner owns the sibling `give`; exchanging them
    # reconstructs the parent region.
    for partner, keep, give in reversed(levels):
        post(partner, flat[keep[0] : keep[1]], tag + 1)
        flat[give[0] : give[1]] = yield (partner, tag + 1)

    return flat


_ALLREDUCE_STEPS = {"tree": _tree_steps, "ring": _ring_steps, "rhd": _rhd_steps}


def allreduce_steps(algorithm: str, size: int):
    """The step generator of ``algorithm``; ``ValueError`` for an unknown
    name, or for ``rhd`` on a world whose ``size`` is not a power of two."""
    if algorithm not in _ALLREDUCE_STEPS:
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
    if algorithm == "rhd" and size & (size - 1):
        raise ValueError("recursive halving-doubling requires power-of-two ranks")
    return _ALLREDUCE_STEPS[algorithm]


def _drive(comm, steps):
    """Run a step generator to completion, answering each ``(src, tag)`` it
    yields with a blocking ``comm.recv``; returns the generator's result."""
    try:
        need = next(steps)
        while True:
            need = steps.send(comm.recv(*need))
    except StopIteration as stop:
        return stop.value


def bcast_tree(comm, value, root: int = 0, tag: int = 0):
    """Binomial-tree broadcast: ⌈log₂P⌉ stages, P−1 messages total."""
    with _coll_span("bcast", comm, value):
        steps = _bcast_steps(comm.rank, comm.size, comm.send, value, tag, root)
        return _drive(comm, steps)


def reduce_tree(comm, array: np.ndarray, root: int = 0, tag: int = 0):
    """Binomial-tree sum-reduction to ``root``; non-root ranks return
    ``None``."""
    acc = np.array(array, dtype=np.float64, copy=True)
    with _coll_span("reduce", comm, acc):
        steps = _reduce_steps(comm.rank, comm.size, comm.send,
                              acc.reshape(-1), tag, root)
        return None if _drive(comm, steps) is None else acc


def allreduce(comm, array: np.ndarray, algorithm: str = "tree",
              tag: int = 0) -> np.ndarray:
    """Blocking global sum with ``algorithm``, bitwise identical on every
    rank."""
    steps = allreduce_steps(algorithm, comm.size)
    shape = np.asarray(array).shape
    flat = np.asarray(array, dtype=np.float64).ravel().copy()
    with _coll_span("allreduce", comm, array, algorithm=algorithm):
        flat = _drive(comm, steps(comm.rank, comm.size, comm.send, flat, tag))
    return flat.reshape(shape)


def allreduce_tree(comm, array: np.ndarray, tag: int = 0) -> np.ndarray:
    """Binomial reduce-to-0 followed by broadcast — the paper's log(P)
    model."""
    return allreduce(comm, array, "tree", tag)


def allreduce_ring(comm, array: np.ndarray, tag: int = 0) -> np.ndarray:
    """Ring allreduce: reduce-scatter then ring allgather (≈2n bytes per
    rank, independent of P)."""
    return allreduce(comm, array, "ring", tag)


def allreduce_rhd(comm, array: np.ndarray, tag: int = 0) -> np.ndarray:
    """Recursive halving-doubling allreduce (power-of-two ranks only)."""
    return allreduce(comm, array, "rhd", tag)


def allgather_ring(comm, array, tag: int = 0) -> list:
    """Ring allgather: every rank ends with [contribution₀ … contribution₋₁].

    Accepts arbitrary payloads (tuples of arrays, scalars, …) — only
    ndarrays are defensively copied.
    """
    size, rank = comm.size, comm.rank
    pieces: list = [None] * size
    pieces[rank] = np.array(array, copy=True) if isinstance(array, np.ndarray) else array
    with _coll_span("allgather", comm, array):
        right, left = (rank + 1) % size, (rank - 1) % size
        for step in range(size - 1):
            send_idx = (rank - step) % size
            recv_idx = (rank - step - 1) % size
            comm.send(right, pieces[send_idx], tag=tag)
            pieces[recv_idx] = comm.recv(left, tag=tag)
        return pieces


def barrier_dissemination(comm, tag: int = 0) -> None:
    """Dissemination barrier: ⌈log₂P⌉ rounds of shifted token exchange."""
    size, rank = comm.size, comm.rank
    with _coll_span("barrier", comm):
        k = 1
        while k < size:
            comm.send((rank + k) % size, np.zeros(0), tag=tag)
            comm.recv((rank - k) % size, tag=tag)
            k <<= 1
            tag += 1


ALLREDUCE_ALGORITHMS = {
    "tree": allreduce_tree,
    "ring": allreduce_ring,
    "rhd": allreduce_rhd,
}


# --------------------------------------------------------------------------
# Analytic critical-path costs (used by repro.perfmodel and checked against
# the simulated fabric in tests).
# --------------------------------------------------------------------------

def _log2ceil(p: int) -> int:
    return max(1, math.ceil(math.log2(p))) if p > 1 else 0


def bcast_cost(p: int, nbytes: int, profile: NetworkProfile) -> float:
    """Binomial broadcast critical path: ⌈log₂P⌉ sequential messages."""
    return _log2ceil(p) * profile.transfer_time(nbytes)


def reduce_cost(p: int, nbytes: int, profile: NetworkProfile) -> float:
    return _log2ceil(p) * profile.transfer_time(nbytes)


def allreduce_cost(
    p: int, nbytes: int, profile: NetworkProfile, algorithm: str = "tree"
) -> float:
    """Critical-path time of one allreduce of ``nbytes`` across ``p`` ranks."""
    if p <= 1:
        return 0.0
    if algorithm == "tree":
        return 2 * _log2ceil(p) * profile.transfer_time(nbytes)
    if algorithm == "ring":
        chunk = nbytes / p
        return 2 * (p - 1) * profile.transfer_time(chunk)
    if algorithm == "rhd":
        lg = _log2ceil(p)
        return 2 * lg * profile.alpha + 2 * nbytes * (1 - 1 / p) * profile.beta
    raise ValueError(f"unknown allreduce algorithm {algorithm!r}")


def allreduce_message_count(p: int, algorithm: str = "tree") -> int:
    """Messages on one rank's critical path (the paper's latency term)."""
    if p <= 1:
        return 0
    if algorithm == "tree":
        return 2 * _log2ceil(p)
    if algorithm == "ring":
        return 2 * (p - 1)
    if algorithm == "rhd":
        return 2 * _log2ceil(p)
    raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
