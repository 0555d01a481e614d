"""Intra-step concurrency: one helper thread beside the caller.

A serial training step runs one Python thread; with BLAS pinned to one
thread, every core but one idles.  Several layer calls split into two
halves that touch disjoint outputs: a convolution's weight gradient and
its input gradient, BatchNorm's ``gamma``/``beta`` reductions and its
``dx`` chain, the two halves of a batch in an ``im2col`` + GEMM forward.
:func:`both` runs one half on a process-wide daemon helper thread while
the caller runs the other.  Each half is the same numpy/BLAS call either
way, so the bits do not depend on whether the helper was taken — only the
wall time does.

Three rules keep this safe without a setting:

* **Buffers stay on the caller.**  ``side`` never requests a
  ``Module._buf`` and never drops the last reference to one: the caller
  requests every buffer before the fork and releases them after the join,
  whether or not the helper was taken, so a ``MemoryContext`` records the
  same lifetimes under any schedule (``MemoryContext`` raises on a request
  or a recorded free from another thread).
* **Thread gate.**  The helper is taken only while the live threads, not
  counting the helper, are fewer than the usable cores: simulated ranks
  already fill the cores, so a cluster run never forks.
* **Size gate.**  The helper is taken only when ``work`` — the element
  count of the largest array the two halves stream, a function of the
  shapes alone — is at least :data:`FORK_MIN_WORK`; below it waking the
  helper costs more than the work it takes over.

When the helper is refused (either gate, or already busy) both calls run
inline on the caller, ``side`` first, or a split batch runs as one call.
"""

from __future__ import annotations

import os
import threading

from ..cores import usable_cores
from ..obs.metrics import counter as _counter

__all__ = ["FORK_MIN_WORK", "both"]

#: Size-gate crossover (elements): below it a fork's wake-up and join cost
#: more than the half it moves off the caller.  Shape-only, so whether a
#: layer may fork never depends on runtime state.
FORK_MIN_WORK = 1 << 17


_CORES = usable_cores()


class _Helper:
    """The daemon thread and the locks that hand it one call at a time."""

    def __init__(self) -> None:
        self.busy = threading.Lock()  # held by the caller that forked
        self.go = threading.Lock()  # released to start ``task``
        self.go.acquire()
        self.done = threading.Lock()  # released when ``task`` has returned
        self.done.acquire()
        self.task = None
        self.error: BaseException | None = None
        self.thread = threading.Thread(target=self._loop, name="repro-nn-helper", daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        while True:
            self.go.acquire()
            task, self.task = self.task, None
            try:
                task()
            except BaseException as exc:  # handed to the caller at the join
                self.error = exc
            # drop the call before the join: a buffer it closes over must
            # die on the caller, never here
            del task
            self.done.release()


_helper: _Helper | None = None
_start_lock = threading.Lock()  # one helper, however many threads fork first


def _reset_after_fork() -> None:
    """A forked child has no helper thread: start a fresh one on demand."""
    global _helper, _start_lock
    _helper = None
    _start_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def _take(work: int) -> _Helper | None:
    """The helper, reserved for one fork, or ``None`` when a gate refuses."""
    global _helper
    if work < FORK_MIN_WORK:
        return None
    helper = _helper
    if threading.active_count() - (helper is not None) >= _CORES:
        return None
    if helper is None:
        with _start_lock:
            if _helper is None:
                _helper = _Helper()
            helper = _helper
    return helper if helper.busy.acquire(blocking=False) else None


def both(side, main, work: int, whole=None) -> None:
    """Run ``side()`` on the helper thread while the caller runs ``main()``.

    Returns once both have finished.  An exception raised in ``side`` is
    re-raised here once ``main`` has finished.  When the helper is refused
    (see the module docstring) both run inline, ``side`` first — or, when
    given, ``whole()`` runs instead: the two halves of a split batch as one
    call, which spares the second half's calls (and, among threads that
    fill the cores, their interpreter-lock hand-offs).
    """
    helper = _take(work)
    if helper is None:
        _counter("nn.helper.inline").inc()
        if whole is not None:
            whole()
            return
        side()
        main()
        return
    _counter("nn.helper.taken").inc()
    helper.task = side
    helper.go.release()
    try:
        main()
    finally:
        helper.done.acquire()
        error, helper.error = helper.error, None
        helper.busy.release()
    if error is not None:
        raise error
