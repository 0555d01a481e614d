"""Static memory: one slab per context, carved by recorded buffer lifetimes.

Large-batch training ("ImageNet Training in Minutes", You et al. 2018) is
capped by device memory — Figure 3's throughput curve ends in an OOM wall —
and, in this numpy substrate, taxed by the allocator: every layer's
``forward``/``backward`` asks for arrays whose size scales with the batch.
This module serves those requests out of one preallocated buffer whose
bytes are shared by every buffer whose lifetime does not overlap:

* **Recording.**  The first pass at each new key — the shape and dtype
  of the root's input and its training flag — runs on fresh ``np.empty``
  buffers.  Each ``Module._buf`` request is logged with its birth (its
  index in the pass) and its death (the request count when CPython frees
  the array, seen through a weakref callback).  Reference counting sees
  views, ``out=`` pass-through, in-place sums and layer caches for free,
  so no layer describes its own buffers.
* **Packing.**  :func:`pack` turns the intervals into 64-byte-aligned
  offsets with greedy-by-size assignment (Pisarchyk & Lee 2020,
  https://arxiv.org/abs/2001.03288): largest buffer first, each into the
  tightest gap left by the already-placed buffers it is live with.
* **Replay.**  Later passes at that key get views of the slab, handed out
  in request order; each request is checked against the recorded
  ``(owner, tag, shape, dtype)`` and a mismatch raises.  The slab is sized
  to the largest plan seen, so every step shape (training batch, short
  final batch, evaluation batch) shares one buffer; evaluation runs at the
  training batch, so the largest plan is a training step's.

A pass starts when the context's *root* — the module ``bind_memory`` was
called on, which carries the context's :meth:`MemoryContext.begin_hook` —
runs ``forward``, and a pass's buffers are valid until the next pass
starts.  A request outside a pass raises.  A pass belongs to the thread
that opened it: a request from another thread raises, and so does
:meth:`MemoryContext.close` when a recorded buffer's last reference died
on another thread, since a death's position in the request stream would
then depend on scheduling (``repro.nn.parallel`` keeps every buffer on
the caller for this reason).  Switching the model
between ``train()`` and ``eval()`` closes the pass, so a recording is
packed as soon as its mode ends.

:class:`MemoryPlan` *is* the recorded pass.  ``MemoryPlan.build`` records
one pass on a deep copy of the model fed zeros, so the predicted bytes are
the bytes a live context measures, by construction.

Binding picks the allocator, not the code: with no :class:`MemoryContext`
attached (``static_memory=False``, the default everywhere) the same
requests get fresh ``np.empty`` arrays — same arithmetic, same bits.
"""

from __future__ import annotations

import copy
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from ..obs.metrics import counter as _counter
from ..obs.metrics import gauge as _gauge

__all__ = [
    "ALIGN",
    "MemoryContext",
    "MemoryPlan",
    "PlannedBuffer",
    "Slab",
    "aligned",
    "pack",
    "plan_training_step",
]

#: slab offsets and buffer extents are multiples of one cache line
ALIGN = 64


def aligned(nbytes: int) -> int:
    """Round a byte count up to a multiple of :data:`ALIGN`."""
    return -(-int(nbytes) // ALIGN) * ALIGN


def pack(sizes, starts, ends) -> tuple[list[int], int]:
    """Greedy-by-size offsets for buffers live on ``[starts[i], ends[i])``.

    Buffers are placed largest first (ties by birth); each goes into the
    smallest address gap, among the already-placed buffers whose lifetimes
    overlap its own, that holds it — or above them all.  Sizes must be
    multiples of :data:`ALIGN`, which keeps every offset aligned.  Returns
    ``(offsets, extent)``; zero-size buffers get offset 0.
    """
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], starts[i]))
    offsets = [0] * len(sizes)
    placed: list[tuple[int, int, int, int]] = []  # (offset, end, start, death)
    extent = 0
    for i in order:
        size, lo, hi = sizes[i], starts[i], ends[i]
        if size == 0:
            continue
        busy = sorted((o, e) for o, e, s, d in placed if s < hi and lo < d)
        best, best_gap, top = None, None, 0
        for o, e in busy:
            gap = o - top
            if gap >= size and (best_gap is None or gap < best_gap):
                best, best_gap = top, gap
            top = max(top, e)
        off = top if best is None else best
        offsets[i] = off
        placed.append((off, off + size, lo, hi))
        extent = max(extent, off + size)
    return offsets, extent


@dataclass(frozen=True)
class PlannedBuffer:
    """One buffer of a plan: its request, lifetime and slab placement.

    ``start`` is the buffer's index in the pass's request stream and
    ``end`` the request count when it was freed (the pass length if it was
    still alive when the pass ended); it is live on ``[start, end)``.
    """

    owner: str
    tag: str
    shape: tuple
    dtype: str
    start: int
    end: int
    offset: int
    nbytes: int


def _owner_name(owner) -> str:
    return getattr(owner, "name", "") or type(owner).__name__


class MemoryPlan:
    """One recorded pass: its requests, their lifetimes and packed offsets.

    ``peak_bytes`` is the most bytes live at once (aligned sizes);
    ``pool_bytes`` is the packed slab extent the pass needs, which is at
    least ``peak_bytes``.  A :class:`MemoryContext` keeps one plan per key
    and replays it; :meth:`build` predicts one without touching the model.
    """

    def __init__(self, requests: list, ends: list, batch_size: int, training: bool):
        self.requests = requests  # (owner, tag, shape, dtype) in request order
        self.batch_size = int(batch_size)
        self.training = bool(training)
        self.starts = list(range(len(requests)))
        self.ends = ends
        self.sizes = [
            aligned(int(np.prod(shape)) * np.dtype(dt).itemsize)
            for _, _, shape, dt in requests
        ]
        self.offsets, self.pool_bytes = pack(self.sizes, self.starts, ends)
        live = [0] * (len(requests) + 1)
        for size, lo, hi in zip(self.sizes, self.starts, ends):
            live[lo] += size
            live[hi] -= size
        peak = run = 0
        for delta in live:
            run += delta
            peak = max(peak, run)
        self.peak_bytes = peak
        self._buffer = None  # the slab the views below were cut from
        self._views: list = []

    def views(self, buffer: np.ndarray) -> list:
        """The plan's buffers as views of ``buffer`` (cached per slab)."""
        if self._buffer is not buffer:
            self._views = [
                buffer[off : off + size].view(dt)[: int(np.prod(shape))].reshape(shape)
                if size else np.empty(shape, dt)
                for (_, _, shape, dt), off, size in zip(self.requests, self.offsets, self.sizes)
            ]
            self._buffer = buffer
        return self._views

    @classmethod
    def build(cls, model, input_shape, batch_size, loss=None, training=True) -> "MemoryPlan":
        """Record one pass of ``model`` on zeros and return its plan.

        Runs a deep copy of ``model`` (and ``loss``), so the caller's
        model, its bound context, hooks and statistics are untouched.
        ``input_shape`` is per-example (channels-first, no batch dim), the
        same convention as ``Module.output_shape``.  A training pass runs
        forward, the loss (or a zero gradient when ``loss`` is ``None``)
        and backward; an evaluation pass runs forward only.
        """
        model, loss = _detached_copy(model, loss)
        ctx = MemoryContext()
        model.bind_memory(ctx)
        if loss is not None:
            loss.bind_memory(ctx)
        if training:
            model.train()
        else:
            model.eval()
        x = np.zeros((int(batch_size), *tuple(input_shape)))
        with np.errstate(all="ignore"):
            out = model.forward(x)
            if training:
                if loss is not None:
                    loss.forward(out, np.zeros(len(out), dtype=np.int64))
                    grad = loss.backward()
                else:
                    grad = np.zeros(out.shape)
                model.backward(grad)
        ctx.close()
        (plan,) = ctx.plans.values()
        return plan

    def at_batch(self, other: "MemoryPlan", batch_size: int) -> "MemoryPlan":
        """This plan extrapolated to ``batch_size`` through ``other``, a
        recording of the same pass at another batch size.

        Every buffer dimension is affine in the batch, and the lifetimes do
        not depend on it while each layer takes the same code path, so the
        result is the plan a recording at ``batch_size`` makes — without
        running the model.  A layer whose code path changes with the batch
        (``Conv2D`` picks its backward GEMM by problem size) changes the
        buffers, which only a recording at that batch sees.  Raises
        ``ValueError`` when the two plans are not the same pass.
        """
        b0, db = self.batch_size, other.batch_size - self.batch_size
        if (db == 0 or self.ends != other.ends or self.training != other.training
                or len(self.requests) != len(other.requests)):
            raise ValueError("extrapolation needs the same pass recorded at two batch sizes")
        requests = []
        for (owner, tag, s0, dt), (owner1, tag1, s1, dt1) in zip(self.requests, other.requests):
            steps = [divmod(d1 - d0, db) for d0, d1 in zip(s0, s1)]
            if ((_owner_name(owner), tag, dt) != (_owner_name(owner1), tag1, dt1)
                    or len(s0) != len(s1) or any(rem for _, rem in steps)):
                raise ValueError(f"{_owner_name(owner)}.{tag} is not the same buffer in both "
                                 f"passes ({s0} vs {tuple(s1)})")
            shape = tuple(d0 + step * (batch_size - b0) for d0, (step, _) in zip(s0, steps))
            requests.append((owner, tag, shape, dt))
        return MemoryPlan(requests, list(self.ends), batch_size, self.training)

    @property
    def num_buffers(self) -> int:
        return len(self.requests)

    @property
    def buffers(self) -> list[PlannedBuffer]:
        return [
            PlannedBuffer(_owner_name(owner), tag, tuple(shape), np.dtype(dt).name,
                          lo, hi, off, size)
            for (owner, tag, shape, dt), lo, hi, off, size in zip(
                self.requests, self.starts, self.ends, self.offsets, self.sizes)
        ]

    def table(self, top: int | None = None) -> str:
        """Human-readable plan: buffers sorted by size."""
        rows = sorted(self.buffers, key=lambda b: -b.nbytes)
        if top is not None:
            rows = rows[:top]
        lines = [
            f"{'owner':<36}{'tag':<10}{'shape':<22}{'bytes':>12}{'offset':>12}{'live':>12}"
        ]
        for b in rows:
            lines.append(
                f"{b.owner:<36}{b.tag:<10}{str(b.shape):<22}"
                f"{b.nbytes:>12}{b.offset:>12}{f'[{b.start},{b.end})':>12}"
            )
        lines.append(
            f"slab {self.pool_bytes} B for a live peak of {self.peak_bytes} B "
            f"({self.num_buffers} buffers)"
        )
        return "\n".join(lines)


def _detached_copy(model, loss):
    """Deep copies of ``model``/``loss`` sharing no context, comm or hook."""
    memo: dict = {}
    mods = list(model.modules()) + ([loss] if loss is not None else [])
    for m in mods:
        for attr in ("_memory", "comm"):
            obj = vars(m).get(attr)
            if obj is not None:
                memo[id(obj)] = None
        if "_hooks" in vars(m):
            memo[id(m._hooks)] = ()
    return copy.deepcopy(model, memo), copy.deepcopy(loss, memo)


class Slab:
    """A context's one buffer and its accounting counters.

    ``bytes_allocated`` is cumulative: every slab (re)allocation plus the
    fresh buffers recording passes hand out.  ``pool_bytes`` is the slab's
    size, ``peak_bytes`` the largest live peak of any plan, and
    ``acquires`` counts buffer requests served.
    """

    def __init__(self) -> None:
        self.buffer = np.empty(0, dtype=np.uint8)
        self.bytes_allocated = 0
        self.pool_bytes = 0
        self.peak_bytes = 0
        self.acquires = 0

    def fit(self, plan: MemoryPlan) -> None:
        """Grow the slab (never shrink it) to hold ``plan``."""
        self.peak_bytes = max(self.peak_bytes, plan.peak_bytes)
        if plan.pool_bytes > self.pool_bytes:
            raw = np.empty(plan.pool_bytes + ALIGN, dtype=np.uint8)
            lead = -raw.ctypes.data % ALIGN
            self.buffer = raw[lead : lead + plan.pool_bytes]
            self.pool_bytes = plan.pool_bytes
            self.allocated(plan.pool_bytes)
        _gauge("nn.peak_arena_bytes").set(float(self.peak_bytes))

    def allocated(self, nbytes: int) -> None:
        self.bytes_allocated += nbytes
        _counter("nn.bytes_allocated").inc(nbytes)

    def stats(self) -> dict:
        """Snapshot of the accounting counters (plain ints)."""
        return {
            "bytes_allocated": self.bytes_allocated,
            "pool_bytes": self.pool_bytes,
            "peak_bytes": self.peak_bytes,
            "acquires": self.acquires,
        }


class MemoryContext:
    """Serves bound modules' buffer requests (see ``Module.bind_memory``).

    ``root`` is the module whose ``forward`` starts each pass (set by
    ``bind_memory``); ``plans`` maps each pass key — ``(shape, dtype,
    training)`` of the root's input — to its :class:`MemoryPlan`; ``arena``
    is the :class:`Slab` every plan is replayed from.
    """

    def __init__(self) -> None:
        self.arena = Slab()
        self.plans: dict[tuple, MemoryPlan] = {}
        self.root = None
        self._open = False
        self._plan: MemoryPlan | None = None  # replaying, or None: recording
        self._views: list = []
        self._n = 0  # requests served in the current pass
        self._rec = None  # (key, requests, deaths, weakrefs) while recording
        self._thread = None  # ident of the thread that opened the pass
        self._strays: list[int] = []  # recorded buffers freed off that thread

    def request(self, owner, tag: str, shape, dtype) -> np.ndarray:
        """The next buffer of the pass: a slab view, or a fresh array."""
        if not self._open:
            raise RuntimeError(
                f"buffer request {_owner_name(owner)}.{tag} outside a pass: a pass "
                "starts when the module the context is bound to runs forward")
        if threading.get_ident() != self._thread:
            raise RuntimeError(
                f"buffer request {_owner_name(owner)}.{tag} from a thread other than "
                "the one that opened the pass: request buffers before a fork")
        i = self._n
        self._n = i + 1
        self.arena.acquires += 1
        plan = self._plan
        if plan is None:
            return self._record(owner, tag, shape, dtype)
        if i < len(self._views) and plan.requests[i] == (owner, tag, shape, dtype):
            return self._views[i]
        want = (f"{_owner_name(plan.requests[i][0])}.{plan.requests[i][1]} "
                f"{plan.requests[i][2]}" if i < len(self._views) else "the end of the pass")
        raise RuntimeError(
            f"request {i} of a replayed pass is {_owner_name(owner)}.{tag} "
            f"{tuple(shape)} {np.dtype(dtype).name}; the recorded pass had {want}")

    def begin_hook(self, module, phase: str, x) -> None:
        """The hook ``bind_memory`` puts on the root: its forward starts a
        pass on its input (inert once another module is the root)."""
        if phase == "forward" and self.root is module:
            self.begin(x.shape, x.dtype, module.training)

    def begin(self, shape, dtype, training: bool) -> None:
        """Start a pass on a root input of ``shape``/``dtype``: the previous
        pass closes, and the new one replays the key's plan or records it."""
        self.close()
        key = (tuple(shape), np.dtype(dtype).str, bool(training))
        plan = self.plans.get(key)
        self._plan = plan
        if plan is None:
            self._rec = (key, [], [], [])
        else:
            self._views = plan.views(self.arena.buffer)
        self._n = 0
        self._thread = threading.get_ident()
        self._open = True

    def _record(self, owner, tag, shape, dtype) -> np.ndarray:
        _, requests, deaths, refs = self._rec
        arr = np.empty(shape, dtype=dtype)
        i = len(requests)
        requests.append((owner, tag, shape, dtype))
        deaths.append(None)

        def died(_, i=i, thread=self._thread):
            deaths[i] = self._n
            if threading.get_ident() != thread:
                self._strays.append(i)

        refs.append(weakref.ref(arr, died))
        self.arena.allocated(arr.nbytes)
        return arr

    def close(self) -> None:
        """Close the current pass: a recording is packed into a plan now.

        The slab and every plan stay, so the next pass at a known key
        replays without allocating.  Raises, keeping no plan, when a
        recorded buffer's last reference died on a thread other than the
        one that opened the pass: its lifetime would depend on scheduling.
        """
        rec, strays = self._rec, self._strays
        self._rec, self._strays = None, []
        self._plan = None
        self._views = []
        self._open = False
        if rec is None:
            return
        key, requests, deaths, refs = rec
        refs.clear()  # later frees no longer matter
        if strays:
            owner, tag, shape, _ = requests[strays[0]]
            raise RuntimeError(
                f"recorded buffer {_owner_name(owner)}.{tag} {tuple(shape)} was freed on a "
                "thread other than the one that opened the pass: release buffers after "
                "the join")
        if requests:  # a pass that requested nothing needs no plan
            n = len(requests)
            plan = MemoryPlan(requests, [n if d is None else d for d in deaths],
                              key[0][0] if key[0] else 0, key[2])
            self.plans[key] = plan
            self.arena.fit(plan)

    @property
    def bytes_allocated(self) -> int:
        return self.arena.bytes_allocated


def plan_training_step(model, input_shape, batch_size, loss=None) -> MemoryPlan:
    """Convenience wrapper: plan a full forward+backward training step."""
    return MemoryPlan.build(model, input_shape, batch_size, loss=loss, training=True)
