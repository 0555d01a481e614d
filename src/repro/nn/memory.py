"""Graph-wide memory planning: arena allocator + static activation plan.

Large-batch training ("ImageNet Training in Minutes", You et al. 2018) is
an exercise in per-iteration efficiency: once communication is overlapped
(PR 4), the remaining steady-state tax in this numpy substrate is the
allocator — every layer's ``forward``/``backward`` conjures fresh ndarrays
whose size scales with the global batch.  This module removes that tax:

* :class:`Arena` — a size-bucketed freelist of flat ndarrays.  ``acquire``
  rounds the request up to a power-of-two bucket and reuses a free buffer
  of that bucket when one exists; ``release`` returns a buffer to its
  bucket.  Cumulative ``bytes_allocated``, current ``in_use_bytes`` and
  high-water ``peak_bytes`` make "zero allocations in steady state" a
  checkable invariant rather than a hope.
* :class:`MemoryContext` — the binding between a model and an arena.
  Layers request *slots* (persistent, keyed by ``(module, tag, shape,
  dtype)``: activations, masks, gradient outputs — anything whose lifetime
  crosses a layer-call boundary) and *scratch* (acquired and released
  inside one layer call: GEMM staging, reduction temporaries — these are
  where the freelist earns real reuse, because consecutive layer calls
  recycle the same buckets).
* :class:`MemoryPlan` — a static analyser.  It shape-infers the layer
  graph once (per-layer rules mirror the exact slot/scratch requests the
  layer code makes), assigns each buffer a liveness interval in
  forward/backward tick order, and replays the whole request stream
  through a dry-run arena.  Because prediction and measurement share the
  same bucket accounting, the predicted peak is the measured peak — the
  closed-form ``repro.perfmodel.memory`` predictor is pinned to it by
  test.

Binding picks the allocator, not the code: every layer has one code path
whose ``Module._buf``/``_scratch`` requests this context serves from the
arena, and with no :class:`MemoryContext` attached (``static_memory=False``,
the default everywhere) the same requests get fresh ``np.empty`` arrays —
same arithmetic, same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import counter as _counter
from ..obs.metrics import gauge as _gauge

__all__ = [
    "Arena",
    "MemoryContext",
    "MemoryPlan",
    "PlannedBuffer",
    "bucket_nbytes",
    "plan_training_step",
]

#: smallest bucket the arena hands out (bytes)
MIN_BUCKET_BYTES = 64

#: cache-coloring stride and cycle length.  Power-of-two buckets come back
#: from the allocator at addresses congruent modulo large powers of two, so
#: without an offset every big buffer maps onto the same cache sets and
#: multi-stream ufuncs thrash (heap-allocated fresh temporaries get this
#: stagger for free).  Each fresh bucket is shifted by the next multiple of
#: one page + one cache line, restoring the stagger.
_COLOR_STRIDE_BYTES = 4096 + 64
_COLOR_CYCLE = 16


def bucket_nbytes(nbytes: int) -> int:
    """Round a byte count up to the arena's bucket size (power of two)."""
    if nbytes <= MIN_BUCKET_BYTES:
        return MIN_BUCKET_BYTES
    return 1 << (int(nbytes) - 1).bit_length()


class Arena:
    """Size-bucketed freelist of reusable flat ndarrays.

    Buffers are allocated as flat 1-D arrays of the bucket size and handed
    out as reshaped views of a prefix, so one bucket serves every shape
    that rounds up to it.  ``release`` finds the owning flat buffer by
    walking the view's ``base`` chain — callers hand back exactly the
    array ``acquire`` returned (or a reshape of it).
    """

    def __init__(self) -> None:
        self._free: dict[tuple[np.dtype, int], list] = {}
        # id(flat root) -> [flat, (dtype, bucket), in_use, {shape: view}]
        self._owned: dict[int, list] = {}
        # id(handed-out view) -> the same record.  Views are cached on the
        # record for the buffer's lifetime, so their ids stay unique and
        # ``release`` resolves them with one dict hit instead of a base walk.
        self._recs: dict[int, list] = {}
        self.bytes_allocated = 0  # cumulative, fresh allocations only
        self.pool_bytes = 0  # total owned by the arena
        self.in_use_bytes = 0
        self.peak_bytes = 0
        self.acquires = 0
        self.releases = 0
        self.allocations = 0
        self._color = 0
        # (shape, dtype) -> (freelist key, element count): steady state
        # re-requests the same few signatures every step
        self._sig: dict = {}

    # -- override points shared with the dry-run arena ------------------------
    def _new_flat(self, dt: np.dtype, bucket: int):
        # Big buckets get a page-plus-line color offset; small ones stay
        # within a page, where one cache line of stagger is enough.
        stride = _COLOR_STRIDE_BYTES if bucket >= 65536 else 64
        off = self._color * stride // dt.itemsize
        self._color = (self._color + 1) % _COLOR_CYCLE
        base = np.empty(off + bucket // dt.itemsize, dtype=dt)
        return base[off:]

    def _view(self, flat, shape: tuple, n: int):
        return flat[:n].reshape(shape)

    def _root_of(self, arr):
        base = arr
        while getattr(base, "base", None) is not None:
            base = base.base
        return base

    def _on_alloc(self, bucket: int) -> None:
        _counter("nn.bytes_allocated").inc(bucket)
        _gauge("nn.peak_arena_bytes").set(float(self.peak_bytes))

    # -- allocation interface --------------------------------------------------
    def acquire(self, shape, dtype=np.float64):
        """A writable, uninitialised array of ``shape``/``dtype``."""
        sig = self._sig.get((shape, dtype)) if type(shape) is tuple else None
        if sig is None:
            shape = tuple(int(s) for s in shape)
            dt = np.dtype(dtype)
            n = 1
            for s in shape:
                n *= s
            if n == 0:
                # zero-size arrays (empty shards) cost nothing; don't pool them
                return np.empty(shape, dtype=dt)
            key = (dt, bucket_nbytes(n * dt.itemsize))
            sig = (key, n)
            self._sig[(shape, dtype)] = sig
        key, n = sig
        bucket = key[1]
        self.acquires += 1
        free = self._free.get(key)
        if free:
            rec = free.pop()
            rec[2] = True
            self.in_use_bytes += bucket
            if self.in_use_bytes > self.peak_bytes:
                self.peak_bytes = self.in_use_bytes
            view = rec[3].get(shape)
            if view is None:
                view = self._view(rec[0], shape, n)
                rec[3][shape] = view
                self._recs[id(view)] = rec
            return view
        flat = self._new_flat(key[0], bucket)
        view = self._view(flat, shape, n)
        rec = [flat, key, True, {shape: view}]
        self._recs[id(view)] = rec
        self._owned[id(self._root_of(flat))] = rec
        self.allocations += 1
        self.bytes_allocated += bucket
        self.pool_bytes += bucket
        self.in_use_bytes += bucket
        if self.in_use_bytes > self.peak_bytes:
            self.peak_bytes = self.in_use_bytes
        self._on_alloc(bucket)
        return view

    def release(self, arr) -> None:
        """Return an acquired array's buffer to its freelist."""
        if getattr(arr, "size", 1) == 0:
            return
        rec = self._recs.get(id(arr))
        if rec is None:
            # reshaped handle: resolve through the view's base chain
            rec = self._owned.get(id(self._root_of(arr)))
            if rec is None:
                raise ValueError("array was not acquired from this arena")
        if not rec[2]:
            raise ValueError("double release of an arena buffer")
        rec[2] = False
        key = rec[1]
        # the record keeps rec[0] (the color-offset flat view, not the root
        # allocation), so reacquisitions keep the original coloring offset
        self._free.setdefault(key, []).append(rec)
        self.releases += 1
        self.in_use_bytes -= key[1]

    def stats(self) -> dict:
        """Snapshot of the accounting counters (plain ints)."""
        return {
            "bytes_allocated": self.bytes_allocated,
            "pool_bytes": self.pool_bytes,
            "in_use_bytes": self.in_use_bytes,
            "peak_bytes": self.peak_bytes,
            "acquires": self.acquires,
            "releases": self.releases,
            "allocations": self.allocations,
        }


class _PhantomFlat:
    """Stand-in for a flat buffer in the dry-run arena (no memory)."""

    __slots__ = ()
    base = None


class _PhantomView:
    """Stand-in for an acquired view; remembers its flat owner."""

    __slots__ = ("base", "size")

    def __init__(self, flat: _PhantomFlat, size: int):
        self.base = flat
        self.size = size


class _DryArena(Arena):
    """Arena that performs the full bucket accounting without allocating.

    :class:`MemoryPlan` replays a model's buffer request stream through
    this class, so predicted byte counts use *the same code* as the live
    arena — the predictor cannot drift from the measurement.
    """

    def _new_flat(self, dt, bucket):
        return _PhantomFlat()

    def _view(self, flat, shape, n):
        return _PhantomView(flat, n)

    def _on_alloc(self, bucket):
        pass  # planning must not touch the live metrics registry


class MemoryContext:
    """Binds modules to an :class:`Arena` (see ``Module.bind_memory``).

    ``slot`` returns the persistent buffer for ``(owner, tag, shape,
    dtype)``, acquiring it on first request; slots are never recycled
    while the context lives, so a slot's contents survive from the moment
    a layer writes it until the layer's backward consumes it, with no
    aliasing analysis required.  ``scratch``/``release`` wrap the arena
    for strictly call-scoped temporaries.
    """

    def __init__(self, arena: Arena | None = None):
        self.arena = arena if arena is not None else Arena()
        self._slots: dict = {}

    def slot(self, owner, tag: str, shape, dtype=np.float64):
        key = (id(owner), tag, tuple(shape), np.dtype(dtype))
        buf = self._slots.get(key)
        if buf is None:
            buf = self.arena.acquire(shape, dtype)
            self._slots[key] = buf
        return buf

    def scratch(self, shape, dtype=np.float64):
        return self.arena.acquire(shape, dtype)

    def release(self, buf) -> None:
        self.arena.release(buf)

    def close(self) -> None:
        """Release every slot back to the arena (the pool stays warm)."""
        for buf in self._slots.values():
            self.arena.release(buf)
        self._slots.clear()

    @property
    def bytes_allocated(self) -> int:
        return self.arena.bytes_allocated

    @property
    def peak_bytes(self) -> int:
        return self.arena.peak_bytes


# ---------------------------------------------------------------------------
# Static planning
# ---------------------------------------------------------------------------

_F64 = np.dtype(np.float64)
_BOOL = np.dtype(np.bool_)
_INTP = np.dtype(np.intp)

# events: ("slot", tag, shape, dtype) / ("scratch", tag, shape, dtype) /
#         ("free", tag) — tags are unique per owner within one call


@dataclass(frozen=True)
class PlannedBuffer:
    """One planned arena request with its liveness interval.

    ``tick`` counts layer-calls in execution order (forward calls first,
    then backward calls in reverse).  Slots stay live from their first
    write to the owner's backward (``end``); scratch lives inside one
    call (``end == start``).
    """

    owner: str
    tag: str
    kind: str  # "slot" | "scratch"
    shape: tuple
    dtype: str
    phase: str  # "forward" | "backward"
    start: int
    end: int

    @property
    def nbytes(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n * np.dtype(self.dtype).itemsize

    @property
    def bucket(self) -> int:
        return bucket_nbytes(self.nbytes)


def _prod(shape) -> int:
    n = 1
    for s in shape:
        n *= s
    return n


# -- per-layer buffer rules ---------------------------------------------------
#
# Each rule mirrors, request for request and in source order, what the
# layer's code asks of the MemoryContext.  tests pin the mirror: the
# plan's dry-run peak must equal the live arena's measured peak, so a rule
# that forgets a request fails the predictor test.


def _rule_relu(layer, shp, training):
    fwd = [("slot", "mask", shp, _BOOL), ("slot", "y", shp, _F64)]
    bwd = [("slot", "dx", shp, _F64)]
    return shp, fwd, bwd


def _rule_sigmoid(layer, shp, training):
    fwd = [
        ("slot", "pos", shp, _BOOL),
        ("slot", "neg", shp, _BOOL),
        ("scratch", "t", shp, _F64),
        ("slot", "y", shp, _F64),
        ("scratch", "u", shp, _F64),
        ("free", "u"),
        ("free", "t"),
    ]
    bwd = [
        ("slot", "dx", shp, _F64),
        ("scratch", "t", shp, _F64),
        ("free", "t"),
    ]
    return shp, fwd, bwd


def _rule_tanh(layer, shp, training):
    fwd = [("slot", "y", shp, _F64)]
    bwd = [
        ("scratch", "t", shp, _F64),
        ("slot", "dx", shp, _F64),
        ("free", "t"),
    ]
    return shp, fwd, bwd


def _rule_dense(layer, shp, training):
    n = shp[0]
    out_shp = (n, layer.out_features)
    fwd = [("slot", "y", out_shp, _F64)]
    bwd = [
        ("scratch", "dw", (layer.in_features, layer.out_features), _F64),
        ("free", "dw"),
    ]
    if layer.bias is not None:
        bwd += [("scratch", "db", (layer.out_features,), _F64), ("free", "db")]
    bwd.append(("slot", "dx", shp, _F64))
    return out_shp, fwd, bwd


def _rule_conv(layer, shp, training):
    from .layers.conv import _BATCHED_MATMUL_MAX_MACS, conv_output_hw

    n, c, h, w = shp
    k, s, p, g = layer.kernel_size, layer.stride, layer.padding, layer.groups
    cg = c // g
    og = layer.out_channels // g
    oh, ow = conv_output_hw(h, w, k, k, s, p)
    span = oh * ow
    pointwise = layer._is_pointwise()
    ckk = cg if pointwise else cg * k * k
    fwd = []
    if pointwise:
        if s != 1:
            fwd.append(("slot", "xs", (n, c, oh, ow), _F64))
    else:
        fwd.append(("slot", "cols", (n, c * k * k, span), _F64))
        if p > 0:
            fwd.append(("slot", "xpad", (n, c, h + 2 * p, w + 2 * p), _F64))
    fwd.append(("slot", "y", (n, layer.out_channels, oh, ow), _F64))
    out_shp = (n, layer.out_channels, oh, ow)

    bwd = [
        ("scratch", "dw", (g, og, ckk), _F64),
        ("slot", "dcols", (n, g, ckk, span), _F64),
    ]
    if n * g * og * ckk * span <= _BATCHED_MATMUL_MAX_MACS:
        bwd += [
            ("scratch", "t1", (g, og, n, span), _F64),
            ("scratch", "t2", (g, n, span, ckk), _F64),
            ("free", "t2"),
            ("free", "t1"),
        ]
    bwd.append(("free", "dw"))
    if layer.bias is not None:
        bwd += [("scratch", "db", (layer.out_channels,), _F64), ("free", "db")]
    if pointwise:
        if s != 1:
            bwd.append(("slot", "dx", shp, _F64))
    elif p > 0 and s < k:
        bwd.append(("slot", "dx", shp, _F64))
    else:
        bwd.append(("slot", "dx_pad", (n, c, h + 2 * p, w + 2 * p), _F64))
        if p > 0:
            bwd.append(("slot", "dx", shp, _F64))
    return out_shp, fwd, bwd


def _rule_maxpool(layer, shp, training):
    from .layers.conv import conv_output_hw

    n, c, h, w = shp
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    hp, wp = h + 2 * p, w + 2 * p
    oh, ow = conv_output_hw(h, w, k, k, s, p)
    span = oh * ow
    fwd = []
    if p > 0:
        fwd.append(("slot", "xpad", (n, c, hp, wp), _F64))
    fwd += [
        ("slot", "cols", (n * c, k * k, span), _F64),
        ("slot", "argmax", (n, c, span), _INTP),
        ("slot", "y", (n, c, oh, ow), _F64),
    ]
    if p > 0 and s < k:
        bwd = [
            ("scratch", "dcols", (n, c, k * k, span), _F64),
            ("slot", "dx", shp, _F64),
            ("free", "dcols"),
        ]
    else:
        bwd = [
            ("scratch", "dcols", (n, c, k * k, span), _F64),
            ("slot", "dx_pad", (n * c, 1, hp, wp), _F64),
            ("free", "dcols"),
        ]
        if p > 0:
            bwd.append(("slot", "dx", shp, _F64))
    return (n, c, oh, ow), fwd, bwd


def _rule_avgpool(layer, shp, training):
    from .layers.conv import conv_output_hw

    n, c, h, w = shp
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    hp, wp = h + 2 * p, w + 2 * p
    oh, ow = conv_output_hw(h, w, k, k, s, p)
    span = oh * ow
    fwd = []
    if p > 0:
        fwd.append(("slot", "xpad", (n, c, hp, wp), _F64))
    fwd += [
        ("slot", "cols", (n * c, k * k, span), _F64),
        ("slot", "y", (n, c, oh, ow), _F64),
    ]
    bwd = [
        ("scratch", "go", (n * c, 1, span), _F64),
        ("scratch", "dcols", (n * c, k * k, span), _F64),
        ("free", "go"),
    ]
    if p > 0 and s < k:
        bwd += [("slot", "dx", shp, _F64), ("free", "dcols")]
    else:
        bwd.append(("slot", "dx_pad", (n * c, 1, hp, wp), _F64))
        bwd.append(("free", "dcols"))
        if p > 0:
            bwd.append(("slot", "dx", shp, _F64))
    return (n, c, oh, ow), fwd, bwd


def _rule_gap(layer, shp, training):
    n, c = shp[0], shp[1]
    fwd = [("slot", "y", (n, c), _F64)]
    bwd = [("slot", "dx", shp, _F64)]
    return (n, c), fwd, bwd


def _rule_flatten(layer, shp, training):
    return (shp[0], _prod(shp[1:])), [], []


def _rule_batchnorm(layer, shp, training):
    fwd = [("slot", "xhat", shp, _F64), ("slot", "y", shp, _F64)]
    bwd = [
        ("scratch", "t", shp, _F64),
        ("scratch", "dxh", shp, _F64),
        ("slot", "dx", shp, _F64),
        ("free", "dxh"),
        ("free", "t"),
    ]
    return shp, fwd, bwd


def _rule_dropout(layer, shp, training):
    if not training or layer.p == 0.0:
        return shp, [], []
    fwd = [
        ("slot", "mask", shp, _F64),
        ("slot", "sel", shp, _BOOL),
        ("slot", "y", shp, _F64),
    ]
    bwd = [("slot", "dx", shp, _F64)]
    return shp, fwd, bwd


def _window_sum_events(shp, prefix):
    n, c = shp[0], shp[1]
    csum_shp = (n, c + 1, *shp[2:])
    return [
        ("scratch", f"{prefix}csum", csum_shp, _F64),
        ("scratch", f"{prefix}th", shp, _F64),
        ("scratch", f"{prefix}tl", shp, _F64),
        ("free", f"{prefix}tl"),
        ("free", f"{prefix}th"),
        ("free", f"{prefix}csum"),
    ]


def _rule_lrn(layer, shp, training):
    fwd = (
        [
            ("scratch", "sq", shp, _F64),
            ("scratch", "ssum", shp, _F64),
        ]
        + _window_sum_events(shp, "f")
        + [
            ("free", "sq"),
            ("slot", "denom", shp, _F64),
            ("free", "ssum"),
            ("scratch", "t", shp, _F64),
            ("slot", "y", shp, _F64),
            ("free", "t"),
        ]
    )
    bwd = (
        [
            ("scratch", "dpow", shp, _F64),
            ("scratch", "t", shp, _F64),
            ("scratch", "tsum", shp, _F64),
        ]
        + _window_sum_events(shp, "b")
        + [
            ("free", "t"),
            ("slot", "dx", shp, _F64),
            ("free", "dpow"),
            ("scratch", "t2", shp, _F64),
            ("free", "tsum"),
            ("free", "t2"),
        ]
    )
    return shp, fwd, bwd


def _fusion_input_conv(mod, shp):
    """The Conv2D whose padded-input slot absorbs ``mod``'s input.

    Static mirror of the live ``Module.input_slot`` delegation chain: a
    Sequential hands its first layer's slot out, a Residual its branch's,
    and a non-pointwise padded Conv2D owns one.  Returns ``None`` when no
    fusion applies (mirroring ``input_slot`` returning ``None``).
    """
    from .layers.base import Sequential
    from .layers.conv import Conv2D
    from .layers.residual import Residual

    if isinstance(mod, Sequential):
        return _fusion_input_conv(mod.layers[0], shp) if mod.layers else None
    if isinstance(mod, Residual):
        return _fusion_input_conv(mod.branch, shp)
    if (
        isinstance(mod, Conv2D)
        and len(shp) == 4
        and mod.padding > 0
        and not mod._is_pointwise()
        and shp[1] == mod.in_channels
    ):
        return mod
    return None


def _loss_events(n, k):
    fwd = [
        ("slot", "logp", (n, k), _F64),
        ("scratch", "t", (n, k), _F64),
        ("free", "t"),
    ]
    bwd = [
        ("scratch", "probs", (n, k), _F64),
        ("scratch", "td", (n, k), _F64),
        ("slot", "dlogits", (n, k), _F64),
        ("free", "td"),
        ("free", "probs"),
    ]
    return fwd, bwd


def _layer_rules():
    from .layers.activations import ReLU, Sigmoid, Tanh
    from .layers.conv import Conv2D
    from .layers.dense import Dense
    from .layers.dropout import Dropout
    from .layers.norm import BatchNorm, LocalResponseNorm, SyncBatchNorm
    from .layers.pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D
    from .layers.reshape import Flatten

    return {
        ReLU: _rule_relu,
        Sigmoid: _rule_sigmoid,
        Tanh: _rule_tanh,
        Dense: _rule_dense,
        Conv2D: _rule_conv,
        MaxPool2D: _rule_maxpool,
        AvgPool2D: _rule_avgpool,
        GlobalAvgPool2D: _rule_gap,
        Flatten: _rule_flatten,
        BatchNorm: _rule_batchnorm,
        SyncBatchNorm: _rule_batchnorm,
        Dropout: _rule_dropout,
        LocalResponseNorm: _rule_lrn,
    }


@dataclass
class MemoryPlan:
    """Static activation/grad memory plan for one training-step shape.

    Built once per ``(model, batch_size)``; ``peak_bytes`` etc. come from
    replaying the planned request stream through a dry-run arena with the
    real bucket accounting, so they are exact predictions of what a live
    :class:`Arena` reports after a planned step — the invariant
    ``tests/perfmodel/test_memory_predictor.py`` pins.
    """

    input_shape: tuple
    batch_size: int
    buffers: list[PlannedBuffer] = field(default_factory=list)
    peak_bytes: int = 0
    pool_bytes: int = 0
    slot_bytes: int = 0
    scratch_bucket_bytes: int = 0
    n_ticks: int = 0

    @classmethod
    def build(cls, model, input_shape, batch_size, loss=None, training=True):
        """Shape-infer ``model`` (and optionally its loss) into a plan.

        ``input_shape`` is per-example (channels-first, no batch dim), the
        same convention as ``Module.output_shape``.
        """
        from .layers.base import Sequential
        from .layers.branch import ConcatBranches
        from .layers.residual import Residual

        rules = _layer_rules()
        shp = (int(batch_size), *tuple(input_shape))
        fwd_stream: list = []  # (owner, event)
        anon = [0]
        names: dict[int, str] = {}

        def owner_name(mod):
            nm = names.get(id(mod))
            if nm is None:
                if getattr(mod, "name", ""):
                    nm = mod.name
                else:
                    anon[0] += 1
                    nm = f"{type(mod).__name__}#{anon[0]}"
                names[id(mod)] = nm
            return nm

        def walk(mod, shp, fused=False):
            """Emit forward events; return (out_shape, backward events).

            ``fused`` marks a producer whose output goes straight into a
            successor conv's padded-input slot (the live ``Sequential``
            fusion): its ``y`` slot request is elided, exactly as the
            layer code skips ``_buf("y", ...)`` when handed ``out=``.
            """
            if isinstance(mod, Sequential):
                bwds = []
                layers = mod.layers
                last = len(layers) - 1
                for i, layer in enumerate(layers):
                    child_fused = False
                    if i < last and layer._fusion_source:
                        nshp = (shp[0], *layer.output_shape(tuple(shp[1:])))
                        conv = _fusion_input_conv(layers[i + 1], nshp)
                        if conv is not None:
                            # the successor's padded slot is acquired by
                            # input_slot() before the producer runs
                            n, c, h, w = nshp
                            p = conv.padding
                            fwd_stream.append(
                                (
                                    owner_name(conv),
                                    ("slot", "xpad", (n, c, h + 2 * p, w + 2 * p), _F64),
                                )
                            )
                            child_fused = True
                    shp, b = walk(layer, shp, child_fused)
                    bwds.append(b)
                return shp, [e for b in reversed(bwds) for e in b]
            if isinstance(mod, Residual):
                name = owner_name(mod)
                out_shp, b_branch = walk(mod.branch, shp)
                b_short = []
                if mod.shortcut is not None:
                    _, b_short = walk(mod.shortcut, shp)
                tags = [("pre", _F64), ("mask", _BOOL)]
                if not fused:
                    tags.append(("y", _F64))
                for tag, dt in tags:
                    fwd_stream.append((name, ("slot", tag, out_shp, dt)))
                bwd = [(name, ("slot", "dpre", out_shp, _F64))]
                bwd += b_branch + b_short
                # the input gradient is summed in place into the branch's
                # own gradient buffer — no extra slot
                return out_shp, bwd
            if isinstance(mod, ConcatBranches):
                name = owner_name(mod)
                outs, branch_bwds = [], []
                for br in mod.branches:
                    o, b = walk(br, shp)
                    outs.append(o)
                    branch_bwds.append(b)
                n = shp[0]
                channels = sum(o[1] for o in outs)
                out_shp = (n, channels, *outs[0][2:])
                fwd_stream.append((name, ("slot", "y", out_shp, _F64)))
                bwd = []
                for i, (o, b) in enumerate(zip(outs, branch_bwds)):
                    bwd.append((name, ("slot", f"g{i}", o, _F64)))
                    bwd += b
                    if i == 0:
                        bwd.append((name, ("slot", "dx", shp, _F64)))
                return out_shp, bwd
            rule = rules.get(type(mod))
            if rule is None:
                raise ValueError(
                    f"no memory rule for layer type {type(mod).__name__}; "
                    "add one to repro.nn.memory to plan this model"
                )
            name = owner_name(mod)
            out_shp, fwd, bwd = rule(mod, shp, training)
            if fused:
                fwd = [e for e in fwd if e[:2] != ("slot", "y")]
            fwd_stream.extend((name, e) for e in fwd)
            return out_shp, [(name, e) for e in bwd]

        out_shp, bwd_stream = walk(model, shp)
        if loss is not None:
            if len(out_shp) != 2:
                raise ValueError(
                    f"loss expects (batch, classes) logits, model produces {out_shp}"
                )
            lf, lb = _loss_events(out_shp[0], out_shp[1])
            fwd_stream.extend(("loss", e) for e in lf)
            bwd_stream = [("loss", e) for e in lb] + bwd_stream

        return cls._simulate(fwd_stream, bwd_stream, tuple(input_shape), batch_size)

    @classmethod
    def _simulate(cls, fwd_stream, bwd_stream, input_shape, batch_size):
        dry = _DryArena()
        buffers: list[PlannedBuffer] = []
        slot_index: dict = {}  # slot key -> index into buffers
        tick = [0]

        def run(stream, phase):
            live: dict = {}  # (owner, tag) -> (handle, buffer index)
            last_owner = [None]
            for owner, event in stream:
                if owner != last_owner[0]:
                    tick[0] += 1
                    last_owner[0] = owner
                kind = event[0]
                if kind == "free":
                    handle, idx = live.pop((owner, event[1]))
                    dry.release(handle)
                    b = buffers[idx]
                    buffers[idx] = PlannedBuffer(
                        b.owner, b.tag, b.kind, b.shape, b.dtype, b.phase,
                        b.start, tick[0],
                    )
                    continue
                _, tag, shape, dt = event
                if kind == "slot":
                    key = (owner, tag, tuple(shape), dt)
                    if key in slot_index:
                        continue
                    dry.acquire(shape, dt)
                    slot_index[key] = len(buffers)
                    buffers.append(
                        PlannedBuffer(owner, tag, "slot", tuple(shape), dt.name,
                                      phase, tick[0], -1)
                    )
                else:
                    handle = dry.acquire(shape, dt)
                    live[(owner, tag)] = (handle, len(buffers))
                    buffers.append(
                        PlannedBuffer(owner, tag, "scratch", tuple(shape), dt.name,
                                      phase, tick[0], tick[0])
                    )
            if live:
                leaked = sorted(f"{o}.{t}" for o, t in live)
                raise RuntimeError(f"plan leaked scratch buffers: {leaked}")

        run(fwd_stream, "forward")
        run(bwd_stream, "backward")

        def replay(stream):
            live = {}
            for owner, event in stream:
                kind = event[0]
                if kind == "free":
                    dry.release(live.pop((owner, event[1])))
                elif kind == "scratch":
                    live[(owner, event[1])] = dry.acquire(event[2], event[3])
                # slots already held

        # A freed scratch bucket can be claimed by a later slot, so the pool
        # may still grow on the second step; replay until it stops.  The
        # demand profile is deterministic, so one extra pass after the slots
        # are all held reaches the fixed point — assert rather than assume.
        replay(fwd_stream)
        replay(bwd_stream)
        allocs_second = dry.allocations
        replay(fwd_stream)
        replay(bwd_stream)
        if dry.allocations != allocs_second:
            raise RuntimeError("memory plan did not reach steady state (internal error)")

        slot_bytes = sum(
            bucket_nbytes(b.nbytes) for b in buffers if b.kind == "slot"
        )
        plan = cls(
            input_shape=tuple(input_shape),
            batch_size=int(batch_size),
            buffers=buffers,
            peak_bytes=dry.peak_bytes,
            pool_bytes=dry.pool_bytes,
            slot_bytes=slot_bytes,
            scratch_bucket_bytes=dry.pool_bytes - slot_bytes,
            n_ticks=tick[0],
        )
        return plan

    @property
    def num_slots(self) -> int:
        return sum(1 for b in self.buffers if b.kind == "slot")

    def table(self, top: int | None = None) -> str:
        """Human-readable plan: buffers sorted by bucket size."""
        rows = sorted(self.buffers, key=lambda b: -b.bucket)
        if top is not None:
            rows = rows[:top]
        lines = [
            f"{'owner':<36}{'tag':<10}{'kind':<9}{'shape':<22}"
            f"{'bytes':>12}{'live':>12}"
        ]
        for b in rows:
            live = f"[{b.start},{'∞' if b.end < 0 else b.end}]"
            lines.append(
                f"{b.owner:<36}{b.tag:<10}{b.kind:<9}{str(b.shape):<22}"
                f"{b.bucket:>12}{live:>12}"
            )
        lines.append(
            f"peak {self.peak_bytes} B = slots {self.slot_bytes} B "
            f"+ scratch {self.scratch_bucket_bytes} B "
            f"({self.num_slots} slots, {self.n_ticks} ticks)"
        )
        return "\n".join(lines)


def plan_training_step(model, input_shape, batch_size, loss=None) -> MemoryPlan:
    """Convenience wrapper: plan a full forward+backward training step."""
    return MemoryPlan.build(model, input_shape, batch_size, loss=loss, training=True)
