"""MemoryContext, slab and packer invariants (see repro.nn.memory).

The static-memory guarantees — zero steady-state allocations, bitwise
results — rest on two things checked here: the packer never lets two
buffers that are live together share a byte, and the context's record /
replay bookkeeping is exact (integer counters, identical views on replay,
loud failures on a request the recorded pass did not make).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Dense, Dropout, Sequential
from repro.nn.memory import ALIGN, MemoryContext, aligned, pack


class Owner:
    """Stand-in for a layer: a name and a mode."""

    def __init__(self, name="layer", training=True):
        self.name = name
        self.training = training


def _pass(ctx, owner, shapes, dtype=np.float64, keep=False):
    """One pass of requests ``y0, y1, ...``, keyed like a root input of the
    first shape; each buffer dies at once unless ``keep`` holds them all to
    the end of the call."""
    ctx.begin(shapes[0], dtype, owner.training)
    kept = []
    for i, shape in enumerate(shapes):
        buf = ctx.request(owner, f"y{i}", shape, dtype)
        buf[...] = 0
        if keep:
            kept.append(buf)


def test_aligned_rounds_up_to_cache_lines():
    assert aligned(0) == 0
    assert aligned(1) == ALIGN
    assert aligned(ALIGN) == ALIGN
    assert aligned(ALIGN + 1) == 2 * ALIGN
    assert aligned(1000) == 1024
    assert aligned(1025) == 1088


def test_acquire_shape_dtype_and_accounting():
    ctx, owner = MemoryContext(), Owner()
    ctx.begin((3, 5), np.float64, True)
    rec = ctx.request(owner, "y", (3, 5), np.float64)  # recording: a fresh array
    assert rec.shape == (3, 5) and rec.dtype == np.float64
    assert ctx.arena.stats() == {"bytes_allocated": 120, "pool_bytes": 0,
                                 "peak_bytes": 0, "acquires": 1}
    del rec
    ctx.close()  # packed: one aligned 128-byte buffer
    s = ctx.arena.stats()
    assert s["pool_bytes"] == s["peak_bytes"] == aligned(120) == 128
    assert s["bytes_allocated"] == 120 + 128 and len(ctx.plans) == 1
    ctx.begin((3, 5), np.float64, True)
    view = ctx.request(owner, "y", (3, 5), np.float64)
    assert view.shape == (3, 5) and view.dtype == np.float64
    assert np.shares_memory(view, ctx.arena.buffer)
    assert view.ctypes.data % ALIGN == 0
    assert ctx.arena.acquires == 2


def test_release_and_reacquire_reuses_buffer():
    ctx, owner = MemoryContext(), Owner()
    _pass(ctx, owner, [(16, 16)])
    _pass(ctx, owner, [(16, 16)])  # packs the recording, replays it
    allocated = ctx.bytes_allocated
    ctx.begin((16, 16), np.float64, True)
    first = ctx.request(owner, "y0", (16, 16), np.float64)
    ctx.begin((16, 16), np.float64, True)
    again = ctx.request(owner, "y0", (16, 16), np.float64)
    assert again is first  # same plan position, same view object
    assert ctx.bytes_allocated == allocated


def test_one_bucket_serves_many_shapes():
    # A smaller step shape after a larger one packs into the same slab.
    ctx, owner = MemoryContext(), Owner()
    _pass(ctx, owner, [(64, 8), (64, 8)], keep=True)
    ctx.close()
    pool, allocated = ctx.arena.pool_bytes, ctx.bytes_allocated
    _pass(ctx, owner, [(8, 8), (8, 8)], keep=True)
    ctx.close()
    assert ctx.arena.pool_bytes == pool
    assert ctx.bytes_allocated == allocated + 2 * 8 * 8 * 8  # the recording only
    assert len(ctx.plans) == 2


def test_peak_tracks_high_water_not_current():
    ctx, owner = MemoryContext(), Owner()
    _pass(ctx, owner, [(32,), (32,)], keep=True)  # both live at once
    ctx.close()
    assert ctx.arena.peak_bytes == 2 * aligned(32 * 8)
    _pass(ctx, owner, [(4,)])
    ctx.close()
    assert ctx.arena.peak_bytes == 2 * aligned(32 * 8)  # high-water mark stays


def test_release_accepts_reshaped_handle():
    # A buffer is live while any view of it is: a reshaped handle keeps
    # its bytes from the next request, and dropping it frees them.
    ctx, owner = MemoryContext(), Owner()
    ctx.begin((4, 8), np.float64, True)
    a = ctx.request(owner, "a", (4, 8), np.float64).reshape(8, 4)
    ctx.request(owner, "b", (4, 8), np.float64)  # dies at once
    del a
    ctx.request(owner, "c", (4, 8), np.float64)
    ctx.close()
    (plan,) = ctx.plans.values()
    assert [(b.start, b.end) for b in plan.buffers] == [(0, 2), (1, 2), (2, 3)]
    assert plan.offsets[1] != plan.offsets[0]  # b overlapped a
    assert plan.offsets[2] == plan.offsets[0]  # c reuses a's bytes


def test_replay_mismatch_raises():
    # A replayed pass must make exactly the recorded requests.
    ctx, owner = MemoryContext(), Owner()
    _pass(ctx, owner, [(4, 4), (4, 4)])
    ctx.begin((4, 4), np.float64, True)
    ctx.request(owner, "y0", (4, 4), np.float64)
    with pytest.raises(RuntimeError, match="recorded pass had"):
        ctx.request(owner, "y1", (4, 5), np.float64)
    ctx.begin((4, 4), np.float64, True)  # a new pass
    ctx.request(owner, "y0", (4, 4), np.float64)
    ctx.request(owner, "y1", (4, 4), np.float64)
    with pytest.raises(RuntimeError, match="end of the pass"):
        ctx.request(owner, "y2", (4, 4), np.float64)


def test_request_outside_a_pass_raises():
    ctx, owner = MemoryContext(), Owner()
    _pass(ctx, owner, [(4,), (4,)])
    ctx.close()
    with pytest.raises(RuntimeError, match="outside a pass"):
        ctx.request(owner, "y1", (4,), np.float64)


def test_zero_size_acquire_bypasses_arena():
    ctx, owner = MemoryContext(), Owner()
    _pass(ctx, owner, [(0, 7), (0,)])
    ctx.close()
    assert ctx.arena.pool_bytes == 0 and ctx.bytes_allocated == 0
    ctx.begin((0, 7), np.float64, True)
    buf = ctx.request(owner, "y0", (0, 7), np.float64)
    assert buf.shape == (0, 7)


def test_memory_context_slots_are_persistent():
    # Every replay of a plan hands each request position the same view.
    ctx, owner = MemoryContext(), Owner()
    _pass(ctx, owner, [(8, 8), (8, 8)])
    views = []
    for _ in range(3):
        ctx.begin((8, 8), np.float64, True)
        views.append([ctx.request(owner, f"y{i}", (8, 8), np.float64) for i in range(2)])
    assert all(v[0] is views[0][0] and v[1] is views[0][1] for v in views)
    assert views[0][0] is not views[0][1]  # live together: distinct bytes
    assert not np.shares_memory(views[0][0], views[0][1])


def test_memory_context_close_releases_but_keeps_pool_warm():
    ctx, owner = MemoryContext(), Owner()
    _pass(ctx, owner, [(16, 16)])
    ctx.close()
    pool, allocated = ctx.arena.pool_bytes, ctx.bytes_allocated
    assert pool == aligned(16 * 16 * 8)
    ctx.close()  # closing again changes nothing
    _pass(ctx, owner, [(16, 16)])  # served from the warm slab
    assert ctx.arena.pool_bytes == pool
    assert ctx.bytes_allocated == allocated


def test_memory_context_scratch_release_roundtrip():
    # A call-scoped buffer freed mid-pass hands its bytes to the next one.
    ctx, owner = MemoryContext(), Owner()
    ctx.begin((32,), np.float64, True)
    keep = ctx.request(owner, "x", (32,), np.float64)
    ctx.request(owner, "t", (32,), np.float64)  # scratch: dropped at once
    ctx.request(owner, "u", (32,), np.float64)
    del keep
    ctx.close()
    (plan,) = ctx.plans.values()
    assert plan.offsets[2] == plan.offsets[1] != plan.offsets[0]
    assert plan.pool_bytes == plan.peak_bytes == 2 * aligned(32 * 8)


def test_mode_switch_opens_its_own_pass():
    # The training flag is part of a plan's key: each mode records and
    # replays its own plan.
    ctx = MemoryContext()
    train, infer = Owner(training=True), Owner(training=False)
    _pass(ctx, train, [(4,), (4,)])
    ctx.close()
    _pass(ctx, infer, [(4,)])
    ctx.close()
    _pass(ctx, train, [(4,), (4,)])
    assert sorted(k[2] for k in ctx.plans) == [False, True]


def test_root_forward_starts_each_pass():
    # Passes are keyed by the bound root's input, whatever its first layer
    # requests in each mode (a Dropout-first model requests nothing in
    # inference); a layer below the root never starts one.
    rng = np.random.default_rng(0)
    model = Sequential(Dropout(0.5, rng=rng), Dense(3, 2, rng=rng))
    ctx = MemoryContext()
    model.bind_memory(ctx)
    assert ctx.root is model
    x, g = np.ones((4, 3)), np.ones((4, 2))
    model.forward(x)
    model.backward(g)
    model.eval().forward(x)
    model.train().forward(x)
    model.backward(g)
    assert sorted(ctx.plans) == [((4, 3), "<f8", False), ((4, 3), "<f8", True)]
    ctx.close()
    with pytest.raises(RuntimeError, match="outside a pass"):
        model.layers[1].forward(x)
    model.unbind_memory()
    assert ctx.root is None


_INTERVALS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 12), st.integers(0, 64)),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_INTERVALS)
def test_pack_never_overlaps_live_buffers(spec):
    """The packer on random lifetimes: no two buffers live together share a
    byte, offsets are aligned, and the slab holds the live peak."""
    starts = [s for s, _, _ in spec]
    ends = [s + d for s, d, _ in spec]
    sizes = [aligned(b * 8) for _, _, b in spec]
    offsets, extent = pack(sizes, starts, ends)
    assert all(o % ALIGN == 0 for o in offsets)
    assert extent == max((o + s for o, s in zip(offsets, sizes)), default=0)
    for i in range(len(spec)):
        for j in range(i):
            if starts[i] < ends[j] and starts[j] < ends[i] and sizes[i] and sizes[j]:
                assert (offsets[i] + sizes[i] <= offsets[j]
                        or offsets[j] + sizes[j] <= offsets[i]), (i, j)
    live = max((sum(s for s, a, b in zip(sizes, starts, ends) if a <= t < b)
                for t in range(max(ends, default=0))), default=0)
    assert extent >= live
