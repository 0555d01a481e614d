"""Arena and MemoryContext accounting invariants (see repro.nn.memory).

The planner's zero-allocation guarantee rests on the arena's bookkeeping
being exact: every counter here is asserted as an integer equality, and the
error paths (double release, foreign arrays) must fail loudly — a silently
mis-tracked buffer would turn "zero steady-state allocations" into a lie.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.memory import (
    MIN_BUCKET_BYTES,
    Arena,
    MemoryContext,
    bucket_nbytes,
)


def test_bucket_nbytes_rounds_to_powers_of_two():
    assert bucket_nbytes(0) == MIN_BUCKET_BYTES
    assert bucket_nbytes(1) == MIN_BUCKET_BYTES
    assert bucket_nbytes(MIN_BUCKET_BYTES) == MIN_BUCKET_BYTES
    assert bucket_nbytes(MIN_BUCKET_BYTES + 1) == 2 * MIN_BUCKET_BYTES
    assert bucket_nbytes(1000) == 1024
    assert bucket_nbytes(1024) == 1024
    assert bucket_nbytes(1025) == 2048


def test_acquire_shape_dtype_and_accounting():
    arena = Arena()
    a = arena.acquire((3, 5), np.float64)
    assert a.shape == (3, 5) and a.dtype == np.float64
    bucket = bucket_nbytes(3 * 5 * 8)
    s = arena.stats()
    assert s["allocations"] == 1
    assert s["bytes_allocated"] == bucket
    assert s["pool_bytes"] == bucket
    assert s["in_use_bytes"] == bucket
    assert s["peak_bytes"] == bucket


def test_release_and_reacquire_reuses_buffer():
    arena = Arena()
    a = arena.acquire((16, 16))
    arena.release(a)
    assert arena.in_use_bytes == 0
    b = arena.acquire((16, 16))
    # same bucket, same view object: no fresh allocation, coloring preserved
    assert b is a
    s = arena.stats()
    assert s["allocations"] == 1
    assert s["bytes_allocated"] == bucket_nbytes(16 * 16 * 8)
    assert s["acquires"] == 2 and s["releases"] == 1


def test_one_bucket_serves_many_shapes():
    # (8, 8) f64 and (64,) f64 round to the same bucket; after a release the
    # second shape must come from the freelist, not a fresh allocation.
    arena = Arena()
    a = arena.acquire((8, 8))
    arena.release(a)
    b = arena.acquire((64,))
    assert b.shape == (64,)
    assert arena.allocations == 1
    assert arena.bytes_allocated == bucket_nbytes(64 * 8)


def test_peak_tracks_high_water_not_current():
    arena = Arena()
    bucket = bucket_nbytes(32 * 8)
    a = arena.acquire((32,))
    b = arena.acquire((32,))
    assert arena.peak_bytes == 2 * bucket
    arena.release(a)
    arena.release(b)
    assert arena.in_use_bytes == 0
    assert arena.peak_bytes == 2 * bucket  # high-water mark stays
    arena.acquire((32,))
    assert arena.peak_bytes == 2 * bucket  # reuse does not move it


def test_distinct_dtypes_use_distinct_freelists():
    arena = Arena()
    a = arena.acquire((64,), np.float64)
    arena.release(a)
    b = arena.acquire((512,), np.bool_)  # same 512-byte bucket, other dtype
    assert b.dtype == np.bool_
    assert arena.allocations == 2


def test_double_release_raises():
    arena = Arena()
    a = arena.acquire((4, 4))
    arena.release(a)
    with pytest.raises(ValueError, match="double release"):
        arena.release(a)


def test_release_of_foreign_array_raises():
    arena = Arena()
    arena.acquire((4, 4))
    with pytest.raises(ValueError, match="not acquired"):
        arena.release(np.zeros((4, 4)))


def test_release_accepts_reshaped_handle():
    # Callers may hand back a reshape of the acquired view; release resolves
    # it through the base chain to the owning flat buffer.
    arena = Arena()
    a = arena.acquire((4, 8))
    arena.release(a.reshape(8, 4))
    assert arena.in_use_bytes == 0
    assert arena.releases == 1


def test_zero_size_acquire_bypasses_arena():
    arena = Arena()
    a = arena.acquire((0, 7))
    assert a.shape == (0, 7)
    assert arena.stats()["acquires"] == 0 or arena.stats()["allocations"] == 0


def test_memory_context_slots_are_persistent():
    ctx = MemoryContext()
    owner = object()
    a = ctx.slot(owner, "y", (8, 8))
    b = ctx.slot(owner, "y", (8, 8))
    assert b is a  # same (owner, tag, shape, dtype) -> same buffer
    c = ctx.slot(owner, "dx", (8, 8))
    assert c is not a  # distinct tag -> distinct slot
    assert ctx.arena.acquires == 2


def test_memory_context_close_releases_but_keeps_pool_warm():
    ctx = MemoryContext()
    ctx.slot(object(), "y", (16, 16))
    pool = ctx.arena.pool_bytes
    assert ctx.arena.in_use_bytes == pool
    ctx.close()
    assert ctx.arena.in_use_bytes == 0
    assert ctx.arena.pool_bytes == pool  # buffers return to the freelist
    # a fresh slot after close must be served from the warm pool
    ctx.slot(object(), "y", (16, 16))
    assert ctx.arena.allocations == 1


def test_memory_context_scratch_release_roundtrip():
    ctx = MemoryContext()
    buf = ctx.scratch((32,))
    assert ctx.arena.in_use_bytes == bucket_nbytes(32 * 8)
    ctx.release(buf)
    assert ctx.arena.in_use_bytes == 0
    assert ctx.bytes_allocated == bucket_nbytes(32 * 8)


def _root(arr):
    while arr.base is not None:
        arr = arr.base
    return arr


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["acquire", "release", "double_release"]),
        st.lists(st.integers(0, 12), min_size=1, max_size=3).map(tuple),
        st.sampled_from([np.float64, np.bool_]),
        st.integers(0, 1 << 16),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_arena_accounting_under_random_acquire_release(ops):
    """A bookkeeping model of the arena, checked after every operation."""
    arena = Arena()
    live = []  # (handle, freelist key, bucket bytes); zero-size handles have key None
    released = []  # handles whose buffer went back to the freelist
    free = {}  # freelist key -> number of free buffers
    max_in_use = 0
    for kind, shape, dtype, pick in ops:
        if kind == "acquire" or not live and kind == "release":
            n = int(np.prod(shape))
            key = bucket = None
            if n:
                bucket = bucket_nbytes(n * np.dtype(dtype).itemsize)
                key = (np.dtype(dtype), bucket)
            before = arena.bytes_allocated
            arr = arena.acquire(shape, dtype)
            assert arr.shape == shape and arr.dtype == dtype
            if key is not None and free.get(key):
                # a released buffer of this bucket is reused: no allocation
                assert arena.bytes_allocated == before
                free[key] -= 1
            elif key is not None:
                assert arena.bytes_allocated == before + bucket
            else:
                assert arena.bytes_allocated == before  # zero-size: not pooled
            live.append((arr, key, bucket or 0))
        elif kind == "release":
            arr, key, _ = live.pop(pick % len(live))
            arena.release(arr)
            if key is not None:
                free[key] = free.get(key, 0) + 1
                released.append(arr)
        else:
            live_roots = {id(_root(a)) for a, key, _ in live if key is not None}
            stale = [a for a in released if id(_root(a)) not in live_roots]
            if stale:
                state = arena.stats()
                with pytest.raises(ValueError, match="double release"):
                    arena.release(stale[pick % len(stale)])
                assert arena.stats() == state
        in_use = sum(bucket for _, _, bucket in live)
        assert arena.in_use_bytes == in_use
        max_in_use = max(max_in_use, in_use)
        assert arena.peak_bytes == max_in_use
        assert arena.pool_bytes == arena.bytes_allocated
        assert arena.pool_bytes == in_use + sum(k[1] * c for k, c in free.items())
