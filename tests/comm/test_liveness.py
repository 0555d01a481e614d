"""Liveness from fabric state: a receive fails only when no running rank is
left that could send it, and then at once, with the whole wait-for graph."""

import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import FabricTimeout, run_cluster

_NEVER = 99  # a tag nobody sends on


def test_two_rank_cycle_fails_at_once_naming_both_waits():
    def worker(c):
        c.recv(1 - c.rank, tag=3)

    start = time.monotonic()
    with pytest.raises(FabricTimeout) as exc_info:
        run_cluster(2, worker)
    assert time.monotonic() - start < 0.1
    exc = exc_info.value
    assert exc.waits == {0: (1, 3), 1: (0, 3)}
    assert "rank 0 <- (src=1, tag=3)" in str(exc)
    assert "rank 1 <- (src=0, tag=3)" in str(exc)


def test_wait_on_a_finished_rank_fails():
    def worker(c):
        if c.rank == 0:
            c.recv(1)
        elif c.rank == 2:
            time.sleep(0.05)  # still running: no verdict until it finishes

    with pytest.raises(FabricTimeout) as exc_info:
        run_cluster(3, worker)
    assert exc_info.value.waits == {0: (1, 0)}


def test_chain_onto_a_returned_rank_fails():
    def worker(c):
        if c.rank < 2:
            c.recv(c.rank + 1)

    with pytest.raises(FabricTimeout) as exc_info:
        run_cluster(3, worker)
    assert exc_info.value.waits == {0: (1, 0), 1: (2, 0)}


def test_slow_sender_is_not_a_deadlock():
    def worker(c):
        if c.rank == 0:
            time.sleep(0.2)
            c.send(1, np.arange(3.0))
            return None
        return c.recv(0)

    results, _ = run_cluster(2, worker)
    np.testing.assert_array_equal(results[1], np.arange(3.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verdict_names_exactly_the_stuck_receives(data):
    """Random worlds: some ranks wait on messages nobody sends, some pairs
    exchange one message after a short random sleep, the rest return."""
    world = data.draw(st.integers(1, 8), label="world")
    order = data.draw(st.permutations(range(world)), label="order")
    n_pairs = data.draw(st.integers(0, world // 2), label="pairs")
    senders = {order[2 * i + 1]: order[2 * i] for i in range(n_pairs)}
    receivers = {dst: src for src, dst in senders.items()}
    stuck = {}
    for rank in order[2 * n_pairs:]:
        if data.draw(st.booleans(), label=f"stuck{rank}"):
            stuck[rank] = (data.draw(st.integers(0, world - 1),
                                     label=f"src{rank}"), _NEVER)
    naps = {r: data.draw(st.floats(0.0, 0.003), label=f"nap{r}")
            for r in senders}

    def worker(c):
        if c.rank in stuck:
            c.recv(*stuck[c.rank])
        elif c.rank in senders:
            time.sleep(naps[c.rank])
            c.send(senders[c.rank], c.rank, tag=1)
        elif c.rank in receivers:
            assert c.recv(receivers[c.rank], tag=1) == receivers[c.rank]

    if not stuck:
        run_cluster(world, worker, timeout=30.0)
        return
    with pytest.raises(FabricTimeout) as exc_info:
        run_cluster(world, worker, timeout=30.0)
    assert exc_info.value.waits == stuck


def test_no_false_deadlock_under_fast_thread_switching():
    """More ranks than cores, a thread switch every microsecond: blocking
    and waking interleave every way, and no wait is ever judged a
    deadlock while a running rank could still satisfy it."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker(c):
            total = 0.0
            for i in range(100):
                c.send((c.rank + 1) % c.size, float(c.rank + i), tag=i)
                total += c.recv((c.rank - 1) % c.size, tag=i)
                total += c.allreduce(np.ones(3), algorithm="ring")[0]
            return total

        results, _ = run_cluster(8, worker, timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    for rank, total in enumerate(results):
        left = (rank - 1) % 8
        assert total == sum(left + i for i in range(100)) + 100 * 8.0
