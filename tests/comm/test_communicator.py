"""Communicator / run_cluster harness behaviour."""

import threading
import time

import numpy as np
import pytest

from repro.comm import (
    ClusterHalted,
    Communicator,
    FabricTimeout,
    NetworkProfile,
    SimulatedFabric,
    run_cluster,
)


def test_rank_and_size_exposed():
    def worker(c):
        return (c.rank, c.size)

    results, _ = run_cluster(3, worker)
    assert results == [(0, 3), (1, 3), (2, 3)]


def test_worker_exception_propagates():
    def worker(c):
        if c.rank == 1:
            raise RuntimeError("boom on rank 1")
        return c.rank

    with pytest.raises(RuntimeError, match="boom on rank 1"):
        run_cluster(2, worker)


def test_compute_advances_only_local_clock():
    def worker(c):
        if c.rank == 0:
            c.compute(5.0)
        return c.time

    results, fabric = run_cluster(2, worker)
    assert results[0] == pytest.approx(5.0)
    assert results[1] == pytest.approx(0.0)
    assert fabric.makespan == pytest.approx(5.0)


def test_point_to_point_ping_pong():
    def worker(c):
        if c.rank == 0:
            c.send(1, np.array([3.14]))
            return c.recv(1)[0]
        val = c.recv(0)[0]
        c.send(0, np.array([val * 2]))
        return val

    results, _ = run_cluster(2, worker)
    assert results == [pytest.approx(6.28), pytest.approx(3.14)]


def test_compute_time_included_in_critical_path():
    """recv waits for the sender's compute+transfer time."""
    prof = NetworkProfile(alpha=1.0, beta=0.0)

    def worker(c):
        if c.rank == 0:
            c.compute(10.0)
            c.send(1, np.zeros(1))
        else:
            c.recv(0)
        return c.time

    results, _ = run_cluster(2, worker, profile=prof)
    assert results[1] == pytest.approx(11.0)


def test_invalid_rank_construction():
    fabric = SimulatedFabric(2)
    with pytest.raises(ValueError):
        Communicator(fabric, 5)


def test_single_rank_cluster_trivial_collectives():
    def worker(c):
        a = c.allreduce(np.array([7.0]))
        b = c.bcast(np.array([1.0]))
        c.barrier()
        g = c.gather("x")
        return (a[0], b[0], g)

    results, fabric = run_cluster(1, worker)
    assert results[0] == (7.0, 1.0, ["x"])
    assert fabric.stats.messages == 0


def test_bcast_object_payloads():
    """Lowercase mpi4py-style semantics: arbitrary Python objects travel."""

    def worker(c):
        return c.bcast({"lr": 0.02, "epochs": 100} if c.rank == 0 else None)

    results, _ = run_cluster(3, worker)
    assert all(r == {"lr": 0.02, "epochs": 100} for r in results)


def test_timeout_on_hung_rank():
    def worker(c):
        if c.rank == 0:
            c.recv(1)  # never sent
        return None

    with pytest.raises((TimeoutError,)):
        # rank 1 returns, so rank 0's wait is a deadlock: FabricTimeout
        run_cluster(2, worker, timeout=0.2)


def test_watchdog_halts_peers_of_a_rank_stuck_in_compute():
    """``run_cluster(timeout=)`` is the one wall-clock bound: one deadline
    for every join, a halt that unwinds the peers, and every unfinished
    rank named."""
    release = threading.Event()
    exited = {1: threading.Event(), 2: threading.Event()}
    outcomes = {}

    def worker(c):
        if c.rank == 0:
            while not release.wait(0.01):  # busy in compute, never blocks
                pass
            return None
        try:
            return c.recv(0)
        except BaseException as exc:
            outcomes[c.rank] = exc
            raise
        finally:
            exited[c.rank].set()

    start = time.monotonic()
    try:
        with pytest.raises(TimeoutError, match="rank-0") as exc_info:
            run_cluster(3, worker, timeout=0.2)
        assert time.monotonic() - start < 1.0
        assert not isinstance(exc_info.value, FabricTimeout)
        for rank in (1, 2):
            assert exited[rank].wait(1.0)
            assert isinstance(outcomes[rank], ClusterHalted)
    finally:
        release.set()
