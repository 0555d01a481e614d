"""Core slots: at most one running rank thread per usable core.

A rank holds a slot from the start of its worker to its end, and hands it
on only while blocked in a fabric receive.  Nothing but the wall-clock
schedule may depend on the slot count, a halt or a death must unwind every
peer even while the only slot holder is stuck in compute, and a fabric
driven without ``run_cluster`` never takes a slot.
"""

import threading
import time

import numpy as np
import pytest

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.comm import (
    ClusterHalted,
    FabricTimeout,
    NetworkProfile,
    PeerDeadError,
    SimulatedFabric,
    run_cluster,
)
from repro.comm import fabric as fabric_mod
from repro.core import SGD, ConstantLR
from repro.faults import FaultPlan
from repro.nn.models import mlp


def _spin(seconds: float) -> None:
    """Compute that never blocks: holds its slot the whole time."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_at_most_cores_ranks_run_between_receives(monkeypatch, cores):
    monkeypatch.setattr(fabric_mod, "_CORES", cores)
    lock = threading.Lock()
    running = [0]
    peak = [0]

    def worker(c):
        right, left = (c.rank + 1) % c.size, (c.rank - 1) % c.size
        for step in range(6):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            # stay busy until as many ranks run as there are slots (or
            # 20 ms pass), so more than that would show up in the peak
            deadline = time.perf_counter() + 0.02
            while running[0] < cores and time.perf_counter() < deadline:
                pass
            _spin(0.001)
            with lock:
                running[0] -= 1
            c.send(right, step, tag=step)
            assert c.recv(left, tag=step) == step

    run_cluster(8, worker)
    assert peak[0] == cores


_RNG = np.random.default_rng(5)
_CENTRES = _RNG.normal(size=(3, 6)) * 2.0
_Y = _RNG.integers(0, 3, size=128)
_X = _CENTRES[_Y] + _RNG.normal(size=(128, 6)) * 0.5


def _sync_bn_run(monkeypatch, cores):
    """8 ranks whose SyncBatchNorm blocks inside forward and backward, over
    a lossy link with a straggler, so arrival times shape the clocks."""
    monkeypatch.setattr(fabric_mod, "_CORES", cores)
    config = SyncSGDConfig(
        world=8, epochs=2, batch_size=32, shuffle_seed=3,
        profile=NetworkProfile(2e-6, 1e-9), compute_time=lambda n: 1e-4 * n,
        fault_plan=FaultPlan(seed=3, drop_prob=0.05, stragglers={2: 1.5}),
    )
    return train_sync_sgd(
        lambda: mlp(6, [8], 3, batch_norm="sync", seed=7),
        lambda params: SGD(params, momentum=0.9), ConstantLR(0.1),
        _X, _Y, _X[:32], _Y[:32], config,
    )


def test_sync_batchnorm_is_bitwise_the_same_on_one_and_two_slots(monkeypatch):
    runs = [_sync_bn_run(monkeypatch, cores) for cores in (1, 2, 64)]
    first = runs[0]
    assert first.messages > 0 and first.simulated_seconds > 0
    assert first.fault_stats.retransmits > 0
    for other in runs[1:]:
        assert other.messages == first.messages
        assert other.comm_bytes == first.comm_bytes
        assert other.simulated_seconds == first.simulated_seconds
        for key, value in first.final_state.items():
            np.testing.assert_array_equal(other.final_state[key], value)


def test_deadlock_raises_at_once_while_ranks_wait_for_a_slot(monkeypatch):
    """On one slot, ranks 2 and 3 queue for it while 0 and 1 block on each
    other; once they have run and returned, the deadlock is reported."""
    monkeypatch.setattr(fabric_mod, "_CORES", 1)

    def worker(c):
        if c.rank < 2:
            c.recv(1 - c.rank, tag=3)
        else:
            _spin(0.01)

    start = time.monotonic()
    with pytest.raises(FabricTimeout) as exc_info:
        run_cluster(4, worker)
    assert time.monotonic() - start < 1.0
    assert exc_info.value.waits == {0: (1, 3), 1: (0, 3)}


def _stuck_holder_world(monkeypatch, on_stuck):
    """Three ranks on one slot: the first to run spins in compute until
    both peers have left their receive from it (or 5 s pass), and
    ``on_stuck(fabric, rank)`` runs meanwhile on another thread.  Returns
    the stuck rank and, per peer, its error and whether the holder was
    still stuck when it left."""
    monkeypatch.setattr(fabric_mod, "_CORES", 1)
    release = threading.Event()
    entered = threading.Event()
    stuck = {}
    seen = {}

    def worker(c):
        if not stuck:  # one slot: no peer runs before this returns
            stuck.update(rank=c.rank, fabric=c.fabric)
            entered.set()
            while not release.is_set():
                _spin(0.001)
            return None
        try:
            return c.recv(stuck["rank"])
        except (ClusterHalted, PeerDeadError) as exc:
            seen[c.rank] = (exc, not release.is_set())
            return None

    def watcher():
        entered.wait(5.0)
        on_stuck(stuck["fabric"], stuck["rank"])
        deadline = time.monotonic() + 5.0
        while len(seen) < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()

    thread = threading.Thread(target=watcher)
    thread.start()
    try:
        run_cluster(3, worker, timeout=10.0)
    finally:
        release.set()
        thread.join()
    return stuck["rank"], seen


@pytest.mark.parametrize("how", ["halt", "mark_dead"])
def test_halt_and_death_unwind_peers_of_the_stuck_slot_holder(monkeypatch, how):
    def on_stuck(fabric, rank):
        if how == "halt":
            fabric.halt("abort")
        else:
            fabric.mark_dead(rank)

    rank, seen = _stuck_holder_world(monkeypatch, on_stuck)
    expected = ClusterHalted if how == "halt" else PeerDeadError
    assert sorted(seen) == sorted({0, 1, 2} - {rank})
    for exc, while_stuck in seen.values():
        assert isinstance(exc, expected)
        assert while_stuck


def test_a_failed_receive_does_not_wait_for_a_slot(monkeypatch):
    """Rank 0 blocks on rank 2 and hands the one slot to rank 1, which then
    spins in compute.  Rank 2's death must end rank 0's receive at once,
    not once rank 1 gives the slot back."""
    monkeypatch.setattr(fabric_mod, "_CORES", 1)
    fabric = SimulatedFabric(3)
    fabric.mark_running(range(3))
    release = threading.Event()
    seen = []

    def rank0():
        fabric.slots.take(0, 0.0)
        try:
            fabric.recv(0, 2)
        except PeerDeadError:
            seen.append(not release.is_set())

    def rank1():
        fabric.slots.take(1, 0.0)
        while not release.is_set():
            _spin(0.001)
        fabric.slots.give(1)

    threads = [threading.Thread(target=rank0)]
    threads[0].start()
    while 0 not in fabric._waits:  # rank 0 is blocked and has no slot
        time.sleep(0.001)
    threads.append(threading.Thread(target=rank1))
    threads[1].start()
    fabric.mark_dead(2)
    threads[0].join(5.0)
    release.set()
    for t in threads:
        t.join(5.0)
    assert seen == [True]


def test_fabric_without_run_cluster_never_takes_a_slot(monkeypatch):
    """Plain threads drive a one-slot fabric: a blocked receive and a busy
    sender run side by side, and the slots stay untouched."""
    monkeypatch.setattr(fabric_mod, "_CORES", 1)
    taken = []
    take = fabric_mod.CoreSlots.take
    monkeypatch.setattr(
        fabric_mod.CoreSlots, "take",
        lambda self, rank, clock: (taken.append(rank), take(self, rank, clock)),
    )
    fabric = SimulatedFabric(2)
    fabric.mark_running([0, 1])  # rank 0 may still send: the wait is no deadlock
    got = []
    receiver = threading.Thread(target=lambda: got.append(fabric.recv(1, 0)))
    receiver.start()
    _spin(0.01)
    fabric.send(0, 1, np.arange(3.0))
    receiver.join(5.0)
    np.testing.assert_array_equal(got[0], np.arange(3.0))
    assert taken == []
    assert fabric.slots._free == 1 and not fabric.slots._held
