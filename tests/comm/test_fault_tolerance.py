"""Transport-level fault tolerance: typed deadlock errors, death
notification, halt, and fault pricing on the fabric."""

import time

import numpy as np
import pytest

from repro.comm import (
    ClusterHalted,
    Communicator,
    FabricTimeout,
    NetworkProfile,
    PeerDeadError,
    RetransmitExhausted,
    RetransmitPolicy,
    SimulatedFabric,
    run_cluster,
)
from repro.faults import FaultInjector, FaultPlan


class TestTypedTimeout:
    def test_recv_timeout_is_typed_and_carries_context(self):
        """A bare fabric has no other running rank, so a receive nothing
        can satisfy raises at once."""
        f = SimulatedFabric(2)
        start = time.monotonic()
        with pytest.raises(FabricTimeout) as exc_info:
            f.recv(1, 0, tag=7)
        assert time.monotonic() - start < 1.0
        exc = exc_info.value
        assert exc.dst == 1 and exc.src == 0 and exc.tag == 7
        assert exc.waits == {1: (0, 7)}
        assert isinstance(exc, TimeoutError)  # old except clauses still work


class TestDeathNotification:
    def test_recv_from_dead_peer_fails_fast(self):
        f = SimulatedFabric(2)
        f.mark_dead(0)
        start = time.monotonic()
        with pytest.raises(PeerDeadError):
            f.recv(1, 0)
        assert time.monotonic() - start < 5.0

    def test_mark_dead_wakes_blocked_receiver(self):
        def worker(comm):
            if comm.rank == 0:
                time.sleep(0.05)  # let rank 1 block first
                comm.fabric.mark_dead(0)
                return None
            try:
                comm.recv(0)
            except PeerDeadError as exc:
                return exc

        results, _ = run_cluster(2, worker, timeout=5.0)
        assert isinstance(results[1], PeerDeadError) and results[1].src == 0

    def test_in_flight_messages_drain_before_death_error(self):
        f = SimulatedFabric(2)
        f.send(0, 1, np.arange(3.0))
        f.mark_dead(0)
        assert np.array_equal(f.recv(1, 0), np.arange(3.0))
        with pytest.raises(PeerDeadError):
            f.recv(1, 0)

    def test_survivors_agree_on_dead_set(self):
        f = SimulatedFabric(4)
        f.mark_dead(2)
        assert f.dead_ranks == {2}  # one shared set: every survivor sees it


class TestHalt:
    def test_halt_wakes_every_blocked_receiver(self):
        def worker(comm):
            if comm.rank == 0:
                time.sleep(0.05)  # let ranks 1-3 block first
                comm.fabric.halt("test abort")
                return None
            try:
                comm.recv((comm.rank + 1) % 4)
            except ClusterHalted as exc:
                return exc

        outcomes, _ = run_cluster(4, worker, timeout=5.0)
        assert all(isinstance(o, ClusterHalted) for o in outcomes[1:])
        assert "test abort" in str(outcomes[1])

    def test_halt_beats_pending_payload(self):
        f = SimulatedFabric(2)
        f.send(0, 1, 1.0)
        f.halt()
        with pytest.raises(ClusterHalted):
            f.recv(1, 0)


class TestFaultPricing:
    PROFILE = NetworkProfile(alpha=1e-5, beta=1e-9)

    def _makespan(self, plan: FaultPlan | None) -> tuple[float, object]:
        injector = FaultInjector(plan) if plan else None
        f = SimulatedFabric(2, self.PROFILE, injector=injector)
        for i in range(300):
            f.send(0, 1, np.ones(64), tag=i)
            f.recv(1, 0, tag=i)
        return f.makespan, injector

    def test_message_loss_costs_time_not_values(self):
        clean, _ = self._makespan(None)
        lossy, injector = self._makespan(FaultPlan(seed=3, drop_prob=0.05))
        assert lossy > clean
        assert lossy - clean == pytest.approx(
            injector.stats.retransmit_seconds
        )

    def test_delay_faults_push_arrival(self):
        clean, _ = self._makespan(None)
        delayed, injector = self._makespan(
            FaultPlan(seed=3, delay_prob=0.1, delay_seconds=1e-3)
        )
        assert delayed > clean
        assert injector.stats.messages_delayed > 0

    def test_straggler_stretches_compute(self):
        inj = FaultInjector(FaultPlan(stragglers={0: 3.0}))
        f = SimulatedFabric(2, injector=inj)
        slow, fast = Communicator(f, 0), Communicator(f, 1)
        slow.compute(2.0)
        fast.compute(2.0)
        assert slow.time == pytest.approx(6.0)
        assert fast.time == pytest.approx(2.0)
        assert inj.stats.straggler_seconds == pytest.approx(4.0)

    @pytest.mark.parametrize("kind", ["send", "isend", "post_send"])
    def test_exhausted_link_names_the_message_tag(self, kind):
        inj = FaultInjector(FaultPlan(
            seed=0, drop_prob=0.999999,
            retransmit=RetransmitPolicy(max_retries=2)))
        f = SimulatedFabric(2, self.PROFILE, injector=inj)
        with pytest.raises(RetransmitExhausted) as info:
            getattr(f, kind)(0, 1, np.ones(8), tag=77)
        assert (info.value.tag, info.value.retries) == (77, 2)
        assert inj.stats.messages_dropped == 3

    def test_isend_also_pays_fault_delay(self):
        inj = FaultInjector(FaultPlan(seed=0, delay_prob=0.999999,
                                      delay_seconds=2.0))
        f = SimulatedFabric(2, self.PROFILE, injector=inj)
        f.isend(0, 1, np.ones(8))
        f.recv(1, 0)
        assert f.time_of(1) >= 2.0

    def test_collectives_survive_loss_bit_identically(self):
        from repro.comm.collectives import ALLREDUCE_ALGORITHMS

        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 37))
        expected = data.sum(axis=0)
        for name, fn in ALLREDUCE_ALGORITHMS.items():
            def worker(comm, fn=fn):
                return fn(comm, data[comm.rank].copy(), tag=1000)

            results, _ = run_cluster(
                4, worker,
                injector=FaultInjector(FaultPlan(seed=5, drop_prob=0.05)),
            )
            for out in results:
                np.testing.assert_array_equal(out, results[0])
            np.testing.assert_allclose(results[0], expected, atol=1e-12), name
