"""Nonblocking primitive layer: request handles and progress-driven iallreduce.

The contracts under test are the MPI ones the overlap machinery relies on:
``test`` never blocks, ``wait`` returns the payload exactly once, requests
complete in any order as long as every rank *launches* collectives in the
same program order, and the simulated cost of a nonblocking collective
matches the analytic α-β critical path of its blocking twin.
"""

import numpy as np
import pytest

from repro.comm import FabricTimeout, NetworkProfile, SimulatedFabric, run_cluster
from repro.comm.collectives import allreduce_cost
from repro.comm.communicator import Communicator
from repro.faults import FaultInjector, FaultPlan

_PROFILE = NetworkProfile(alpha=1e-5, beta=1e-8)


def _rank_data(rank: int, n: int = 256) -> np.ndarray:
    return np.random.default_rng(rank).normal(size=n)


def _expected_sum(world: int, n: int = 256) -> np.ndarray:
    return sum(_rank_data(r, n) for r in range(world))


class TestRequestContracts:
    def test_isend_request_immediately_done(self):
        f = SimulatedFabric(2)
        req = Communicator(f, 0).isend(1, np.zeros(4))
        assert req.done
        assert req.test()
        req.wait()  # idempotent no-op

    def test_irecv_test_polls_without_blocking(self):
        f = SimulatedFabric(2)
        c0, c1 = Communicator(f, 0), Communicator(f, 1)
        req = c1.irecv(0, tag=3)
        assert not req.test()  # nothing posted yet, returns immediately
        assert not req.done
        c0.isend(1, np.arange(5.0), tag=3)
        assert req.test()
        assert np.array_equal(req.payload, np.arange(5.0))

    def test_irecv_wait_returns_payload_and_merges_clock(self):
        f = SimulatedFabric(2, _PROFILE)
        c0, c1 = Communicator(f, 0), Communicator(f, 1)
        c0.isend(1, np.zeros(100))
        got = c1.irecv(0).wait()
        assert got.shape == (100,)
        # the receiver's clock absorbed the α-β arrival time
        assert f.time_of(1) == pytest.approx(_PROFILE.transfer_time(800))

    def test_irecv_wait_timeout(self):
        f = SimulatedFabric(2)
        req = Communicator(f, 1).irecv(0)
        with pytest.raises(FabricTimeout):
            req.wait()


class TestIallreduce:
    @pytest.mark.parametrize("algorithm", ["tree", "ring", "rhd"])
    def test_values_match_blocking(self, algorithm):
        def worker(comm):
            return comm.iallreduce(_rank_data(comm.rank),
                                   algorithm=algorithm).wait()

        results, _ = run_cluster(4, worker)
        expected = _expected_sum(4)
        for got in results:
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("algorithm", ["tree", "ring", "rhd"])
    def test_simulated_cost_matches_analytic(self, algorithm):
        """With zero compute, the makespan of one iallreduce is exactly the
        α-β critical path of the blocking collective."""
        n = 4096

        def worker(comm):
            comm.iallreduce(_rank_data(comm.rank, n), algorithm=algorithm).wait()

        _, fabric = run_cluster(8, worker, profile=_PROFILE)
        expected = allreduce_cost(8, n * 8, _PROFILE, algorithm=algorithm)
        assert fabric.makespan == pytest.approx(expected, rel=1e-12)

    def test_out_of_order_completion(self):
        """A later-launched small collective may be waited before an earlier
        big one — completion order is free, launch order is the contract."""
        def worker(comm):
            big = comm.iallreduce(_rank_data(comm.rank, 65536))
            small = comm.iallreduce(_rank_data(comm.rank + 100, 16))
            s = small.wait()
            b = big.wait()
            return s, b

        results, _ = run_cluster(4, worker)
        exp_small = sum(_rank_data(r + 100, 16) for r in range(4))
        exp_big = _expected_sum(4, 65536)
        for s, b in results:
            np.testing.assert_allclose(s, exp_small, rtol=1e-12)
            np.testing.assert_allclose(b, exp_big, rtol=1e-12)

    def test_multiple_in_flight(self):
        def worker(comm):
            reqs = [comm.iallreduce(_rank_data(comm.rank * 10 + i, 64))
                    for i in range(4)]
            return [r.wait() for r in reqs]

        results, _ = run_cluster(4, worker)
        for i in range(4):
            expected = sum(_rank_data(r * 10 + i, 64) for r in range(4))
            for got in results:
                np.testing.assert_allclose(got[i], expected, rtol=1e-12)

    def test_overlap_hides_comm_under_compute(self):
        """iallreduce → compute → wait costs max(compute, comm), not the sum."""
        n = 4096
        cost = allreduce_cost(4, n * 8, _PROFILE, algorithm="tree")
        budget = 10 * cost

        def worker(comm):
            req = comm.iallreduce(_rank_data(comm.rank, n))
            comm.compute(budget)
            req.wait()
            return comm.time

        results, fabric = run_cluster(4, worker, profile=_PROFILE)
        assert fabric.makespan == pytest.approx(budget, rel=1e-9)
        assert all(t == pytest.approx(budget, rel=1e-9) for t in results)

    def test_ring_copy_false_reduces_in_place(self):
        def worker(comm):
            buf = _rank_data(comm.rank)
            req = comm.iallreduce(buf, algorithm="ring", copy=False)
            out = req.wait()
            return np.array_equal(out, buf)

        results, _ = run_cluster(4, worker)
        assert all(results)

    def test_world_one_short_circuit(self):
        def worker(comm):
            return comm.iallreduce(np.arange(8.0)).wait()

        results, _ = run_cluster(1, worker)
        np.testing.assert_array_equal(results[0], np.arange(8.0))

    def test_rhd_requires_power_of_two(self):
        def worker(comm):
            comm.iallreduce(np.zeros(8), algorithm="rhd").wait()

        with pytest.raises(ValueError):
            run_cluster(3, worker)

    def test_unknown_algorithm_rejected(self):
        def worker(comm):
            comm.iallreduce(np.zeros(8), algorithm="butterfly")

        with pytest.raises(ValueError):
            run_cluster(2, worker)


class TestFaultsOnInFlight:
    def test_message_loss_on_in_flight_collective(self):
        """The injector prices retransmits into each posted message of an
        in-flight iallreduce: values bitwise-identical to the fault-free
        run, time strictly larger, every loss accounted."""
        def worker(comm):
            return comm.iallreduce(_rank_data(comm.rank)).wait()

        clean, clean_fabric = run_cluster(4, worker, profile=_PROFILE)
        injector = FaultInjector(FaultPlan(seed=3, drop_prob=0.4))
        lossy, lossy_fabric = run_cluster(4, worker, profile=_PROFILE,
                                          injector=injector)
        for a, b in zip(clean, lossy):
            np.testing.assert_array_equal(a, b)
        assert injector.stats.messages_dropped > 0
        assert lossy_fabric.makespan > clean_fabric.makespan
