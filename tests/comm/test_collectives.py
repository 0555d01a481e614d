"""Collective-algorithm correctness across rank counts and algorithms.

The key invariant (DESIGN.md §5.2): every allreduce algorithm returns exactly
the arithmetic sum on every rank, bit-identical across ranks.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import NetworkProfile, run_cluster
from repro.comm.collectives import (
    allreduce_cost,
    allreduce_message_count,
    bcast_cost,
)


def rank_array(rank: int, n: int = 12) -> np.ndarray:
    """Deterministic distinct contribution per rank."""
    rng = np.random.default_rng(1000 + rank)
    return rng.normal(size=n)


def expected_sum(size: int, n: int = 12) -> np.ndarray:
    return np.sum([rank_array(r, n) for r in range(size)], axis=0)


ALGOS_ANY_P = ["tree", "ring"]
SIZES = [1, 2, 3, 4, 5, 7, 8]
POW2_SIZES = [1, 2, 4, 8]


class TestAllreduce:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("algorithm", ALGOS_ANY_P)
    def test_sum_correct_all_sizes(self, size, algorithm):
        results, _ = run_cluster(
            size, lambda c: c.allreduce(rank_array(c.rank), algorithm=algorithm)
        )
        ref = expected_sum(size)
        for r in results:
            assert np.allclose(r, ref, atol=1e-12)

    @pytest.mark.parametrize("size", POW2_SIZES)
    def test_rhd_sum_correct(self, size):
        results, _ = run_cluster(
            size, lambda c: c.allreduce(rank_array(c.rank), algorithm="rhd")
        )
        ref = expected_sum(size)
        for r in results:
            assert np.allclose(r, ref, atol=1e-12)

    def test_rhd_requires_power_of_two(self):
        with pytest.raises(ValueError):
            run_cluster(3, lambda c: c.allreduce(rank_array(c.rank), algorithm="rhd"))

    @pytest.mark.parametrize("algorithm", ["tree", "ring", "rhd"])
    def test_bitwise_identical_across_ranks(self, algorithm):
        """Sequential consistency needs replicas to agree exactly, not
        approximately."""
        results, _ = run_cluster(
            4, lambda c: c.allreduce(rank_array(c.rank, 37), algorithm=algorithm)
        )
        for r in results[1:]:
            assert np.array_equal(r, results[0])

    def test_preserves_shape(self):
        results, _ = run_cluster(
            4, lambda c: c.allreduce(rank_array(c.rank, 24).reshape(2, 3, 4), algorithm="ring")
        )
        assert results[0].shape == (2, 3, 4)

    def test_ring_array_smaller_than_ranks(self):
        """np.array_split handles n < P (some chunks empty)."""
        results, _ = run_cluster(
            5, lambda c: c.allreduce(np.array([float(c.rank)]), algorithm="ring")
        )
        assert all(np.allclose(r, 10.0) for r in results)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_cluster(2, lambda c: c.allreduce(np.zeros(2), algorithm="nccl"))

    @given(size=st.integers(1, 6), n=st.integers(1, 50))
    @settings(max_examples=15, deadline=None)
    def test_tree_allreduce_property(self, size, n):
        results, _ = run_cluster(
            size, lambda c: c.allreduce(rank_array(c.rank, n), algorithm="tree")
        )
        assert np.allclose(results[0], expected_sum(size, n), atol=1e-10)


class TestOtherCollectives:
    @pytest.mark.parametrize("size", SIZES)
    def test_bcast_from_root0(self, size):
        payload = np.arange(5.0)

        def worker(c):
            return c.bcast(payload if c.rank == 0 else None, root=0)

        results, _ = run_cluster(size, worker)
        for r in results:
            assert np.array_equal(r, payload)

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_bcast_nonzero_root(self, root):
        def worker(c):
            return c.bcast("hello" if c.rank == root else None, root=root)

        results, _ = run_cluster(3, worker)
        assert results == ["hello"] * 3

    @pytest.mark.parametrize("size", SIZES)
    def test_reduce_to_root(self, size):
        def worker(c):
            return c.reduce(rank_array(c.rank), root=0)

        results, _ = run_cluster(size, worker)
        assert np.allclose(results[0], expected_sum(size), atol=1e-12)
        assert all(r is None for r in results[1:])

    def test_reduce_nonzero_root(self):
        def worker(c):
            return c.reduce(np.array([1.0]), root=2)

        results, _ = run_cluster(4, worker)
        assert results[2][0] == pytest.approx(4.0)
        assert results[0] is None

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_allgather_order(self, size):
        results, _ = run_cluster(size, lambda c: c.allgather(np.array([float(c.rank)])))
        for r in results:
            assert [chunk[0] for chunk in r] == list(range(size))

    def test_gather_at_root(self):
        results, _ = run_cluster(4, lambda c: c.gather(c.rank * 10, root=1))
        assert results[1] == [0, 10, 20, 30]
        assert results[0] is None

    def test_scatter_from_root(self):
        def worker(c):
            values = [f"item{i}" for i in range(c.size)] if c.rank == 0 else None
            return c.scatter(values, root=0)

        results, _ = run_cluster(4, worker)
        assert results == [f"item{i}" for i in range(4)]

    def test_scatter_wrong_length_raises(self):
        def worker(c):
            values = [1] if c.rank == 0 else None
            return c.scatter(values, root=0)

        with pytest.raises(ValueError):
            run_cluster(2, worker)

    def test_barrier_completes(self):
        def worker(c):
            c.barrier()
            return c.rank

        results, _ = run_cluster(5, worker)
        assert results == list(range(5))

    def test_back_to_back_collectives_do_not_cross_match(self):
        """Successive allreduces use disjoint tag namespaces."""

        def worker(c):
            a = c.allreduce(np.array([1.0]), algorithm="ring")
            b = c.allreduce(np.array([10.0]), algorithm="ring")
            return (a[0], b[0])

        results, _ = run_cluster(4, worker)
        assert all(r == (4.0, 40.0) for r in results)


class TestFailFast:
    @pytest.mark.parametrize("raiser", [0, 1])
    def test_raising_rank_unwinds_blocked_peer(self, raiser):
        """A rank that raises halts the fabric: its peer, blocked in recv,
        unwinds at once, and the original error surfaces rather than the
        peer's ClusterHalted."""

        def worker(c):
            if c.rank == raiser:
                time.sleep(0.2)  # let the peer block in recv first
                raise KeyError("boom")
            return c.recv(raiser, tag=5)

        start = time.perf_counter()
        with pytest.raises(KeyError, match="boom"):
            run_cluster(2, worker)
        assert time.perf_counter() - start < 5.0


class TestTiming:
    """Simulated fabric time equals the analytic α-β critical path."""

    @pytest.mark.parametrize("size", [2, 4, 8])
    @pytest.mark.parametrize("algorithm", ["tree", "ring", "rhd"])
    def test_allreduce_time_matches_model(self, algorithm, size):
        prof = NetworkProfile(alpha=1e-3, beta=1e-8)
        n = 1000

        def worker(c):
            c.allreduce(np.zeros(n), algorithm=algorithm)

        _, fabric = run_cluster(size, worker, profile=prof)
        model = allreduce_cost(size, n * 8, prof, algorithm)
        assert fabric.makespan == pytest.approx(model, rel=1e-12)
        lg = size.bit_length() - 1
        total = {"tree": 2 * (size - 1), "ring": 2 * size * (size - 1),
                 "rhd": 2 * size * lg}[algorithm]
        assert fabric.stats.messages == total

    def test_ring_faster_than_tree_for_large_messages(self):
        """Bandwidth-bound regime: ring's 2n beats tree's 2·log₂P·n."""
        prof = NetworkProfile(alpha=1e-6, beta=1e-7)
        n = 20000

        def run(algorithm):
            def worker(c):
                c.allreduce(np.zeros(n), algorithm=algorithm)

            _, fabric = run_cluster(8, worker, profile=prof)
            return fabric.makespan

        assert run("ring") < run("tree")

    def test_tree_fewer_messages_than_ring(self):
        def run(algorithm):
            def worker(c):
                c.allreduce(np.zeros(100), algorithm=algorithm)

            _, fabric = run_cluster(8, worker, profile=NetworkProfile.ideal())
            return fabric.stats.messages

        assert run("tree") < run("ring")

    def test_cost_model_scaling_in_p(self):
        prof = NetworkProfile(alpha=1e-6, beta=1e-9)
        t2 = allreduce_cost(2, 1000, prof, "tree")
        t16 = allreduce_cost(16, 1000, prof, "tree")
        assert t16 == pytest.approx(4 * t2)  # log2(16)/log2(2)

    def test_cost_zero_for_single_rank(self):
        prof = NetworkProfile(1.0, 1.0)
        for algo in ["tree", "ring", "rhd"]:
            assert allreduce_cost(1, 100, prof, algo) == 0.0
            assert allreduce_message_count(1, algo) == 0

    def test_message_counts(self):
        assert allreduce_message_count(8, "tree") == 6
        assert allreduce_message_count(8, "ring") == 14
        assert allreduce_message_count(8, "rhd") == 6

    def test_bcast_cost_log_p(self):
        prof = NetworkProfile(alpha=1.0, beta=0.0)
        assert bcast_cost(8, 100, prof) == pytest.approx(3.0)

    def test_unknown_algorithm_cost_raises(self):
        with pytest.raises(ValueError):
            allreduce_cost(4, 100, NetworkProfile.ideal(), "butterfly")
