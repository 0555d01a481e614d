"""Analytic cost of the two-level (hierarchical) allreduce."""

import pytest

from repro.comm import NetworkProfile, allreduce_cost, hierarchical_cost


class TestHierarchicalCost:
    def test_asymmetric_links_beat_flat_slow_network(self):
        """With fast intra-node links, two-level beats a flat ring on the
        slow fabric once nodes hold several ranks."""
        fast = NetworkProfile(alpha=1e-7, beta=1e-12, name="shm")
        slow = NetworkProfile(alpha=7.2e-6, beta=0.9e-9, name="10gbe")
        nbytes = 100 * 2**20
        flat = allreduce_cost(64, nbytes, slow, "tree")
        two_level = hierarchical_cost(64, nbytes, 8, fast, slow, "tree")
        assert two_level < flat

    def test_single_rank_free(self):
        prof = NetworkProfile(1.0, 1.0)
        assert hierarchical_cost(1, 100, 4, prof, prof) == 0.0

    def test_reduces_inter_node_hops(self):
        """Inter phase sees P/node_size participants."""
        prof = NetworkProfile(alpha=1.0, beta=0.0)
        free = NetworkProfile.ideal()
        # intra free, inter alpha-only: cost = allreduce over 8 leaders
        cost = hierarchical_cost(64, 8, 8, free, prof, "tree")
        assert cost == pytest.approx(allreduce_cost(8, 8, prof, "tree"))
