"""Logical clock and fabric timing/accounting tests."""

import numpy as np
import pytest

from repro.comm import LogicalClock, NetworkProfile, SimulatedFabric


class TestLogicalClock:
    def test_starts_at_zero(self):
        assert LogicalClock().time == 0.0

    def test_advance_accumulates(self):
        c = LogicalClock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.time == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            LogicalClock().advance(-1.0)

    def test_merge_only_moves_forward(self):
        c = LogicalClock(5.0)
        c.merge(3.0)
        assert c.time == 5.0
        c.merge(7.0)
        assert c.time == 7.0

    def test_reset(self):
        c = LogicalClock(9.0)
        c.reset()
        assert c.time == 0.0


class TestNetworkProfile:
    def test_transfer_time(self):
        p = NetworkProfile(alpha=1e-6, beta=1e-9)
        assert p.transfer_time(1000) == pytest.approx(1e-6 + 1e-6)

    def test_ideal_is_free(self):
        assert NetworkProfile.ideal().transfer_time(10**9) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NetworkProfile(-1.0, 0.0)


class TestFabric:
    def test_send_recv_roundtrip(self):
        f = SimulatedFabric(2)
        f.send(0, 1, np.arange(4.0))
        out = f.recv(1, 0)
        assert np.array_equal(out, np.arange(4.0))

    def test_payload_copied_on_send(self):
        f = SimulatedFabric(2)
        x = np.ones(3)
        f.send(0, 1, x)
        x[:] = 99.0
        assert np.array_equal(f.recv(1, 0), np.ones(3))

    def test_fifo_per_channel(self):
        f = SimulatedFabric(2)
        f.send(0, 1, np.array([1.0]))
        f.send(0, 1, np.array([2.0]))
        assert f.recv(1, 0)[0] == 1.0
        assert f.recv(1, 0)[0] == 2.0

    def test_tags_demultiplex(self):
        f = SimulatedFabric(2)
        f.send(0, 1, np.array([1.0]), tag=7)
        f.send(0, 1, np.array([2.0]), tag=3)
        assert f.recv(1, 0, tag=3)[0] == 2.0
        assert f.recv(1, 0, tag=7)[0] == 1.0

    def test_send_advances_sender_clock(self):
        prof = NetworkProfile(alpha=1.0, beta=0.0)
        f = SimulatedFabric(2, prof)
        f.send(0, 1, np.zeros(10))
        assert f.time_of(0) == pytest.approx(1.0)

    def test_recv_merges_arrival_time(self):
        prof = NetworkProfile(alpha=2.0, beta=0.0)
        f = SimulatedFabric(2, prof)
        f.send(0, 1, np.zeros(1))
        f.recv(1, 0)
        assert f.time_of(1) == pytest.approx(2.0)

    def test_bandwidth_term_scales_with_bytes(self):
        prof = NetworkProfile(alpha=0.0, beta=1.0)
        f = SimulatedFabric(2, prof)
        f.send(0, 1, np.zeros(100))  # 800 bytes float64
        assert f.time_of(0) == pytest.approx(800.0)

    def test_stats_count_messages_and_bytes(self):
        f = SimulatedFabric(3)
        f.send(0, 1, np.zeros(10))
        f.send(0, 2, np.zeros(5))
        assert f.stats.messages == 2
        assert f.stats.bytes == 15 * 8

    def test_makespan_is_max_clock(self):
        prof = NetworkProfile(alpha=1.0, beta=0.0)
        f = SimulatedFabric(3, prof)
        f.send(0, 1, np.zeros(1))
        assert f.makespan == pytest.approx(1.0)

    def test_recv_timeout(self):
        f = SimulatedFabric(2)
        with pytest.raises(TimeoutError):
            f.recv(1, 0)

    def test_self_send_rejected(self):
        f = SimulatedFabric(2)
        with pytest.raises(ValueError):
            f.send(0, 0, np.zeros(1))

    def test_rank_range_checked(self):
        f = SimulatedFabric(2)
        with pytest.raises(ValueError):
            f.send(0, 5, np.zeros(1))

    def test_reset_time_clears_clocks_and_stats(self):
        prof = NetworkProfile(alpha=1.0, beta=0.0)
        f = SimulatedFabric(2, prof)
        f.send(0, 1, np.zeros(1))
        f.reset_time()
        assert f.makespan == 0.0
        assert f.stats.messages == 0

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            SimulatedFabric(0)
