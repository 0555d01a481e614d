"""Sharding and gradient-packing tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    epoch_permutation,
    flatten_grads,
    flatten_params,
    shard_batch,
    shard_sizes,
    shard_slice,
    unflatten_grads,
    unflatten_params,
)
from repro.nn import Parameter


class TestSharding:
    def test_even_split(self):
        assert shard_sizes(8, 4) == [2, 2, 2, 2]

    def test_uneven_split_front_loaded(self):
        assert shard_sizes(10, 4) == [3, 3, 2, 2]

    def test_sizes_sum_to_batch(self):
        assert sum(shard_sizes(17, 5)) == 17

    @given(batch=st.integers(0, 200), world=st.integers(1, 17))
    @settings(max_examples=50, deadline=None)
    def test_shards_partition_batch(self, batch, world):
        """Shards are disjoint, ordered, and cover every index exactly once."""
        indices = np.arange(batch)
        parts = [shard_batch(indices, world, r) for r in range(world)]
        assert np.array_equal(np.concatenate(parts) if parts else indices,
                              indices)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_shard_slice_matches_shard_batch(self):
        indices = np.arange(11) * 7
        for r in range(3):
            sl = shard_slice(11, 3, r)
            assert np.array_equal(indices[sl], shard_batch(indices, 3, r))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            shard_sizes(4, 0)
        with pytest.raises(ValueError):
            shard_slice(4, 2, 5)

    def test_epoch_permutation_deterministic(self):
        a = epoch_permutation(100, 3, seed=5)
        b = epoch_permutation(100, 3, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, epoch_permutation(100, 4, seed=5))

    def test_epoch_permutation_matches_serial_trainer(self):
        """The cluster and the serial Trainer must shuffle identically."""
        from repro.core import SGD, Trainer
        from repro.nn.models import mlp

        m = mlp(4, [4], 2)
        t = Trainer(m, SGD(m.parameters()), 0.1, shuffle_seed=9)
        x = np.random.default_rng(0).normal(size=(50, 4))
        y = np.zeros(50, dtype=int)
        batches = []
        step = t.train_step

        def spy(xb, yb, **kw):
            batches.append(xb)
            return step(xb, yb, **kw)

        t.train_step = spy
        t.fit(x, y, x, y, epochs=3, batch_size=25)
        assert np.array_equal(np.concatenate(batches[4:]), x[epoch_permutation(50, 2, 9)])


class TestPacking:
    def make_params(self):
        p1 = Parameter(np.arange(6, dtype=float).reshape(2, 3), name="a")
        p2 = Parameter(np.arange(4, dtype=float), name="b")
        p1.grad[:] = 1.0
        p2.grad[:] = 2.0
        return [p1, p2]

    def test_flatten_grads_order_and_values(self):
        flat = flatten_grads(self.make_params())
        assert np.array_equal(flat, np.concatenate([np.ones(6), 2 * np.ones(4)]))

    def test_unflatten_grads_roundtrip(self):
        params = self.make_params()
        flat = flatten_grads(params) * 3
        unflatten_grads(flat, params)
        assert np.all(params[0].grad == 3.0)
        assert np.all(params[1].grad == 6.0)

    def test_flatten_params_roundtrip(self):
        params = self.make_params()
        flat = flatten_params(params)
        flat2 = flat + 10
        unflatten_params(flat2, params)
        assert params[0].data[0, 0] == 10.0

    def test_shape_preserved_on_unflatten(self):
        params = self.make_params()
        unflatten_grads(np.zeros(10), params)
        assert params[0].grad.shape == (2, 3)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            unflatten_grads(np.zeros(3), self.make_params())

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            flatten_grads([])
