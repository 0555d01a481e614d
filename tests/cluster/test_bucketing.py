"""BucketPlan partitioning, persistent buffers, and gradient-ready hooks."""

import numpy as np
import pytest

from repro.cluster.bucketing import Bucket, BucketedExchange, BucketPlan
from repro.comm import run_cluster
from repro.nn.models import mlp
from repro.perfmodel.overlap import greedy_partition


class TestGreedyPartition:
    def test_flush_on_fill(self):
        # accumulate until the running total reaches the target, then cut
        assert greedy_partition([100] * 10, 250) == [
            [100, 100, 100], [100, 100, 100], [100, 100, 100], [100]
        ]

    def test_single_bucket_when_target_large(self):
        assert greedy_partition([10, 20, 30], 10_000) == [[10, 20, 30]]

    def test_oversized_tensor_cannot_split(self):
        """A tensor larger than the target lands whole in its bucket — the
        granularity floor is the tensor, not the byte count (the documented
        reason one huge FC layer defeats overlap)."""
        groups = greedy_partition([10, 1000, 10], 100)
        assert groups == [[10, 1000], [10]]

    def test_empty(self):
        assert greedy_partition([], 100) == []


class TestBucketPlan:
    def _params(self):
        return mlp(8, [16, 16], 3, seed=0).parameters()

    def test_reverse_backward_order(self):
        params = self._params()
        plan = BucketPlan(params, bucket_bytes=1)  # one bucket per tensor
        assert len(plan) == len(params)
        # bucket 0 holds the *last* parameter — the first gradient backward
        # finalises
        assert plan.buckets[0].params[0] is params[-1]
        assert plan.buckets[-1].params[0] is params[0]

    def test_covers_every_parameter_once(self):
        params = self._params()
        plan = BucketPlan(params, bucket_bytes=256)
        planned = [p for b in plan.buckets for p in b.params]
        assert len(planned) == len(params)
        assert {id(p) for p in planned} == {id(p) for p in params}
        assert plan.total_size == sum(p.size for p in params)
        assert sum(plan.bucket_nbytes) == sum(p.data.nbytes for p in params)

    def test_bucket_of_maps_param_to_bucket(self):
        params = self._params()
        plan = BucketPlan(params, bucket_bytes=256)
        for b in plan.buckets:
            for p in b.params:
                assert plan.bucket_of[id(p)] == b.index

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            BucketPlan([])

    def test_from_model_default_bytes(self):
        plan = BucketPlan.from_model(mlp(8, [16], 3, seed=0))
        assert len(plan) >= 1


class TestBucketBuffers:
    def test_pack_unpack_roundtrip(self):
        params = mlp(8, [16], 3, seed=0).parameters()
        rng = np.random.default_rng(0)
        for p in params:
            p.grad = rng.normal(size=p.data.shape)
        bucket = Bucket(0, params)
        flat = bucket.pack(weight=0.5)
        expected = np.concatenate([p.grad.reshape(-1) for p in params]) * 0.5
        np.testing.assert_array_equal(flat, expected)
        bucket.unpack(flat * 2.0)
        offset = 0
        for p in params:
            np.testing.assert_array_equal(
                p.grad.reshape(-1), expected[offset:offset + p.size] * 2.0
            )
            offset += p.size

    def test_buffer_persists_across_packs(self):
        params = mlp(8, [16], 3, seed=0).parameters()
        for p in params:
            p.grad = np.ones_like(p.data)
        bucket = Bucket(0, params)
        first = bucket.pack()
        for p in params:
            p.grad = np.full_like(p.data, 2.0)
        second = bucket.pack()
        assert first is second  # same persistent buffer, no reallocation
        assert first is bucket.buffer


def _post_backward(record):
    """A hook that calls ``record(module)`` after each backward."""

    def hook(module, phase, x):
        if phase == "backward":
            return lambda: record(module)
        return None

    return hook


class TestGradReadyHooks:
    def test_hooks_fire_in_reverse_layer_order(self):
        model = mlp(8, [16, 16], 3, seed=0)
        fired = []
        hooked = []
        hook = _post_backward(lambda m: fired.append(id(m)))
        for module in model.modules():
            if any(
                hasattr(v, "grad") and hasattr(v, "data")
                for v in vars(module).values()
            ):
                module.add_hook(hook)
                hooked.append(id(module))
        x = np.random.default_rng(0).normal(size=(4, 8))
        out = model.forward(x)
        model.backward(np.ones_like(out))
        # backward finalises the *last* layer's gradients first
        assert fired == hooked[::-1]
        for module in model.modules():
            module.remove_hook(hook)
        assert all(m._hooks == () for m in model.modules())

    def test_remove_one_hook_keeps_the_other(self):
        model = mlp(8, [16], 3, seed=0)
        module = model.layers[0]
        fired = []
        first = _post_backward(lambda m: fired.append("first"))
        second = _post_backward(lambda m: fired.append("second"))
        module.add_hook(first).add_hook(second)
        module.remove_hook(first)
        out = model.forward(np.zeros((2, 8)))
        model.backward(np.ones_like(out))
        assert fired == ["second"]
        module.remove_hook(first)  # removing an absent hook is a no-op
        assert module._hooks == (second,)

    def test_two_hooks_fire_in_registration_order(self):
        model = mlp(8, [16], 3, seed=0)
        module = model.layers[0]
        calls = []

        def tagged(tag):
            def hook(m, phase, x):
                calls.append((tag, phase, "pre"))
                return lambda: calls.append((tag, phase, "post"))

            return hook

        module.add_hook(tagged("a")).add_hook(tagged("b"))
        out = model.forward(np.zeros((2, 8)))
        model.backward(np.ones_like(out))
        assert calls == [
            ("a", "forward", "pre"), ("b", "forward", "pre"),
            ("a", "forward", "post"), ("b", "forward", "post"),
            ("a", "backward", "pre"), ("b", "backward", "pre"),
            ("a", "backward", "post"), ("b", "backward", "post"),
        ]

    def test_exchange_install_hooks_only_on_param_owners(self):
        model = mlp(8, [16], 3, seed=0)
        plan = BucketPlan.from_model(model, bucket_bytes=256)

        def worker(comm):
            exchange = BucketedExchange(comm, plan, overlap=True)
            exchange.install_hooks(model)
            n = len(exchange._hooked)
            exchange.remove_hooks()
            return n

        results, _ = run_cluster(1, worker)
        owners = sum(
            1
            for module in model.modules()
            if any(id(p) in plan.bucket_of for p in vars(module).values()
                   if hasattr(p, "data") and hasattr(p, "grad"))
        )
        assert results[0] == owners > 0

    def test_overlap_plus_compressor_rejected(self):
        model = mlp(8, [16], 3, seed=0)
        plan = BucketPlan.from_model(model)

        def worker(comm):
            BucketedExchange(comm, plan, overlap=True, compressor=object())

        with pytest.raises(ValueError):
            run_cluster(1, worker)
