"""Cross-stack property-based tests (hypothesis).

The repository's key invariants, fuzzed over their whole parameter domains
rather than spot-checked.  Heavier generators use small ``max_examples`` to
keep the suite fast; each example still covers a full train/communicate
cycle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.comm import allreduce_cost, run_cluster
from repro.comm.fabric import NetworkProfile
from repro.core import LARS, SGD, ConstantLR, GradualWarmup, PolynomialDecay, Trainer
from repro.data import gaussian_blobs
from repro.faults import FaultPlan
from repro.nn.models import mlp

_X, _Y = gaussian_blobs(64, num_classes=3, dim=5, seed=101)


class TestSequentialConsistencyProperty:
    """The headline invariant, fuzzed: any world size and batch size."""

    @given(world=st.integers(1, 16), batch=st.integers(5, 64),
           momentum=st.sampled_from([0.0, 0.9]))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cluster_equals_serial(self, world, batch, momentum):
        def builder():
            return mlp(5, [6], 3, seed=17)

        def opt_builder(params):
            return SGD(params, momentum=momentum, weight_decay=0.0005)

        model = builder()
        serial = Trainer(model, opt_builder(model.parameters()),
                         ConstantLR(0.05), shuffle_seed=17)
        serial.fit(_X, _Y, _X[:16], _Y[:16], epochs=1, batch_size=batch)

        config = SyncSGDConfig(world=world, epochs=1,
                               batch_size=max(batch, world), shuffle_seed=17)
        cluster = train_sync_sgd(builder, opt_builder, ConstantLR(0.05),
                                 _X, _Y, _X[:16], _Y[:16], config)
        if max(batch, world) == batch:  # identical batch streams
            ref = model.state_dict()
            for k in ref:
                assert np.allclose(cluster.final_state[k], ref[k], atol=1e-9)

    @given(data=st.data(), world=st.integers(1, 16))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_micro_batches_shards_and_full_batch_agree(self, data, world):
        """One step rule, three partitions of each batch: the serial
        trainer's micro-batches, the cluster's rank shards, and none."""
        batch = data.draw(st.integers(world, 64), label="batch")
        micro = data.draw(st.integers(1, batch), label="micro_batch_size")

        def builder():
            return mlp(5, [6], 3, seed=17)

        def opt_builder(params):
            return SGD(params, momentum=0.9, weight_decay=0.0005)

        def serial(micro_batch_size):
            model = builder()
            Trainer(model, opt_builder(model.parameters()), ConstantLR(0.05),
                    shuffle_seed=17).fit(_X, _Y, _X[:16], _Y[:16], epochs=1,
                                         batch_size=batch,
                                         micro_batch_size=micro_batch_size)
            return model.state_dict()

        full = serial(None)
        config = SyncSGDConfig(world=world, epochs=1, batch_size=batch, shuffle_seed=17)
        for state in (serial(micro),
                      train_sync_sgd(builder, opt_builder, ConstantLR(0.05), _X, _Y,
                                     _X[:16], _Y[:16], config).final_state):
            for k in full:
                assert np.abs(state[k] - full[k]).max() <= 1e-9, k


def _check_bucketed_matches_one_bucket(world, hidden, bucket_bytes, algorithm,
                                      overlap, fault_seed):
    def builder():
        return mlp(5, hidden, 3, seed=3)

    def run(**kwargs):
        config = SyncSGDConfig(world=world, epochs=1, batch_size=16,
                               algorithm=algorithm, shuffle_seed=3, **kwargs)
        return train_sync_sgd(builder, lambda p: SGD(p, momentum=0.9),
                              ConstantLR(0.05), _X, _Y, _X[:16], _Y[:16],
                              config).final_state

    one = run()
    bucketed = run(bucket_bytes=bucket_bytes, overlap=overlap)
    lossy = run(bucket_bytes=bucket_bytes, overlap=overlap,
                fault_plan=FaultPlan(seed=fault_seed, drop_prob=0.1))
    for k in one:
        if algorithm == "ring":  # chunk ownership follows buffer position
            assert np.abs(bucketed[k] - one[k]).max() <= 1e-12
        else:
            assert bucketed[k].tobytes() == one[k].tobytes()
        assert lossy[k].tobytes() == bucketed[k].tobytes()


class TestGradientExchangeProperty:
    """Every bucket plan partitions the one-bucket (monolithic) exchange."""

    @given(data=st.data(), world=st.integers(1, 16),
           hidden=st.lists(st.integers(1, 8), min_size=1, max_size=2),
           algorithm=st.sampled_from(["tree", "ring", "rhd"]),
           overlap=st.booleans(), fault_seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bucketed_matches_one_bucket(self, data, world, hidden, algorithm,
                                         overlap, fault_seed):
        if algorithm == "rhd":
            world = 1 << (world.bit_length() - 1)  # rhd needs a power of two
        w_bytes = sum(p.data.nbytes for p in mlp(5, hidden, 3, seed=3).parameters())
        bucket_bytes = data.draw(st.integers(1, w_bytes + 64), label="bucket_bytes")
        _check_bucketed_matches_one_bucket(world, hidden, bucket_bytes, algorithm,
                                           overlap, fault_seed)

    @pytest.mark.parametrize("algorithm", ["tree", "ring", "rhd"])
    def test_buckets_smaller_than_world(self, algorithm):
        """One parameter per bucket at 16 ranks: buckets of 1, 3 and 5
        elements, fewer than ranks, so ring and rhd leave ranks without
        a chunk."""
        _check_bucketed_matches_one_bucket(16, [1], 1, algorithm,
                                           overlap=True, fault_seed=0)


class TestMasterModeProperty:
    """Figure 2(a)'s master mode reduces to rank 0 and broadcasts from it
    along binomial trees: observably the tree allreduce — the same weights,
    messages, bytes and simulated time, with or without faults."""

    @given(world=st.integers(1, 16), sync_bn=st.booleans(),
           static_memory=st.booleans(), lossy=st.booleans(),
           fault_seed=st.integers(0, 1000))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_master_equals_tree_allreduce(self, world, sync_bn, static_memory,
                                          lossy, fault_seed):
        def builder():
            return mlp(5, [6], 3, batch_norm="sync" if sync_bn else False, seed=5)

        plan = (FaultPlan(seed=fault_seed, drop_prob=0.05,
                          stragglers={world - 1: 1.5}) if lossy else None)

        def run(mode):
            config = SyncSGDConfig(world=world, epochs=1, batch_size=16, mode=mode,
                                   algorithm="tree", static_memory=static_memory,
                                   profile=NetworkProfile(alpha=1e-5, beta=1e-9),
                                   compute_time=lambda n: 1e-4 * n,
                                   shuffle_seed=5, fault_plan=plan)
            return train_sync_sgd(builder, lambda p: SGD(p, momentum=0.9),
                                  ConstantLR(0.05), _X, _Y, _X[:16], _Y[:16],
                                  config)

        master, tree = run("master"), run("allreduce")
        for k in tree.final_state:
            assert master.final_state[k].tobytes() == tree.final_state[k].tobytes()
        for attr in ("simulated_seconds", "messages", "comm_bytes",
                     "exposed_comm_seconds", "comm_busy_seconds"):
            assert getattr(master, attr) == getattr(tree, attr), attr


class TestCollectiveProperties:
    @given(size=st.integers(1, 6), n=st.integers(1, 40),
           algorithm=st.sampled_from(["tree", "ring"]))
    @settings(max_examples=15, deadline=None)
    def test_allreduce_linearity(self, size, n, algorithm):
        """allreduce(a*x) == a * allreduce(x): summation is linear."""
        a = 3.5

        def worker_plain(comm):
            x = np.random.default_rng(comm.rank).normal(size=n)
            return comm.allreduce(x, algorithm=algorithm)

        def worker_scaled(comm):
            x = np.random.default_rng(comm.rank).normal(size=n)
            return comm.allreduce(a * x, algorithm=algorithm)

        plain, _ = run_cluster(size, worker_plain)
        scaled, _ = run_cluster(size, worker_scaled)
        assert np.allclose(scaled[0], a * plain[0], atol=1e-9)

    @given(size=st.integers(1, 16), n=st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_blocking_equals_nonblocking_bitwise(self, size, n):
        """Blocking allreduce and iallreduce(...).wait() agree bit for bit,
        on every rank, for any world and length (n = 0 and n < P too)."""
        algorithms = ["tree", "ring"] + (["rhd"] if size & (size - 1) == 0 else [])

        def worker(comm):
            x = np.random.default_rng(comm.rank).normal(size=n)
            return [(comm.allreduce(x, algorithm=a),
                     comm.iallreduce(x, algorithm=a).wait()) for a in algorithms]

        results, _ = run_cluster(size, worker)
        expected = np.sum([np.random.default_rng(r).normal(size=n)
                           for r in range(size)], axis=0)
        for i, algorithm in enumerate(algorithms):
            ref = results[0][i][0]
            for blocking, nonblocking in (r[i] for r in results):
                for out in (blocking, nonblocking):
                    assert out.shape == ref.shape
                    assert out.tobytes() == ref.tobytes(), algorithm
            assert np.allclose(ref, expected, atol=1e-12), algorithm

    @given(p=st.integers(2, 4096), nbytes=st.integers(1, 10**9),
           algorithm=st.sampled_from(["tree", "ring", "rhd"]))
    @settings(max_examples=50, deadline=None)
    def test_cost_positive_and_monotone_in_bytes(self, p, nbytes, algorithm):
        prof = NetworkProfile(alpha=1e-6, beta=1e-9)
        c1 = allreduce_cost(p, nbytes, prof, algorithm)
        c2 = allreduce_cost(p, 2 * nbytes, prof, algorithm)
        assert 0 < c1 <= c2


class TestOptimizerProperties:
    @given(lr=st.floats(1e-4, 10.0), scale=st.floats(1e-3, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_lars_step_norm_bound(self, lr, scale):
        """Without decay/momentum, ‖Δw‖ == lr·η·‖w‖ for any gradient scale."""
        from repro.nn import Parameter

        rng = np.random.default_rng(3)
        p = Parameter(rng.normal(size=6))
        p.grad[:] = rng.normal(size=6) * scale
        w_norm = np.linalg.norm(p.data)
        before = p.data.copy()
        LARS([p], trust_coefficient=0.01, momentum=0.0, weight_decay=0.0).step(lr)
        assert np.linalg.norm(before - p.data) == pytest.approx(
            lr * 0.01 * w_norm, rel=1e-9)

    @given(k=st.floats(0.1, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_sgd_update_linear_in_gradient(self, k):
        from repro.nn import Parameter

        def step(scale):
            p = Parameter(np.zeros(4))
            p.grad[:] = scale * np.array([1.0, -2.0, 3.0, -4.0])
            SGD([p], momentum=0.0, weight_decay=0.0).step(0.1)
            return -p.data

        assert np.allclose(step(k), k * step(1.0), rtol=1e-12)


class TestScheduleProperties:
    @given(base=st.floats(1e-4, 10.0), total=st.integers(2, 5000),
           power=st.floats(0.5, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_poly_bounded_and_monotone(self, base, total, power):
        s = PolynomialDecay(base, total, power=power)
        prev = s(0)
        assert prev == pytest.approx(base)
        for t in np.linspace(0, total, 20, dtype=int):
            cur = s(int(t))
            assert 0.0 <= cur <= base + 1e-12
            assert cur <= prev + 1e-12
            prev = cur

    @given(warmup=st.integers(1, 200), base=st.floats(1e-3, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_warmup_never_overshoots_peak(self, warmup, base):
        s = GradualWarmup(PolynomialDecay(base, 1000), warmup)
        peak = max(s(t) for t in range(warmup + 5))
        assert peak <= base * (1 + 1e-9)


class TestShardingProperty:
    @given(n=st.integers(1, 300), batch=st.integers(1, 64),
           world=st.integers(1, 9), epoch=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_epoch_coverage_exact(self, n, batch, world, epoch):
        """Across all ranks and all batches of an epoch, every example
        appears exactly once — the fixed-epoch bookkeeping every formula
        (I = E·n/B, Figure 6) rests on."""
        from repro.cluster import epoch_permutation, shard_batch

        order = epoch_permutation(n, epoch, seed=1)
        seen = []
        for lo in range(0, n, batch):
            gidx = order[lo : lo + batch]
            for r in range(world):
                seen.extend(shard_batch(gidx, world, r).tolist())
        assert sorted(seen) == list(range(n))
