"""Synchronous data-parallel SGD: the sequential-consistency invariant.

The paper's central systems claim is that synchronous SGD scales *because*
it is sequentially consistent — P workers on shards of a batch must behave
exactly like one worker on the full batch.  These tests verify that claim
holds in this implementation for SGD, momentum SGD and LARS, in both
allreduce and master-worker modes, across rank counts (including ranks that
don't divide the batch).
"""

import numpy as np
import pytest

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.comm import NetworkProfile
from repro.core import LARS, SGD, ConstantLR, PolynomialDecay, Trainer
from repro.nn.models import micro_resnet, mlp

# shared toy dataset ---------------------------------------------------------
_RNG = np.random.default_rng(7)
_CENTRES = _RNG.normal(size=(3, 8)) * 2.5
_Y = _RNG.integers(0, 3, size=96)
_X = _CENTRES[_Y] + _RNG.normal(size=(96, 8)) * 0.5
_YT = _RNG.integers(0, 3, size=30)
_XT = _CENTRES[_YT] + _RNG.normal(size=(30, 8)) * 0.5

SEED = 13


def model_builder():
    return mlp(8, [10], 3, seed=SEED)


def sgd_builder(params):
    return SGD(params, momentum=0.9, weight_decay=0.0005)


def lars_builder(params):
    return LARS(params, trust_coefficient=0.02, momentum=0.9, weight_decay=0.0005)


def serial_reference(opt_builder, epochs=2, batch=32, lr=0.1):
    model = model_builder()
    trainer = Trainer(model, opt_builder(model.parameters()), ConstantLR(lr),
                      shuffle_seed=SEED)
    result = trainer.fit(_X, _Y, _XT, _YT, epochs=epochs, batch_size=batch)
    return model.state_dict(), result


def cluster_run(opt_builder, world, mode="allreduce", algorithm="tree",
                epochs=2, batch=32, lr=0.1):
    config = SyncSGDConfig(world=world, epochs=epochs, batch_size=batch,
                           mode=mode, algorithm=algorithm, shuffle_seed=SEED)
    return train_sync_sgd(model_builder, opt_builder, ConstantLR(lr),
                          _X, _Y, _XT, _YT, config)


def max_param_diff(state_a, state_b):
    return max(np.abs(state_a[k] - state_b[k]).max() for k in state_a)


class TestSequentialConsistency:
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_sgd_matches_serial(self, world):
        ref_state, _ = serial_reference(sgd_builder)
        cluster = cluster_run(sgd_builder, world)
        assert max_param_diff(ref_state, cluster.final_state) < 1e-9

    @pytest.mark.parametrize("world", [2, 3])
    def test_world_not_dividing_batch(self, world):
        """Uneven shards (32 % 3 != 0) still reproduce the global-batch mean."""
        ref_state, _ = serial_reference(sgd_builder)
        cluster = cluster_run(sgd_builder, world)
        assert max_param_diff(ref_state, cluster.final_state) < 1e-9

    @pytest.mark.parametrize("algorithm", ["tree", "ring", "rhd"])
    def test_all_allreduce_algorithms(self, algorithm):
        ref_state, _ = serial_reference(sgd_builder)
        cluster = cluster_run(sgd_builder, 4, algorithm=algorithm)
        assert max_param_diff(ref_state, cluster.final_state) < 1e-9

    def test_master_mode_matches_serial(self):
        ref_state, _ = serial_reference(sgd_builder)
        cluster = cluster_run(sgd_builder, 4, mode="master")
        assert max_param_diff(ref_state, cluster.final_state) < 1e-9

    def test_lars_matches_serial(self):
        """LARS is *also* sequentially consistent: trust ratios are computed
        from allreduced gradients, identical on every rank."""
        ref_state, _ = serial_reference(lars_builder)
        cluster = cluster_run(lars_builder, 4)
        assert max_param_diff(ref_state, cluster.final_state) < 1e-9

    def test_lars_master_mode(self):
        ref_state, _ = serial_reference(lars_builder)
        cluster = cluster_run(lars_builder, 2, mode="master")
        assert max_param_diff(ref_state, cluster.final_state) < 1e-9

    def test_poly_schedule_consistency(self):
        """Iteration-indexed schedules tick identically in serial and
        parallel runs."""
        sched = PolynomialDecay(0.2, 6, power=2)

        model = model_builder()
        trainer = Trainer(model, sgd_builder(model.parameters()), sched,
                          shuffle_seed=SEED)
        trainer.fit(_X, _Y, _XT, _YT, epochs=2, batch_size=32)

        config = SyncSGDConfig(world=4, epochs=2, batch_size=32, shuffle_seed=SEED)
        cluster = train_sync_sgd(model_builder, sgd_builder, sched,
                                 _X, _Y, _XT, _YT, config)
        assert max_param_diff(model.state_dict(), cluster.final_state) < 1e-9

    def test_batchnorm_breaks_exact_equivalence(self):
        """Documented caveat: per-shard BN statistics (as in the paper's
        stacks) make P>1 differ from serial — the exception that proves the
        equivalence above is not vacuous."""

        def bn_builder():
            return mlp(8, [10], 3, batch_norm=True, seed=SEED)

        model = bn_builder()
        trainer = Trainer(model, sgd_builder(model.parameters()),
                          ConstantLR(0.1), shuffle_seed=SEED)
        trainer.fit(_X, _Y, _XT, _YT, epochs=1, batch_size=32)

        config = SyncSGDConfig(world=4, epochs=1, batch_size=32, shuffle_seed=SEED)
        cluster = train_sync_sgd(bn_builder, sgd_builder, ConstantLR(0.1),
                                 _X, _Y, _XT, _YT, config)
        assert max_param_diff(model.state_dict(), cluster.final_state) > 1e-9


class TestClusterMechanics:
    def test_history_recorded_per_epoch(self):
        cluster = cluster_run(sgd_builder, 2, epochs=3)
        assert len(cluster.history) == 3
        assert cluster.history[-1].epoch == 3

    def test_learning_happens(self):
        cluster = cluster_run(sgd_builder, 4, epochs=8)
        assert cluster.final_test_accuracy > 0.6

    def test_simulated_time_grows_with_network_cost(self):
        slow = NetworkProfile(alpha=1e-3, beta=1e-8, name="slow")
        config_free = SyncSGDConfig(world=4, epochs=1, batch_size=32, shuffle_seed=SEED)
        config_slow = SyncSGDConfig(world=4, epochs=1, batch_size=32,
                                    profile=slow, shuffle_seed=SEED)
        free = train_sync_sgd(model_builder, sgd_builder, 0.1, _X, _Y, _XT, _YT, config_free)
        cost = train_sync_sgd(model_builder, sgd_builder, 0.1, _X, _Y, _XT, _YT, config_slow)
        assert free.simulated_seconds == 0.0
        assert cost.simulated_seconds > 0.0

    def test_compute_time_included(self):
        config = SyncSGDConfig(world=2, epochs=1, batch_size=32,
                               compute_time=lambda k: 0.01 * k, shuffle_seed=SEED)
        res = train_sync_sgd(model_builder, sgd_builder, 0.1, _X, _Y, _XT, _YT, config)
        # 96 examples, 3 batches, 16 local examples per batch per rank
        assert res.simulated_seconds == pytest.approx(0.01 * 16 * 3, rel=0.01)

    def test_larger_batch_fewer_messages(self):
        """Figure 9 in miniature: message count scales with iteration count."""
        small = cluster_run(sgd_builder, 4, batch=16, epochs=1)
        large = cluster_run(sgd_builder, 4, batch=48, epochs=1)
        assert large.messages < small.messages

    def test_time_curve_monotone(self):
        config = SyncSGDConfig(world=2, epochs=3, batch_size=32,
                               profile=NetworkProfile(1e-4, 1e-9), shuffle_seed=SEED)
        res = train_sync_sgd(model_builder, sgd_builder, 0.1, _X, _Y, _XT, _YT, config)
        times = [t for _, t, _ in res.time_curve]
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))

    def test_time_to_accuracy(self):
        res = cluster_run(sgd_builder, 2, epochs=8)
        tta = res.time_to_accuracy(0.5)
        assert tta is not None or res.final_test_accuracy < 0.5

    def test_eval_every_skips_epochs(self):
        config = SyncSGDConfig(world=2, epochs=4, batch_size=32,
                               eval_every=2, shuffle_seed=SEED)
        res = train_sync_sgd(model_builder, sgd_builder, 0.1, _X, _Y, _XT, _YT, config)
        evals = [r.test_accuracy for r in res.history]
        assert np.isnan(evals[0]) and not np.isnan(evals[1])

    def test_micro_resnet_trains_on_cluster(self):
        """End-to-end smoke: a conv/BN/residual model across 2 ranks."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(24, 3, 8, 8))
        y = rng.integers(0, 3, size=24)

        def builder():
            return micro_resnet(num_classes=3, width=4, seed=1)

        config = SyncSGDConfig(world=2, epochs=1, batch_size=8, shuffle_seed=1)
        res = train_sync_sgd(builder, sgd_builder, 0.05, x, y, x[:8], y[:8], config)
        assert np.isfinite(res.history[-1].train_loss)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyncSGDConfig(world=0, epochs=1, batch_size=4)
        with pytest.raises(ValueError):
            SyncSGDConfig(world=2, epochs=1, batch_size=4, mode="gossip")
        with pytest.raises(ValueError):
            SyncSGDConfig(world=8, epochs=1, batch_size=4)
        with pytest.raises(ValueError):
            SyncSGDConfig(world=2, epochs=1, batch_size=4, algorithm="nccl")
        with pytest.raises(ValueError):
            SyncSGDConfig(world=3, epochs=1, batch_size=6, algorithm="rhd")


class TestStaticMemory:
    """static_memory=True binds a per-rank arena; results must be bitwise
    identical to the eager cluster run (and hence to the serial reference)."""

    def static_run(self, world, epochs=2, batch=32, lr=0.1):
        config = SyncSGDConfig(world=world, epochs=epochs, batch_size=batch,
                               shuffle_seed=SEED, static_memory=True)
        return train_sync_sgd(model_builder, sgd_builder, ConstantLR(lr),
                              _X, _Y, _XT, _YT, config)

    @pytest.mark.parametrize("world", [1, 2])
    def test_matches_eager_cluster_bitwise(self, world):
        eager = cluster_run(sgd_builder, world)
        planned = self.static_run(world)
        assert max_param_diff(eager.final_state, planned.final_state) == 0.0

    def test_matches_serial_reference(self):
        ref_state, _ = serial_reference(sgd_builder)
        planned = self.static_run(2)
        assert max_param_diff(ref_state, planned.final_state) < 1e-9

    def test_evaluation_counts_each_batch_before_the_next_overwrites_it(self):
        # Rank 0 evaluates in batches of 512; under static memory every
        # batch's logits reuse the same slab bytes, so the accuracy must be
        # counted batch by batch, not over logits kept across batches.
        rng = np.random.default_rng(3)
        y_test = rng.integers(0, 3, size=1024)
        x_test = _CENTRES[y_test] + rng.normal(size=(1024, 8)) * 0.5
        accs = []
        for static in (False, True):
            config = SyncSGDConfig(world=2, epochs=2, batch_size=32,
                                   shuffle_seed=SEED, static_memory=static)
            res = train_sync_sgd(model_builder, sgd_builder, ConstantLR(0.1),
                                 _X, _Y, x_test, y_test, config)
            accs.append([h.test_accuracy for h in res.history])
        assert accs[1] == accs[0]
        assert accs[0][-1] > 0.9
