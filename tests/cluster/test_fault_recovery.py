"""Fault-tolerant synchronous SGD: crash recovery, message-loss survival,
stragglers, abort reports, and bounded termination (deadlock regression).

All scenarios are deterministic (seeded fault plans) and wall-time bounded:
a killed rank must tear the attempt down via the transport dead set and
the fabric's deadlock detection, never by hanging until the test runner
gives up.
"""

import os
import time

import numpy as np
import pytest

from repro.cluster import ClusterResult, SyncSGDConfig, train_sync_sgd
from repro.core import SGD, ConstantLR
from repro.data import gaussian_blobs
from repro.faults import FaultPlan, TrainingAborted
from repro.nn.models import mlp

_X, _Y = gaussian_blobs(96, num_classes=3, dim=6, seed=91)
SEED = 33
ITERS_PER_EPOCH = 3  # 96 examples / batch 32


def builder():
    return mlp(6, [8], 3, seed=SEED)


def sgd_builder(params):
    return SGD(params, momentum=0.9, weight_decay=0.0005)


def run(world=3, epochs=4, **kw):
    config = SyncSGDConfig(world=world, epochs=epochs, batch_size=32,
                           shuffle_seed=SEED, **kw)
    return train_sync_sgd(builder, sgd_builder, ConstantLR(0.1),
                          _X, _Y, _X[:32], _Y[:32], config)


@pytest.fixture(scope="module")
def clean() -> ClusterResult:
    return run()


class TestCrashRecovery:
    def test_mid_training_kill_recovers_within_tolerance(self, clean):
        """Acceptance: a rank killed mid-training restores from the latest
        checkpoint, continues with P-1 ranks, and matches the fault-free
        run to floating-point tolerance (the shrunk world regroups the
        gradient summation, so only associativity noise remains)."""
        res = run(fault_plan=FaultPlan(kills={1: 7}))
        assert res.recoveries == 1
        assert res.final_world == 2
        for k in clean.final_state:
            np.testing.assert_allclose(res.final_state[k],
                                       clean.final_state[k], atol=1e-12)
        assert [h.epoch for h in res.history] == [1, 2, 3, 4]

    def test_killed_rank_terminates_in_bounded_wall_time(self):
        """Deadlock regression: before the dead-set machinery a dead rank
        deadlocked the blocking recvs forever."""
        start = time.monotonic()
        res = run(fault_plan=FaultPlan(kills={2: 4}))
        assert time.monotonic() - start < 60.0
        assert res.recoveries == 1

    def test_rank_zero_kill_survivable(self, clean):
        """The master of master-mode history/eval can die too; the renumbered
        survivors elect a new rank 0 from the snapshot."""
        res = run(fault_plan=FaultPlan(kills={0: 7}))
        assert res.final_world == 2
        for k in clean.final_state:
            np.testing.assert_allclose(res.final_state[k],
                                       clean.final_state[k], atol=1e-12)

    def test_kill_before_first_checkpoint_restarts_from_scratch(self, clean):
        res = run(fault_plan=FaultPlan(kills={1: 1}))
        assert res.recoveries == 1
        assert res.fault_reports[0].restarted_from_epoch == 0
        for k in clean.final_state:
            np.testing.assert_allclose(res.final_state[k],
                                       clean.final_state[k], atol=1e-12)

    def test_two_sequential_kills(self, clean):
        res = run(world=4,
                  fault_plan=FaultPlan(kills={3: 4, 1: 8}))
        assert res.recoveries == 2
        assert res.final_world == 2
        assert len(res.fault_reports) == 2
        for k in clean.final_state:
            np.testing.assert_allclose(res.final_state[k],
                                       clean.final_state[k], atol=1e-12)

    def test_recovery_report_structure(self):
        res = run(fault_plan=FaultPlan(kills={1: 7}))
        report = res.fault_reports[0]
        assert report.outcome == "recovered"
        assert report.dead_ranks == [1]
        assert report.failed_at_iteration == 7
        assert report.world_before == 3 and report.world_after == 2
        assert report.restarted_from_epoch == 2  # kill in epoch 2 (iters 6-8)
        assert "recovered" in report.format()

    def test_disk_checkpoint_recovery_path(self, clean, tmp_path):
        res = run(fault_plan=FaultPlan(kills={1: 7}),
                  checkpoint_dir=tmp_path)
        assert res.recoveries == 1
        written = sorted(os.listdir(tmp_path))
        assert any(name.endswith(".npz") for name in written)
        assert not any(name.endswith(".tmp") for name in written)
        for k in clean.final_state:
            np.testing.assert_allclose(res.final_state[k],
                                       clean.final_state[k], atol=1e-12)

    def test_missing_checkpoint_dir_is_created(self, tmp_path):
        ckpt_dir = tmp_path / "not" / "yet"
        res = run(fault_plan=FaultPlan(kills={1: 7}), checkpoint_dir=ckpt_dir)
        assert res.recoveries == 1
        assert (ckpt_dir / "ckpt_epoch0001.npz").is_file()

    def test_restart_overhead_charged_per_recovery(self):
        cheap = run(fault_plan=FaultPlan(kills={1: 7}))
        costly = run(fault_plan=FaultPlan(kills={1: 7}),
                     restart_overhead_seconds=123.0)
        assert costly.simulated_seconds == pytest.approx(
            cheap.simulated_seconds + 123.0
        )

    def test_rhd_falls_back_after_odd_shrink(self):
        res = run(world=4, fault_plan=FaultPlan(kills={3: 4}), algorithm="rhd")
        assert res.final_world == 3  # not a power of two; tree fallback
        assert res.final_test_accuracy >= 0.9


class TestMessageLossSurvival:
    def test_one_percent_loss_converges_identically(self, clean):
        """Acceptance: 1% message loss, absorbed by retransmit, leaves the
        final model bit-identical to the fault-free run."""
        res = run(fault_plan=FaultPlan(seed=3, drop_prob=0.01))
        assert res.recoveries == 0
        for k in clean.final_state:
            np.testing.assert_array_equal(res.final_state[k],
                                          clean.final_state[k])
        stats = res.fault_stats
        assert stats.messages_dropped > 0
        assert stats.retransmits == stats.messages_dropped

    def test_corruption_detected_and_retransmitted(self, clean):
        res = run(fault_plan=FaultPlan(seed=3, corrupt_prob=0.02))
        for k in clean.final_state:
            np.testing.assert_array_equal(res.final_state[k],
                                          clean.final_state[k])
        assert res.fault_stats.messages_corrupted > 0

    def test_loss_plus_kill_combined(self, clean):
        res = run(fault_plan=FaultPlan(seed=3, drop_prob=0.01,
                                       kills={1: 7}))
        assert res.recoveries == 1
        for k in clean.final_state:
            np.testing.assert_allclose(res.final_state[k],
                                       clean.final_state[k], atol=1e-12)


class TestStragglers:
    def test_straggler_slows_time_but_not_values(self, clean):
        def per_example(n):
            return 1e-3 * n

        fast = run(compute_time=per_example)
        slow = run(compute_time=per_example,
                   fault_plan=FaultPlan(stragglers={2: 4.0}))
        assert slow.simulated_seconds > fast.simulated_seconds
        assert slow.fault_stats.straggler_seconds > 0
        for k in clean.final_state:
            np.testing.assert_array_equal(slow.final_state[k],
                                          clean.final_state[k])


class TestAbortPaths:
    def test_on_failure_abort_raises_structured_report(self):
        with pytest.raises(TrainingAborted) as exc_info:
            run(fault_plan=FaultPlan(kills={1: 7}),
                on_failure="abort")
        report = exc_info.value.report
        assert report.outcome == "aborted"
        assert report.dead_ranks == [1]
        assert report.world_before == 3
        assert report.stats is not None
        assert "aborted" in str(exc_info.value)

    def test_max_recoveries_exhausted_aborts(self):
        with pytest.raises(TrainingAborted):
            run(world=4, fault_plan=FaultPlan(kills={3: 4, 2: 8}), max_recoveries=1)

    def test_fault_free_plan_changes_nothing(self, clean):
        res = run(fault_plan=FaultPlan())
        assert res.recoveries == 0
        assert res.fault_stats is not None
        for k in clean.final_state:
            np.testing.assert_array_equal(res.final_state[k],
                                          clean.final_state[k])


class TestSlowPeer:
    def test_slow_evaluation_is_not_a_failure(self):
        """Rank 0 evaluates a large test set while its peers already wait
        on it in the next step's allreduce.  A slow peer is not a failure:
        the run completes (the 0.05 s ``recv_timeout`` is ignored) and its
        weights equal the run without a fault plan."""
        x_test, y_test = np.tile(_X, (400, 1)), np.tile(_Y, 400)

        def slow_eval_run(**kw):
            config = SyncSGDConfig(world=4, epochs=2, batch_size=32,
                                   shuffle_seed=SEED, **kw)
            return train_sync_sgd(lambda: mlp(6, [256, 256], 3, seed=SEED),
                                  sgd_builder, ConstantLR(0.1), _X, _Y,
                                  x_test, y_test, config)

        plain = slow_eval_run()
        res = slow_eval_run(fault_plan=FaultPlan(), recv_timeout=0.05)
        assert res.recoveries == 0 and res.fault_reports == []
        for k in plain.final_state:
            assert res.final_state[k].tobytes() == plain.final_state[k].tobytes()


class TestResultSurface:
    def test_fault_free_runs_have_no_fault_stats(self, clean):
        assert clean.fault_stats is None
        assert clean.fault_reports == []
        assert clean.recoveries == 0
        assert clean.final_world == 3

    def test_time_curve_is_monotone_across_recovery(self):
        res = run(fault_plan=FaultPlan(kills={1: 7}),
                  compute_time=lambda n: 1e-3 * n,
                  restart_overhead_seconds=1.0)
        times = [t for _, t, _ in res.time_curve]
        assert times == sorted(times)
        assert [e for e, _, _ in res.time_curve] == [1, 2, 3, 4]


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs,needle", [
        (dict(world=0, epochs=1, batch_size=8), "world"),
        (dict(world=2, epochs=0, batch_size=8), "epochs"),
        (dict(world=2, epochs=1, batch_size=8, mode="gossip"), "mode"),
        (dict(world=2, epochs=1, batch_size=8, algorithm="nccl"), "algorithm"),
        (dict(world=3, epochs=1, batch_size=8, algorithm="rhd"), "power-of-two"),
        (dict(world=4, epochs=1, batch_size=2), "batch"),
        (dict(world=2, epochs=1, batch_size=8, eval_every=0), "eval_every"),
        (dict(world=2, epochs=1, batch_size=8, checkpoint_every=0),
         "checkpoint_every"),
        (dict(world=2, epochs=1, batch_size=8, on_failure="panic"),
         "on_failure"),
        (dict(world=2, epochs=1, batch_size=8, max_recoveries=-1),
         "max_recoveries"),
        (dict(world=2, epochs=1, batch_size=8,
              restart_overhead_seconds=-1.0), "restart_overhead"),
    ])
    def test_bad_configs_fail_eagerly_with_context(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            SyncSGDConfig(**kwargs)
