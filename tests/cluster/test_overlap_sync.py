"""Overlapped bucketed gradient exchange, end to end through sync-SGD.

Three families of invariants:

* **Parity** — bucketing and overlap are pure schedule transformations.
  For partition-invariant algorithms (tree, rhd) the final weights are
  *bitwise identical* to the monolithic exchange at any bucket size; ring
  reassigns chunk ownership by buffer position, so it agrees to
  summation-reassociation tolerance only (documented caveat).
* **Speed** — on a bandwidth-heavy α-β profile with a many-tensor model
  (the ResNet regime), overlap cuts simulated step time ≥25% at P=8 —
  the acceptance bar — and the exposed/busy accounting shows most comm
  hidden.
* **Faults** — an armed fault plan prices each bucket's messages
  individually: more buckets, more fault draws, values still exact.
"""

import numpy as np
import pytest

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.comm import NetworkProfile
from repro.core import SGD, ConstantLR
from repro.faults import FaultPlan
from repro.nn.models import micro_resnet, mlp

SEED = 13
_RNG = np.random.default_rng(7)
_CENTRES = _RNG.normal(size=(3, 8)) * 2.5
_Y = _RNG.integers(0, 3, size=64)
_X = _CENTRES[_Y] + _RNG.normal(size=(64, 8)) * 0.5


def _mlp_builder():
    return mlp(8, [10], 3, seed=SEED)


def _sgd(params):
    return SGD(params, momentum=0.9, weight_decay=0.0005)


def _run(world=4, algorithm="tree", bucket_bytes=None, overlap=False,
         fault_plan=None, profile=None, compute_time=None, epochs=2):
    config = SyncSGDConfig(
        world=world, epochs=epochs, batch_size=32, algorithm=algorithm,
        bucket_bytes=bucket_bytes, overlap=overlap, fault_plan=fault_plan,
        profile=profile, compute_time=compute_time, shuffle_seed=SEED,
    )
    return train_sync_sgd(_mlp_builder, _sgd, ConstantLR(0.1),
                          _X, _Y, _X[:16], _Y[:16], config)


def _max_diff(state_a, state_b):
    return max(np.abs(state_a[k] - state_b[k]).max() for k in state_a)


class TestParity:
    @pytest.mark.parametrize("algorithm", ["tree", "rhd"])
    @pytest.mark.parametrize("bucket_bytes", [64, 1024, None])
    def test_overlap_bitwise_identical_partition_invariant(
        self, algorithm, bucket_bytes
    ):
        mono = _run(algorithm=algorithm)
        over = _run(algorithm=algorithm, bucket_bytes=bucket_bytes,
                    overlap=True)
        assert _max_diff(mono.final_state, over.final_state) == 0.0

    def test_ring_agrees_to_reassociation_tolerance(self):
        mono = _run(algorithm="ring")
        over = _run(algorithm="ring", bucket_bytes=256, overlap=True)
        assert _max_diff(mono.final_state, over.final_state) < 1e-12

    def test_blocking_bucketed_bitwise_identical(self):
        mono = _run(algorithm="tree")
        bucketed = _run(algorithm="tree", bucket_bytes=128, overlap=False)
        assert _max_diff(mono.final_state, bucketed.final_state) == 0.0

    def test_overlap_accuracy_unchanged(self):
        mono = _run()
        over = _run(bucket_bytes=256, overlap=True)
        assert over.final_test_accuracy == mono.final_test_accuracy


def _resnet_run(overlap: bool, world: int = 8):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(32, 3, 8, 8))
    y = rng.integers(0, 10, size=32)
    config = SyncSGDConfig(
        world=world, epochs=1, batch_size=32, algorithm="tree",
        profile=NetworkProfile(alpha=1e-5, beta=1e-8),
        compute_time=lambda k: 2.5e-3 * k,
        bucket_bytes=(1 << 14) if overlap else None, overlap=overlap,
        shuffle_seed=0,
    )
    return train_sync_sgd(
        lambda: micro_resnet(num_classes=10, seed=1),
        lambda p: SGD(p, momentum=0.9), ConstantLR(0.1),
        x, y, x[:8], y[:8], config,
    )


class TestOverlapSpeedup:
    def test_quarter_step_time_reduction_at_p8(self):
        """The acceptance bar: ≥25% simulated-time reduction for the
        micro-ResNet proxy at P=8 on a non-trivial α-β profile."""
        mono = _resnet_run(overlap=False)
        over = _resnet_run(overlap=True)
        reduction = 1.0 - over.simulated_seconds / mono.simulated_seconds
        assert reduction >= 0.25

    def test_exposed_vs_busy_accounting(self):
        mono = _resnet_run(overlap=False)
        over = _resnet_run(overlap=True)
        # monolithic: every comm second is exposed
        assert mono.exposed_comm_seconds == pytest.approx(
            mono.comm_busy_seconds
        )
        assert mono.overlap_efficiency == pytest.approx(0.0)
        # overlapped: most comm hides under backward
        assert over.exposed_comm_seconds < over.comm_busy_seconds
        assert over.overlap_efficiency > 0.5
        assert over.exposed_comm_seconds < mono.exposed_comm_seconds


class TestFaultsPerBucket:
    def test_fault_plan_sees_per_bucket_messages(self):
        """Splitting the exchange into buckets multiplies the messages an
        armed fault plan draws on — each bucket's wire traffic is priced
        individually (the regression this PR fixes pinned fault decisions
        to one draw per step)."""
        plan = FaultPlan(seed=5, delay_prob=0.99, delay_seconds=1e-6)
        mono = _run(fault_plan=plan)
        bucketed = _run(fault_plan=FaultPlan(seed=5, delay_prob=0.99,
                                             delay_seconds=1e-6),
                        bucket_bytes=128, overlap=True)
        assert mono.fault_stats is not None
        assert bucketed.fault_stats is not None
        # every posted message is delayed; bucketing posts strictly more
        assert bucketed.fault_stats.messages_delayed > \
            mono.fault_stats.messages_delayed
        assert bucketed.messages > mono.messages

    def test_values_exact_under_message_loss(self):
        clean = _run(bucket_bytes=128, overlap=True)
        lossy = _run(bucket_bytes=128, overlap=True,
                     fault_plan=FaultPlan(seed=2, drop_prob=0.1))
        assert _max_diff(clean.final_state, lossy.final_state) == 0.0
        assert lossy.simulated_seconds > clean.simulated_seconds
