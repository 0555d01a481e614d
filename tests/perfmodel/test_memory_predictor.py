"""The activation-memory predictor is pinned to the measured peak.

``predict_activation_bytes`` records one training pass of a copy of the
model — the recording a live context makes on its first step — so its
numbers must match a real static-memory step: the acceptance bound is 5%,
but by construction the match is exact and that is what we assert.
"""

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.memory import MemoryContext, MemoryPlan, plan_training_step
from repro.nn.models import build_model
from repro.perfmodel import max_batch_size, predict_activation_bytes
from repro.perfmodel.memory import sweep_batch_sizes

BATCHES = [8, 32, 128]


def _measure_peak(model, in_shape, batch, steps=2):
    """Run static-memory training steps; return the live peak bytes."""
    loss = SoftmaxCrossEntropy(label_smoothing=0.1)
    mem = MemoryContext()
    model.bind_memory(mem)
    loss.bind_memory(mem)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, *in_shape))
    y = rng.integers(0, 10, size=batch)
    for _ in range(steps):
        model.zero_grad()
        loss.forward(model.forward(x), y)
        model.backward(loss.backward())
    return mem.arena.peak_bytes


@pytest.mark.parametrize("batch", BATCHES)
def test_prediction_matches_measured_peak(batch):
    in_shape = (3, 16, 16)
    est = predict_activation_bytes(
        build_model("micro_resnet", width=8), in_shape, batch,
        loss=SoftmaxCrossEntropy(label_smoothing=0.1))
    measured = _measure_peak(build_model("micro_resnet", width=8),
                             in_shape, batch)
    # acceptance bound is 5%; recording the same pass makes it exact
    assert abs(est.peak_bytes - measured) <= 0.05 * measured
    assert est.peak_bytes == measured


def test_prediction_matches_for_mlp():
    in_shape = (32,)
    model_kwargs = dict(in_features=32, hidden=[24, 16], num_classes=10,
                        batch_norm=True, flatten_input=False)
    est = predict_activation_bytes(
        build_model("mlp", **model_kwargs), in_shape, 16,
        loss=SoftmaxCrossEntropy(label_smoothing=0.1))
    measured = _measure_peak(build_model("mlp", **model_kwargs), in_shape, 16)
    assert est.peak_bytes == measured


def test_peak_grows_monotonically_with_batch():
    ests = sweep_batch_sizes(lambda: build_model("micro_resnet", width=8),
                             (3, 16, 16), BATCHES)
    peaks = [e.peak_bytes for e in ests]
    assert peaks == sorted(peaks) and peaks[0] < peaks[-1]
    # per-example cost is roughly flat: every buffer but the few
    # weight-shaped gradient temporaries grows linearly with the batch
    per_ex = [e.bytes_per_example for e in ests]
    assert max(per_ex) < 2.5 * min(per_ex)


def test_estimate_decomposition_is_consistent():
    model = build_model("micro_resnet", width=8)
    est = predict_activation_bytes(model, (3, 16, 16), 8)
    plan = plan_training_step(model, (3, 16, 16), 8)
    # the packed slab holds the live peak and at most every buffer end to end
    assert 0 < est.peak_bytes <= est.pool_bytes <= sum(plan.sizes)
    assert est.num_buffers == plan.num_buffers > 0


def test_max_batch_size_is_tight():
    builder = lambda: build_model("micro_resnet", width=8)  # noqa: E731
    in_shape = (3, 16, 16)
    b = max_batch_size(builder, in_shape, 64 * 2**20)
    assert b >= 1
    fits = predict_activation_bytes(builder(), in_shape, b,
                                    loss=SoftmaxCrossEntropy())
    over = predict_activation_bytes(builder(), in_shape, b + 1,
                                    loss=SoftmaxCrossEntropy())
    assert fits.pool_bytes <= 64 * 2**20 < over.pool_bytes


@pytest.mark.parametrize("name,kwargs,in_shape", [
    ("micro_resnet", dict(width=8), (3, 16, 16)),
    ("micro_alexnet", dict(image_size=16, norm="lrn", dropout=0.25), (3, 16, 16)),
])
def test_extrapolated_plan_equals_recorded_plan(name, kwargs, in_shape):
    # Two small recordings predict a larger batch's plan byte for byte
    # (every layer below its code-path crossovers at these sizes).
    def plan(b):
        return plan_training_step(build_model(name, **kwargs), in_shape, b,
                                  loss=SoftmaxCrossEntropy())

    one, two = plan(1), plan(2)
    for b in (3, 24):
        want, got = plan(b), one.at_batch(two, b)
        assert [x.shape for x in got.buffers] == [x.shape for x in want.buffers]
        assert got.offsets == want.offsets
        assert (got.peak_bytes, got.pool_bytes) == (want.peak_bytes, want.pool_bytes)


def test_extrapolation_refuses_different_passes():
    model = build_model("micro_resnet", width=8)
    train = plan_training_step(model, (3, 16, 16), 1)
    infer = MemoryPlan.build(model, (3, 16, 16), 2, training=False)
    with pytest.raises(ValueError, match="same pass"):
        train.at_batch(infer, 8)


def test_max_batch_size_is_tight_across_a_code_path_change():
    # At width 32, Conv2D's backward switches GEMM strategy (dropping its
    # staging buffers) above batch 14, so batches 1 and 2 mispredict the
    # answer; the search must still land exactly on the recorded wall.
    builder = lambda: build_model("micro_resnet", width=32)  # noqa: E731
    in_shape, budget = (3, 16, 16), 48 * 2**20
    b = max_batch_size(builder, in_shape, budget)

    def plan(n):
        return plan_training_step(builder(), in_shape, n, loss=SoftmaxCrossEntropy())

    assert plan(b).pool_bytes <= budget < plan(b + 1).pool_bytes
    assert plan(1).at_batch(plan(2), b).pool_bytes != plan(b).pool_bytes


def test_max_batch_size_zero_when_nothing_fits():
    assert max_batch_size(lambda: build_model("micro_resnet", width=8),
                          (3, 16, 16), 1024) == 0
