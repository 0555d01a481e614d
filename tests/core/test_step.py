"""``backprop``, the one training step: the serial trainer and the cluster
ranks run it, so a world-1 cluster run is the serial run bit for bit, and
ranks left with an empty shard by the last short batch still sum to the
serial step."""

import numpy as np
import pytest

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.core import LARS, SGD, ConstantLR, Trainer, backprop
from repro.data import gaussian_blobs, make_dataset
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import micro_resnet, mlp

_X, _Y = gaussian_blobs(98, num_classes=3, dim=5, seed=7)
_IMAGES = make_dataset(num_classes=4, image_size=8, train_size=40, test_size=8,
                       noise=1.0, seed=5)


def _serial(builder, opt_builder, x, y, xt, yt, batch, static, epochs=2):
    model = builder()
    trainer = Trainer(model, opt_builder(model.parameters()), ConstantLR(0.05),
                      shuffle_seed=11, static_memory=static)
    fit = trainer.fit(x, y, xt, yt, epochs=epochs, batch_size=batch)
    return model.state_dict(), fit


def _cluster(builder, opt_builder, x, y, xt, yt, batch, static, world, epochs=2):
    config = SyncSGDConfig(world=world, epochs=epochs, batch_size=batch,
                           shuffle_seed=11, static_memory=static)
    result = train_sync_sgd(builder, opt_builder, ConstantLR(0.05),
                            x, y, xt, yt, config)
    return result.final_state, result


_CASES = {
    "mlp-sgd-momentum": (
        lambda: mlp(5, [6], 3, seed=3),
        lambda p: SGD(p, momentum=0.9, weight_decay=0.0005),
        (_X, _Y, _X[:16], _Y[:16]), 32),
    "micro_resnet-lars": (
        lambda: micro_resnet(num_classes=4, width=4, seed=3),
        lambda p: LARS(p, trust_coefficient=0.01, momentum=0.9, weight_decay=5e-4),
        (_IMAGES.x_train, _IMAGES.y_train, _IMAGES.x_test, _IMAGES.y_test), 16),
}


@pytest.mark.parametrize("static", [False, True], ids=["eager", "static"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_world_one_cluster_equals_serial_bitwise(case, static):
    builder, opt_builder, data, batch = _CASES[case]
    serial, fit = _serial(builder, opt_builder, *data, batch, static)
    cluster, result = _cluster(builder, opt_builder, *data, batch, static, world=1)
    for k in serial:
        assert cluster[k].tobytes() == serial[k].tobytes(), k
    # ClusterResult is a TrainResult: the same summaries, read the same way
    assert result.accuracy_curve() == fit.accuracy_curve()
    assert result.total_iterations == fit.total_iterations


@pytest.mark.parametrize("static", [False, True], ids=["eager", "static"])
@pytest.mark.parametrize("batch_norm", [False, "sync"], ids=["plain", "syncbn"])
def test_empty_shards_match_serial(batch_norm, static):
    # 98 examples at batch 32: the last batch holds 2, so on 4 ranks two
    # shards are empty; with SyncBatchNorm they still join its collectives
    def builder():
        return mlp(5, [6], 3, batch_norm=batch_norm, seed=3)

    def opt_builder(params):
        return SGD(params, momentum=0.9, weight_decay=0.0005)

    data = (_X, _Y, _X[:16], _Y[:16])
    serial, _ = _serial(builder, opt_builder, *data, 32, static)
    cluster, _ = _cluster(builder, opt_builder, *data, 32, static, world=4)
    for k in serial:
        assert np.abs(cluster[k] - serial[k]).max() <= 1e-9, k


def test_backprop_sums_scaled_chunks_to_the_batch_gradient():
    model = mlp(5, [6], 3, seed=3)
    params = model.parameters()
    loss = SoftmaxCrossEntropy()
    x, y = _X[:10], _Y[:10]

    full_loss, full_correct = backprop(model, loss, params, x, y, [slice(None)], 10)
    full = [p.grad.copy() for p in params]
    parts_loss, parts_correct = backprop(
        model, loss, params, x, y, [np.arange(3), np.arange(3, 3), np.arange(3, 10)], 10)
    for p, g in zip(params, full):
        np.testing.assert_allclose(p.grad, g, rtol=0, atol=1e-12)
    assert parts_loss == pytest.approx(full_loss, abs=1e-12)
    assert parts_correct == full_correct

    assert backprop(model, loss, params, x, y, [], 10) == (0.0, 0.0)
    assert all(not p.grad.any() for p in params)  # no chunks: only zeroed
