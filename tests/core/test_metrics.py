"""Metric tests."""

import numpy as np
import pytest

from repro.core import RunningMean, top1_accuracy, top_k_accuracy
from repro.core.metrics import EpochRecord, evaluate


def test_top1_perfect():
    logits = np.eye(4) * 10
    assert top1_accuracy(logits, np.arange(4)) == 1.0


def test_top1_half():
    logits = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert top1_accuracy(logits, np.array([0, 1])) == 0.5


def test_top5_contains_target():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(20, 10))
    t1 = top_k_accuracy(logits, rng.integers(0, 10, 20), k=1)
    t5 = top_k_accuracy(logits, rng.integers(0, 10, 20), k=5)
    assert 0 <= t1 <= t5 <= 1


def test_top_k_equals_one_when_k_is_num_classes():
    logits = np.random.default_rng(1).normal(size=(8, 5))
    assert top_k_accuracy(logits, np.zeros(8, dtype=int), k=5) == 1.0


def test_top_k_invalid_k():
    with pytest.raises(ValueError):
        top_k_accuracy(np.zeros((2, 3)), np.zeros(2, dtype=int), k=4)


def test_shape_validation():
    with pytest.raises(ValueError):
        top1_accuracy(np.zeros((2, 3)), np.zeros(3, dtype=int))


def test_running_mean_weighted():
    rm = RunningMean()
    rm.update(1.0, weight=3)
    rm.update(5.0, weight=1)
    assert rm.mean == pytest.approx(2.0)


def test_running_mean_empty_is_nan():
    # The mean of zero observations is undefined, not 0.0 — a silent zero
    # would be indistinguishable from a genuine 0% accuracy.
    assert np.isnan(RunningMean().mean)


def test_running_mean_reset():
    rm = RunningMean()
    rm.update(10.0)
    rm.reset()
    assert np.isnan(rm.mean)
    rm.update(4.0)
    assert rm.mean == pytest.approx(4.0)


def test_epoch_record_as_dict():
    r = EpochRecord(1, 0.5, 0.8, 0.7, 0.01, 100)
    d = r.as_dict()
    assert d["epoch"] == 1 and d["test_accuracy"] == 0.7


@pytest.mark.parametrize("name", ["micro_resnet", "micro_alexnet", "mlp"])
def test_evaluate_is_exact_at_any_batch(name):
    from repro.core import SGD, Trainer
    from repro.data import proxy_dataset
    from repro.nn.models import build_model

    ds = proxy_dataset("tiny")
    kwargs = {"micro_alexnet": {"image_size": ds.input_shape[-1]},
              "mlp": {"in_features": int(np.prod(ds.input_shape)), "hidden": [32],
                      "flatten_input": True}}.get(name, {})
    model = build_model(name, num_classes=ds.num_classes, seed=3, **kwargs)
    trainer = Trainer(model, SGD(model.parameters(), momentum=0.9), 0.05)
    trainer.fit(ds.x_train, ds.y_train, ds.x_test, ds.y_test, epochs=1, batch_size=32)
    model.eval()
    whole = top1_accuracy(model.forward(ds.x_test), ds.y_test)
    model.train()
    n = len(ds.x_test)
    accs = [evaluate(model, ds.x_test, ds.y_test, b) for b in (1, 7, 32, n, 2 * n)]
    assert accs == [whole] * len(accs)
    assert model.training  # the caller's mode is restored


def test_evaluate_edge_cases():
    from repro.nn.models import mlp

    model = mlp(4, [3], 2, seed=0).eval()
    x = np.zeros((0, 4))
    assert np.isnan(evaluate(model, x, np.zeros(0, dtype=int), 8))
    assert not model.training  # eval mode is kept, too
    with pytest.raises(ValueError):
        evaluate(model, x, np.zeros(0, dtype=int), 0)
