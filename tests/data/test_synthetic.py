"""Synthetic dataset generator tests."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core import SGD, Trainer
from repro.data import PROXY_CONFIGS, SyntheticConfig, gaussian_blobs, make_dataset
from repro.data.synthetic import _gaussian_blur
from repro.nn.models import mlp


def small_cfg(**kw):
    defaults = dict(num_classes=4, image_size=8, train_size=256, test_size=64, seed=1)
    defaults.update(kw)
    return SyntheticConfig(**defaults)


def test_shapes_and_dtypes():
    ds = make_dataset(small_cfg())
    assert ds.x_train.shape == (256, 3, 8, 8)
    assert ds.y_train.shape == (256,)
    assert ds.x_test.shape == (64, 3, 8, 8)
    assert ds.y_train.dtype == np.int64
    assert ds.x_train.dtype == np.float64


def test_labels_in_range_all_classes_present():
    ds = make_dataset(small_cfg(train_size=1000))
    assert ds.y_train.min() >= 0
    assert ds.y_train.max() < 4
    assert len(np.unique(ds.y_train)) == 4


def test_standardised_with_train_stats():
    ds = make_dataset(small_cfg())
    assert abs(ds.x_train.mean()) < 1e-10
    assert abs(ds.x_train.std() - 1.0) < 1e-10


def test_deterministic_by_seed():
    a = make_dataset(small_cfg(seed=7))
    b = make_dataset(small_cfg(seed=7))
    assert np.array_equal(a.x_train, b.x_train)
    c = make_dataset(small_cfg(seed=8))
    assert not np.array_equal(a.x_train, c.x_train)


def test_noise_controls_difficulty():
    """A linear probe separates the easy version better than the hard one."""

    def probe_accuracy(noise):
        ds = make_dataset(small_cfg(noise=noise, train_size=512, test_size=256))
        model = mlp(3 * 64, [], 4, flatten_input=True, seed=0)
        trainer = Trainer(model, SGD(model.parameters(), momentum=0.9,
                                     weight_decay=0.0), 0.05, shuffle_seed=0)
        res = trainer.fit(ds.x_train, ds.y_train, ds.x_test, ds.y_test,
                          epochs=5, batch_size=64)
        return res.final_test_accuracy

    assert probe_accuracy(0.2) > probe_accuracy(3.0)


def test_learnable_but_not_trivial():
    ds = make_dataset(small_cfg(noise=1.0, train_size=512))
    model = mlp(3 * 64, [32], 4, flatten_input=True, seed=0)
    trainer = Trainer(model, SGD(model.parameters(), weight_decay=0.0001),
                      0.05, shuffle_seed=0)
    res = trainer.fit(ds.x_train, ds.y_train, ds.x_test, ds.y_test,
                      epochs=10, batch_size=64)
    assert 0.4 < res.final_test_accuracy <= 1.0


def test_subset():
    ds = make_dataset(small_cfg())
    sub = ds.subset(100, 32)
    assert sub.n_train == 100 and sub.n_test == 32
    assert sub.input_shape == ds.input_shape


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(num_classes=1)
    with pytest.raises(ValueError):
        SyntheticConfig(image_size=2)
    with pytest.raises(ValueError):
        SyntheticConfig(train_size=0)
    with pytest.raises(ValueError):
        SyntheticConfig(noise=-1)


def test_negative_prototype_smoothness_rejected():
    with pytest.raises(ValueError, match="prototype_smoothness"):
        SyntheticConfig(prototype_smoothness=-0.5)
    make_dataset(small_cfg(prototype_smoothness=0.0))


def test_negative_max_shift_rejected():
    with pytest.raises(ValueError, match="max_shift"):
        SyntheticConfig(max_shift=-1)
    make_dataset(small_cfg(max_shift=0))


def test_cfg_and_kwargs_mutually_exclusive():
    with pytest.raises(TypeError):
        make_dataset(small_cfg(), num_classes=3)


def test_kwargs_form():
    ds = make_dataset(num_classes=3, image_size=8, train_size=64, test_size=16)
    assert ds.num_classes == 3


#: sha256 over x_train, y_train, x_test, y_test of each proxy dataset at its
#: own seed and at seed 0, as generated with ``scipy.ndimage.gaussian_filter``
#: blurring the prototypes; any change to the generator's arithmetic shows here
PROXY_SHA256 = {
    ("tiny", 42): "b610575759aac9e75764adf7fb96f8bf3af8a6fa12f4d442c1a0de61f4471968",
    ("tiny", 0): "c2927c170ad55ee55e3c10add4a8bc88d6d4738b6dface45ac1ae6001317938d",
    ("small", 42): "ba2defaacfa664af9b817be3551e5644c7225e41a392b99c8bcb07f406eda6e0",
    ("small", 0): "06f19252811819578fa8ea898f83c1fca86552c639571a65bf23ccbe071b5197",
    ("medium", 42): "e7be414699e161955b3020532fbffa43a1d52267d708ab086ea5f816fe253f3f",
    ("medium", 0): "55c8328bac93a8050458219f87412094a2fb8102f5a1aff8cbb907ffeda20a47",
}


@pytest.mark.parametrize("name,seed", sorted(PROXY_SHA256))
def test_proxy_dataset_bytes_pinned(name, seed):
    ds = make_dataset(replace(PROXY_CONFIGS[name], seed=seed))
    h = hashlib.sha256()
    for a in (ds.x_train, ds.y_train, ds.x_test, ds.y_test):
        h.update(a.tobytes())
    assert h.hexdigest() == PROXY_SHA256[name, seed]


def test_gaussian_blur_equals_scipy_bitwise():
    """The blur is ``scipy.ndimage.gaussian_filter`` bit for bit, including
    lines shorter than the kernel radius (repeated mirroring) and sigma 0."""
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(0)
    sigmas = [0.0, 1e-16, 0.1, 0.5, 1.5, 2.0] + list(rng.uniform(0.05, 3.5, size=10))
    for case in range(400):
        ndim = int(rng.integers(1, 5))
        shape = tuple(int(v) for v in rng.integers(1, 20, size=ndim))
        if case % 5 == 0:  # lines shorter than the kernel radius from sigma 1.4
            shape = tuple(min(v, 5) for v in shape)
        sigma = float(sigmas[case % len(sigmas)])
        axes = tuple(sorted(rng.choice(ndim, size=int(rng.integers(1, ndim + 1)),
                                       replace=False).tolist()))
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
        want = ndimage.gaussian_filter(
            x, sigma=[sigma if a in axes else 0.0 for a in range(ndim)]
        )
        got = _gaussian_blur(x, sigma, axes)
        assert got.shape == x.shape
        assert got.tobytes() == want.tobytes(), (shape, sigma, axes)


class TestGaussianBlobs:
    def test_shapes(self):
        x, y = gaussian_blobs(100, num_classes=5, dim=4)
        assert x.shape == (100, 4) and y.shape == (100,)
        assert set(np.unique(y)) <= set(range(5))

    def test_deterministic(self):
        x1, _ = gaussian_blobs(50, seed=3)
        x2, _ = gaussian_blobs(50, seed=3)
        assert np.array_equal(x1, x2)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_blobs(0)
        with pytest.raises(ValueError):
            gaussian_blobs(10, num_classes=1)
