"""Augmentation and BatchLoader tests."""

import numpy as np
import pytest

from repro.data import (
    AUGMENTATIONS,
    BatchLoader,
    intensity_jitter,
    pipeline,
    random_crop,
    random_flip,
)
from repro.data.datasets import IMAGENET, TARGET_ACCURACY, proxy_dataset


def batch(n=8, c=3, s=8, seed=0):
    return np.random.default_rng(seed).normal(size=(n, c, s, s))


class TestAugment:
    def test_flip_preserves_shape_and_values(self):
        x = batch()
        out = random_flip(x, np.random.default_rng(0))
        assert out.shape == x.shape
        # each example is either identical or exactly mirrored
        for i in range(len(x)):
            same = np.array_equal(out[i], x[i])
            mirrored = np.array_equal(out[i], x[i, :, :, ::-1])
            assert same or mirrored

    def test_flip_does_not_mutate_input(self):
        x = batch()
        x0 = x.copy()
        random_flip(x, np.random.default_rng(1))
        assert np.array_equal(x, x0)

    def test_crop_preserves_shape(self):
        x = batch()
        out = random_crop(pad=2)(x, np.random.default_rng(0))
        assert out.shape == x.shape

    def test_crop_zero_offset_possible(self):
        """Some crop offsets reproduce the original interior."""
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        rng = np.random.default_rng(0)
        outs = {random_crop(1)(x, rng).tobytes() for _ in range(50)}
        assert x.tobytes() in outs  # identity crop occurs
        assert len(outs) > 1  # and so do shifted crops

    def test_jitter_bounded(self):
        x = np.ones((4, 1, 4, 4))
        out = intensity_jitter(0.2)(x, np.random.default_rng(0))
        assert np.all(out > 0.5) and np.all(out < 1.5)

    def test_pipeline_composition(self):
        x = batch()
        p = pipeline(random_flip, random_crop(1))
        out = p(x, np.random.default_rng(0))
        assert out.shape == x.shape

    def test_registry_regimes(self):
        assert set(AUGMENTATIONS) == {"none", "weak", "heavy"}
        x = batch()
        assert np.array_equal(AUGMENTATIONS["none"](x, np.random.default_rng(0)), x)

    def test_deterministic_given_rng(self):
        x = batch()
        a = AUGMENTATIONS["heavy"](x, np.random.default_rng(5))
        b = AUGMENTATIONS["heavy"](x, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestBatchLoader:
    def data(self, n=100):
        rng = np.random.default_rng(0)
        return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 4, size=n)

    def test_covers_every_example_once(self):
        x, y = self.data()
        loader = BatchLoader(x, y, batch_size=32, seed=1)
        seen = sum(len(yb) for _, yb in loader)
        assert seen == 100

    def test_batches_per_epoch(self):
        x, y = self.data(100)
        assert BatchLoader(x, y, 32).batches_per_epoch == 4
        assert len(BatchLoader(x, y, 25)) == 4

    def test_epochs_reshuffle(self):
        x, y = self.data()
        loader = BatchLoader(x, y, batch_size=100, seed=1)
        (b1,), (b2,) = (list(b) for b in loader.epochs(2))
        assert not np.array_equal(b1[0], b2[0])  # different epoch order
        assert loader.epoch == 2  # epochs() leaves the loader past the last

    def test_same_epoch_is_deterministic(self):
        """Iterating without advancing replays the identical epoch."""
        x, y = self.data()
        loader = BatchLoader(x, y, batch_size=32, seed=1, augment="heavy")
        first = [(xb.copy(), yb.copy()) for xb, yb in loader]
        second = list(loader)
        assert loader.epoch == 0
        for (x1, y1), (x2, y2) in zip(first, second, strict=True):
            assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_set_epoch_matches_epochs_iterator(self):
        x, y = self.data()
        a = BatchLoader(x, y, batch_size=32, seed=5)
        b = BatchLoader(x, y, batch_size=32, seed=5)
        via_epochs = [yb for batches in a.epochs(3) for _, yb in batches]
        via_set = []
        for epoch in range(3):
            b.set_epoch(epoch)
            via_set.extend(yb for _, yb in b)
        assert all(np.array_equal(p, q) for p, q in zip(via_epochs, via_set))

    def test_set_epoch_validates(self):
        x, y = self.data()
        loader = BatchLoader(x, y, batch_size=32)
        with pytest.raises(ValueError):
            loader.set_epoch(-1)

    def test_no_shuffle_is_sequential(self):
        x, y = self.data()
        loader = BatchLoader(x, y, batch_size=40, shuffle=False)
        xb, yb = next(iter(loader))
        assert np.array_equal(xb, x[:40])

    def test_sharding_partitions_batch(self):
        x, y = self.data(64)
        loaders = [BatchLoader(x, y, 32, world=4, rank=r, seed=2) for r in range(4)]
        batches = [list(ldr) for ldr in loaders]
        # each rank sees 8 examples per global batch
        assert all(len(b[0][1]) == 8 for b in batches)
        total = sum(len(yb) for b in batches for _, yb in b)
        assert total == 64

    def test_shards_are_disjoint(self):
        x = np.arange(40, dtype=float).reshape(40, 1)
        y = np.arange(40)
        seen = []
        for r in range(4):
            for _, yb in BatchLoader(x, y, 20, world=4, rank=r, seed=3):
                seen.extend(yb.tolist())
        assert sorted(seen) == list(range(40))

    def test_augmentation_applied(self):
        x, y = self.data()
        plain = BatchLoader(x, y, 100, augment="none", seed=4)
        augd = BatchLoader(x, y, 100, augment="heavy", seed=4)
        (xp, _), = list(plain)
        (xa, _), = list(augd)
        assert not np.array_equal(xp, xa)

    def test_validation(self):
        x, y = self.data()
        with pytest.raises(ValueError):
            BatchLoader(x, y[:10], 32)
        with pytest.raises(ValueError):
            BatchLoader(x, y, 0)
        with pytest.raises(ValueError):
            BatchLoader(x, y, 32, world=2, rank=2)
        with pytest.raises(KeyError):
            BatchLoader(x, y, 32, augment="mixup")


class TestDatasetSpecs:
    def test_imagenet_constants(self):
        assert IMAGENET.train_images == 1_281_167
        assert IMAGENET.val_images == 50_000
        assert IMAGENET.classes == 1000

    def test_table3_targets(self):
        assert TARGET_ACCURACY["alexnet"] == 0.58
        assert TARGET_ACCURACY["resnet50"] == 0.753

    def test_proxy_datasets_build(self):
        ds = proxy_dataset("tiny")
        assert ds.n_train == 512

    def test_unknown_proxy_raises(self):
        with pytest.raises(KeyError):
            proxy_dataset("huge")


class TestReusedBatchBuffers:
    """reuse_buffers=True gathers via np.take(out=...) into one persistent
    buffer; batch values must be identical to the fancy-indexed default."""

    def data(self, n=100):
        rng = np.random.default_rng(7)
        return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 4, size=n)

    def test_values_identical_to_fancy_indexing(self):
        x, y = self.data()
        plain = BatchLoader(x, y, 32, seed=3)
        reused = BatchLoader(x, y, 32, seed=3,
                             reuse_buffers=True)
        for (xa, ya), (xb, yb) in zip(plain, reused, strict=True):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_batches_share_one_buffer(self):
        x, y = self.data()
        loader = BatchLoader(x, y, 25, seed=3,
                             reuse_buffers=True)
        bases = {xb.base is None and id(xb) or id(xb.base) for xb, _ in loader}
        assert len(bases) == 1  # every batch is a view of the same buffer

    def test_short_final_batch_is_prefix_view(self):
        x, y = self.data(70)  # 32 + 32 + 6
        loader = BatchLoader(x, y, 32, seed=1,
                             reuse_buffers=True)
        sizes = [len(yb) for _, yb in loader]
        assert sizes == [32, 32, 6]
        plain = BatchLoader(x, y, 32, seed=1)
        for (xa, ya), (xb, yb) in zip(plain, loader, strict=True):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_augmented_epochs_match(self):
        # augmentation draws from the same rng stream either way
        x, y = self.data()
        plain = BatchLoader(x, y, 32, seed=5, augment="heavy")
        reused = BatchLoader(x, y, 32, seed=5, augment="heavy", reuse_buffers=True)
        for ea, eb in zip(plain.epochs(2), reused.epochs(2), strict=True):
            for (xa, ya), (xb, yb) in zip(ea, eb, strict=True):
                np.testing.assert_array_equal(xa, xb)
                np.testing.assert_array_equal(ya, yb)
