"""Synthetic image-classification datasets — the ImageNet stand-in.

We cannot ship ImageNet-1k (1.28 M JPEG images), and the large-batch
phenomena the paper studies are *optimisation* phenomena: they appear on any
classification task whose loss surface is hard enough that a mis-scaled
learning rate diverges and a well-scaled one does not.  The generator below
produces class-clustered images with controllable difficulty:

* each class has a smooth random "prototype" image (low-frequency structure,
  like natural-image classes);
* each example is its class prototype, randomly shifted, scaled in
  intensity, and buried in pixel noise;
* ``difficulty`` widens the intra-class jitter and shrinks the prototype
  separation so the proxy is not trivially linearly separable.

All randomness flows through one seed, so every experiment is exactly
reproducible and every simulated worker can regenerate the same shard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SyntheticConfig", "Dataset", "make_dataset", "gaussian_blobs"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator knobs for a synthetic classification dataset."""

    num_classes: int = 10
    image_size: int = 16
    channels: int = 3
    train_size: int = 2000
    test_size: int = 500
    noise: float = 0.6  # pixel-noise std relative to prototype contrast
    prototype_smoothness: float = 2.0  # gaussian blur sigma of prototypes
    max_shift: int = 2  # random translation in pixels (built-in jitter)
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.image_size < 4:
            raise ValueError("image_size must be >= 4")
        if self.train_size <= 0 or self.test_size <= 0:
            raise ValueError("dataset sizes must be positive")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")
        if self.prototype_smoothness < 0:
            raise ValueError("prototype_smoothness must be non-negative")
        if self.max_shift < 0:
            raise ValueError("max_shift must be non-negative")


@dataclass
class Dataset:
    """In-memory dataset with the standard 4-way split layout."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int
    name: str = "synthetic"

    @property
    def n_train(self) -> int:
        return len(self.x_train)

    @property
    def n_test(self) -> int:
        return len(self.x_test)

    @property
    def input_shape(self) -> tuple[int, ...]:
        return tuple(self.x_train.shape[1:])

    def subset(self, n_train: int, n_test: int | None = None) -> "Dataset":
        """Deterministic prefix subset (for quick smoke experiments)."""
        nt = n_test if n_test is not None else self.n_test
        return Dataset(
            self.x_train[:n_train],
            self.y_train[:n_train],
            self.x_test[:nt],
            self.y_test[:nt],
            self.num_classes,
            name=f"{self.name}[:{n_train}]",
        )


def _gaussian_blur(x: np.ndarray, sigma: float, axes: tuple[int, ...]) -> np.ndarray:
    """Separable Gaussian blur of float64 ``x`` along ``axes``, in that order.

    The arithmetic of ``scipy.ndimage.gaussian_filter`` with its defaults
    (``mode="reflect"``, ``truncate=4.0``), operation for operation, so the
    result is bitwise the same: a kernel of radius ``int(4σ + 0.5)``
    normalised by its sum, edges mirrored with the edge sample repeated,
    and each output the centre tap plus the mirrored tap pairs from the
    outermost inwards.  A sigma ≤ 1e-15 leaves ``x`` as it is.
    """
    if sigma <= 1e-15:
        return x
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * offsets**2)
    w = w / w.sum()
    for axis in axes:
        n = x.shape[axis]
        # the line extended by `radius` mirrored samples at each end, the
        # blurred axis first so that every tap below is a contiguous block
        mirrored = np.arange(-radius, n + radius) % (2 * n)
        padded = np.moveaxis(x, axis, 0).take(
            np.where(mirrored < n, mirrored, 2 * n - 1 - mirrored), axis=0
        )
        out = padded[radius : radius + n] * w[radius]
        pair = np.empty_like(out)
        for j in range(radius, 0, -1):
            np.add(padded[radius - j : radius - j + n], padded[radius + j : radius + j + n],
                   out=pair)
            pair *= w[radius - j]
            out += pair
        x = np.moveaxis(out, 0, axis)
    return x


def _prototypes(cfg: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Smooth per-class prototype images, mutually decorrelated."""
    raw = rng.normal(size=(cfg.num_classes, cfg.channels, cfg.image_size, cfg.image_size))
    smooth = _gaussian_blur(raw, cfg.prototype_smoothness, axes=(2, 3))
    # normalise each prototype to unit contrast so `noise` is interpretable
    flat = smooth.reshape(cfg.num_classes, -1)
    flat = (flat - flat.mean(axis=1, keepdims=True)) / (
        flat.std(axis=1, keepdims=True) + 1e-12
    )
    return flat.reshape(smooth.shape)


def _sample_split(
    cfg: SyntheticConfig,
    protos: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    y = rng.integers(0, cfg.num_classes, size=n)
    x = protos[y].copy()
    # random intensity scale per example (illumination jitter)
    x *= rng.uniform(0.7, 1.3, size=(n, 1, 1, 1))
    # random integer shift per example (vectorised with np.roll per offset)
    if cfg.max_shift > 0:
        shifts = rng.integers(-cfg.max_shift, cfg.max_shift + 1, size=(n, 2))
        for (dy, dx) in np.unique(shifts, axis=0):
            mask = (shifts[:, 0] == dy) & (shifts[:, 1] == dx)
            x[mask] = np.roll(x[mask], (int(dy), int(dx)), axis=(2, 3))
    x += rng.normal(scale=cfg.noise, size=x.shape)
    return x.astype(np.float64), y.astype(np.int64)


def make_dataset(cfg: SyntheticConfig | None = None, **kwargs) -> Dataset:
    """Generate a synthetic dataset (pass a config or config kwargs)."""
    if cfg is None:
        cfg = SyntheticConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either a config or kwargs, not both")
    rng = np.random.default_rng(cfg.seed)
    protos = _prototypes(cfg, rng)
    x_train, y_train = _sample_split(cfg, protos, cfg.train_size, rng)
    x_test, y_test = _sample_split(cfg, protos, cfg.test_size, rng)
    # standardise with train statistics (the usual mean/std preprocessing)
    mu, sd = x_train.mean(), x_train.std() + 1e-12
    return Dataset(
        (x_train - mu) / sd,
        y_train,
        (x_test - mu) / sd,
        y_test,
        cfg.num_classes,
        name=f"synthetic-c{cfg.num_classes}-s{cfg.image_size}",
    )


def gaussian_blobs(
    n: int,
    num_classes: int = 3,
    dim: int = 8,
    separation: float = 3.0,
    noise: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat-vector Gaussian-mixture classification data (unit tests, MLPs)."""
    if n <= 0 or num_classes < 2 or dim <= 0:
        raise ValueError("invalid blob parameters")
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(num_classes, dim)) * separation
    y = rng.integers(0, num_classes, size=n)
    x = centres[y] + rng.normal(scale=noise, size=(n, dim))
    return x, y
