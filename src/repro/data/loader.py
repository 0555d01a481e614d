"""Shard-aware batch iteration with optional augmentation.

The serial :class:`repro.core.Trainer` and the simulated cluster both slice
batches themselves (they need exact control for the consistency tests); this
loader is the user-facing convenience for examples and custom loops, and the
single place augmentation hooks in.

Epoch advance is explicit: iterating the loader always yields the *current*
epoch (same shuffle, same augmentation draws, every time), and training
loops step epochs with :meth:`BatchLoader.epochs` or
:meth:`BatchLoader.set_epoch`.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..cluster.sharding import epoch_permutation, shard_batch
from ..obs import timed as _timed
from .augment import AUGMENTATIONS

__all__ = ["BatchLoader"]


class BatchLoader:
    """Deterministic epoch iterator over (x, y) batches.

    Parameters
    ----------
    x, y:
        Full dataset arrays (never copied; batches are fancy-indexed views).
    batch_size:
        Global batch size.
    augment:
        ``None``/"none", an :data:`AUGMENTATIONS` key, or a callable
        ``(batch, rng) -> batch``.
    world, rank:
        When set, each batch is this rank's shard of the global batch —
        the same slices the simulated cluster uses.
    seed:
        Drives both the epoch shuffle and the augmentation randomness.
    reuse_buffers:
        Gather each shard into a persistent per-loader batch buffer with
        ``np.take(..., out=...)`` instead of allocating a fresh fancy-index
        copy per batch (the steady-state zero-allocation input path).  The
        yielded arrays are views of that buffer, so a batch must be fully
        consumed before requesting the next one.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int,
        augment: str | Callable | None = None,
        world: int = 1,
        rank: int = 0,
        seed: int = 0,
        shuffle: bool = True,
        reuse_buffers: bool = False,
    ):
        if len(x) != len(y):
            raise ValueError("x and y length mismatch")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0 <= rank < world:
            raise ValueError("rank out of range")
        self.x, self.y = x, y
        self.batch_size = batch_size
        self.world, self.rank = world, rank
        self.seed = seed
        self.shuffle = shuffle
        self.epoch = 0
        self._order_cache: tuple[int, np.ndarray] | None = None
        self.reuse_buffers = bool(reuse_buffers)
        self._xbuf: np.ndarray | None = None
        self._ybuf: np.ndarray | None = None
        if augment is None:
            augment = "none"
        if isinstance(augment, str):
            if augment not in AUGMENTATIONS:
                raise KeyError(
                    f"unknown augmentation {augment!r}; available: {sorted(AUGMENTATIONS)}"
                )
            augment = AUGMENTATIONS[augment]
        self._augment = augment

    @property
    def batches_per_epoch(self) -> int:
        return -(-len(self.x) // self.batch_size)

    def __len__(self) -> int:
        return self.batches_per_epoch

    # -- explicit epoch control ------------------------------------------------
    def set_epoch(self, epoch: int) -> None:
        """Position the loader at ``epoch`` (controls shuffle + augmentation)."""
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        self.epoch = int(epoch)

    def epochs(self, num_epochs: int) -> Iterator[Iterator[tuple[np.ndarray, np.ndarray]]]:
        """Yield one batch iterator per epoch, advancing explicitly.

        >>> for batches in loader.epochs(3):
        ...     for xb, yb in batches:
        ...         step(xb, yb)

        Starts at the current epoch and leaves the loader positioned just
        past the last epoch, so successive ``epochs()`` calls continue the
        schedule.
        """
        if num_epochs < 0:
            raise ValueError("num_epochs must be non-negative")
        start = self.epoch
        for epoch in range(start, start + num_epochs):
            self.set_epoch(epoch)
            yield self._iter_epoch()
        self.set_epoch(start + num_epochs)

    def _epoch_order(self) -> np.ndarray:
        """Permutation of the current epoch, cached for re-iteration.

        ``epoch_permutation`` itself memoises across loaders/ranks; the
        loader-local cache additionally skips the hash lookup when the same
        epoch is replayed (the common benchmark/eval pattern).
        """
        if not self.shuffle:
            return np.arange(len(self.x))
        if self._order_cache is None or self._order_cache[0] != self.epoch:
            order = epoch_permutation(len(self.x), self.epoch, self.seed)
            self._order_cache = (self.epoch, order)
        return self._order_cache[1]

    def _iter_epoch(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield this rank's shard of every global batch of the current epoch."""
        n = len(self.x)
        order = self._epoch_order()
        aug_rng = np.random.default_rng((self.seed, self.epoch, self.rank))
        for lo in range(0, n, self.batch_size):
            with _timed("data.batch_fetch", epoch=self.epoch, rank=self.rank):
                global_idx = order[lo : lo + self.batch_size]
                local_idx = shard_batch(global_idx, self.world, self.rank)
                if len(local_idx) == 0:
                    continue
                if self.reuse_buffers:
                    xg, yg = self._gather(local_idx)
                else:
                    xg, yg = self.x[local_idx], self.y[local_idx]
                xb = self._augment(xg, aug_rng)
                batch = xb, yg
            yield batch

    def _gather(self, local_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Copy the shard into the persistent batch buffer (values identical
        to fancy indexing; short final batches reuse a prefix view)."""
        m = len(local_idx)
        if self._xbuf is None or len(self._xbuf) < m:
            self._xbuf = np.empty((m, *self.x.shape[1:]), dtype=self.x.dtype)
            self._ybuf = np.empty((m, *self.y.shape[1:]), dtype=self.y.dtype)
        xv = self._xbuf[:m]
        yv = self._ybuf[:m]
        np.take(self.x, local_idx, axis=0, out=xv)
        np.take(self.y, local_idx, axis=0, out=yv)
        return xv, yv

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Iterate the current epoch's batches (the epoch does not advance)."""
        return self._iter_epoch()
