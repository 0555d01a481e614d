"""Deterministic batch sharding for data-parallel training.

Every rank derives the same global epoch permutation from the shared seed
(the serial :class:`repro.core.trainer.Trainer` shuffles with the same
:func:`epoch_permutation`), slices out the same global batch, and takes its own
contiguous shard — no data ever moves over the fabric, matching the paper's
setup where each machine stores its partition locally.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["shard_slice", "shard_batch", "shard_sizes", "epoch_permutation"]


@lru_cache(maxsize=8)
def _cached_permutation(n: int, epoch: int, seed: int) -> np.ndarray:
    perm = np.random.default_rng((seed, epoch)).permutation(n)
    perm.setflags(write=False)  # shared across callers — must stay immutable
    return perm


def epoch_permutation(n: int, epoch: int, seed: int) -> np.ndarray:
    """Global shuffle for ``epoch`` — identical on every rank and identical
    to the serial trainer's, which is what makes the sequential-consistency
    comparison meaningful.

    Every rank of a simulated cluster (and every loader sharing the seed)
    asks for the same permutation each epoch, so the result is memoised in
    a small per-process LRU and returned as a *read-only* array: one rank
    pays the shuffle, the other P−1 get the cached copy for free.
    """
    return _cached_permutation(int(n), int(epoch), int(seed))


def shard_sizes(batch: int, world: int) -> list[int]:
    """Split ``batch`` examples across ``world`` ranks as evenly as possible.

    The first ``batch % world`` ranks get one extra example; sizes therefore
    differ by at most 1 and sum exactly to ``batch``.
    """
    if batch < 0 or world <= 0:
        raise ValueError("batch must be >= 0 and world > 0")
    base, extra = divmod(batch, world)
    return [base + (1 if r < extra else 0) for r in range(world)]


def shard_slice(batch: int, world: int, rank: int) -> slice:
    """Index range of ``rank``'s shard within a global batch of ``batch``."""
    if not 0 <= rank < world:
        raise ValueError(f"rank {rank} out of range")
    sizes = shard_sizes(batch, world)
    lo = sum(sizes[:rank])
    return slice(lo, lo + sizes[rank])


def shard_batch(
    global_indices: np.ndarray, world: int, rank: int
) -> np.ndarray:
    """This rank's slice of a global batch's example indices."""
    return global_indices[shard_slice(len(global_indices), world, rank)]
