"""Benchmarks for input-pipeline epoch iteration.

One sample = one full epoch over a pinned synthetic dataset, covering the
shard permutation (now LRU-cached), batch slicing, and the augmentation
pipeline.  The ``none``/``heavy`` pair separates indexing cost from
per-image transform cost.
"""

from __future__ import annotations

import numpy as np

from ..harness import register

_SAMPLES = 2000
_BATCH = 64
_IMAGE = 16


def _loader(augment):
    from repro.data.loader import BatchLoader

    rng = np.random.default_rng(0)
    x = rng.normal(size=(_SAMPLES, 3, _IMAGE, _IMAGE))
    y = rng.integers(0, 10, size=_SAMPLES)
    return BatchLoader(x, y, _BATCH, augment=augment, seed=0)


def _epoch(loader):
    count = 0
    for _xb, _yb in loader:
        count += 1
    return count


_PARAMS = {"samples": _SAMPLES, "batch": _BATCH, "image": _IMAGE}


@register("loader.epoch.none", area="data", params=dict(_PARAMS, augment="none"), repeats=15)
def _epoch_plain():
    loader = _loader("none")
    return lambda: _epoch(loader)


@register("loader.epoch.heavy", area="data", params=dict(_PARAMS, augment="heavy"), repeats=15)
def _epoch_heavy():
    loader = _loader("heavy")
    return lambda: _epoch(loader)
