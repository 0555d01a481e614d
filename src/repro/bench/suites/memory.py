"""Benchmarks for the static-memory subsystem: arena ops, planned steps.

The planned-vs-eager train-step pairs are the headline numbers: both run
the same layer code, the "eager" (unbound) step on fresh arrays and the
planned one out of persistent arena slots, so the delta is pure
allocator/page-fault cost.  ``plan.build`` is timed
too because the planner runs at trainer construction (it must stay cheap
enough to call per configuration).
"""

from __future__ import annotations

import numpy as np

from ..harness import register

_BATCH = 32
_IMAGE = 16


@register(
    "arena.acquire_release",
    area="memory",
    params={"shape": "32x64x16x16", "dtype": "float64"},
)
def _arena_cycle():
    from repro.nn.memory import Arena

    arena = Arena()
    shape = (_BATCH, 64, _IMAGE, _IMAGE)
    arena.release(arena.acquire(shape))  # warm the freelist

    def step():
        buf = arena.acquire(shape)
        arena.release(buf)

    return step


@register(
    "plan.build.micro_resnet",
    area="memory",
    params={"model": "micro_resnet", "batch": _BATCH, "image": _IMAGE},
    repeats=10,
)
def _plan_build():
    from repro.nn.losses import SoftmaxCrossEntropy
    from repro.nn.memory import MemoryPlan
    from repro.nn.models import build_model

    def step():
        model = build_model("micro_resnet", num_classes=10, seed=0)
        MemoryPlan.build(
            model, (3, _IMAGE, _IMAGE), _BATCH, loss=SoftmaxCrossEntropy()
        )

    return step


def _train_step(model_name: str, static: bool, **kwargs):
    from repro.core import SGD
    from repro.core.trainer import Trainer
    from repro.nn.models import build_model

    model = build_model(model_name, num_classes=10, seed=0, **kwargs)
    trainer = Trainer(
        model, SGD(model.parameters()), 0.01, static_memory=static
    )
    rng = np.random.default_rng(0)
    x = rng.normal(size=(_BATCH, 3, _IMAGE, _IMAGE))
    y = rng.integers(0, 10, size=_BATCH)

    def step():
        with np.errstate(all="ignore"):
            trainer.train_step(x, y)

    return step


@register(
    "train_step.eager.micro_resnet",
    area="memory",
    params={"model": "micro_resnet", "batch": _BATCH, "image": _IMAGE, "static_memory": False},
    repeats=15,
)
def _resnet_eager():
    return _train_step("micro_resnet", static=False)


@register(
    "train_step.planned.micro_resnet",
    area="memory",
    params={"model": "micro_resnet", "batch": _BATCH, "image": _IMAGE, "static_memory": True},
    repeats=15,
)
def _resnet_planned():
    return _train_step("micro_resnet", static=True)


@register(
    "train_step.eager.micro_alexnet",
    area="memory",
    params={"model": "micro_alexnet", "batch": _BATCH, "image": _IMAGE, "static_memory": False},
    repeats=15,
)
def _alexnet_eager():
    return _train_step("micro_alexnet", static=False, image_size=_IMAGE)


@register(
    "train_step.planned.micro_alexnet",
    area="memory",
    params={"model": "micro_alexnet", "batch": _BATCH, "image": _IMAGE, "static_memory": True},
    repeats=15,
)
def _alexnet_planned():
    return _train_step("micro_alexnet", static=True, image_size=_IMAGE)
