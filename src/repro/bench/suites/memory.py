"""Benchmarks for the static-memory subsystem: replay, planning, steps.

The planned-vs-eager train-step pairs are the headline numbers: both run
the same layer code, the "eager" (unbound) step on fresh arrays and the
planned one out of the context's packed slab, so the delta is pure
allocator/page-fault cost.  ``context.replay`` times the per-request cost
of a replayed pass (the price every buffered layer call pays), and
``plan.build`` the recorded pass ``MemoryPlan`` runs on a model copy.
"""

from __future__ import annotations

import numpy as np

from ..harness import register

_BATCH = 32
_IMAGE = 16
_REQUESTS = 64


@register(
    "context.replay",
    area="memory",
    params={"requests": _REQUESTS, "shape": "32x64x16x16", "dtype": "float64"},
)
def _context_replay():
    from repro.nn.memory import MemoryContext

    class Layer:
        pass

    layers = [Layer() for _ in range(_REQUESTS)]
    shape = (_BATCH, 64, _IMAGE, _IMAGE)
    ctx = MemoryContext()

    def step():
        ctx.begin(shape, np.float64, True)
        for layer in layers:
            ctx.request(layer, "y", shape, np.float64)

    step()  # the recording pass; the next pass packs it and replays
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
