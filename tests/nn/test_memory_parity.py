"""Bitwise eager-vs-planned parity across the model registry.

The static-memory mode (slab views threaded through ``out=``) must change
*nothing* numerically — every comparison here is exact array equality over
multiple optimiser steps, which catches both arithmetic drift (a reordered
reduction) and state leaks (a stale buffer read).  The shape-churn run
fills the slab with NaN before every pass, so a buffer read before its
pass wrote it cannot hide.

Two more invariants ride along:

* **zero steady state** — after the first step records its buffers and
  the second packs them into the slab, further steps perform zero fresh
  allocations;
* **exact peak prediction** — :func:`plan_training_step` records the same
  pass on a copy of the model, so its ``peak_bytes`` and ``pool_bytes``
  equal the live context's to the byte.
"""

import numpy as np
import pytest

from repro.nn import Dense, Dropout, ReLU, Sequential
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.memory import MemoryContext, plan_training_step
from repro.nn.models import build_model

STEPS = 4

CONFIGS = [
    pytest.param(
        "mlp",
        dict(in_features=32, hidden=[24, 16], num_classes=5, batch_norm=True,
             flatten_input=False),
        (32,), 8, id="mlp-bn"),
    pytest.param(
        "micro_alexnet", dict(image_size=16, norm="bn", dropout=0.5),
        (3, 16, 16), 8, id="alexnet-bn-dropout"),
    pytest.param(
        "micro_alexnet", dict(image_size=16, norm="lrn", dropout=0.25),
        (3, 16, 16), 8, id="alexnet-lrn-dropout"),
    pytest.param(
        "micro_resnet", dict(width=8), (3, 16, 16), 8, id="micro_resnet"),
    pytest.param(
        "micro_googlenet", dict(width=8), (3, 16, 16), 8, id="micro_googlenet"),
]


def _data(name, kwargs, in_shape, batch):
    rng = np.random.default_rng(42)
    xs = [rng.standard_normal((batch, *in_shape)) for _ in range(STEPS)]
    ncls = kwargs.get("num_classes", 10)
    ys = [rng.integers(0, ncls, size=batch) for _ in range(STEPS)]
    return xs, ys


def _run(name, kwargs, xs, ys, planned):
    """Train STEPS plain-SGD steps; record everything observable each step."""
    model = build_model(name, **kwargs)
    loss = SoftmaxCrossEntropy(label_smoothing=0.1)
    mem = None
    if planned:
        mem = MemoryContext()
        model.bind_memory(mem)
        loss.bind_memory(mem)
    records, allocs = [], []
    for t in range(STEPS):
        model.zero_grad()
        before = mem.bytes_allocated if mem else 0
        logits = model.forward(xs[t])
        loss_val = loss.forward(logits, ys[t])
        model.backward(loss.backward())
        allocs.append((mem.bytes_allocated - before) if mem else 0)
        grads = {p.name: p.grad.copy() for p in model.parameters()}
        for p in model.parameters():
            p.data -= 0.01 * p.grad
        weights = {p.name: p.data.copy() for p in model.parameters()}
        records.append((loss_val, logits.copy(), grads, weights))
    return records, allocs, mem


@pytest.mark.parametrize("name,kwargs,in_shape,batch", CONFIGS)
def test_planned_is_bitwise_identical_to_eager(name, kwargs, in_shape, batch):
    xs, ys = _data(name, kwargs, in_shape, batch)
    eager, _, _ = _run(name, kwargs, xs, ys, planned=False)
    planned, _, _ = _run(name, kwargs, xs, ys, planned=True)
    for t in range(STEPS):
        loss_e, logits_e, grads_e, weights_e = eager[t]
        loss_p, logits_p, grads_p, weights_p = planned[t]
        assert loss_e == loss_p, f"step {t}: loss differs"
        np.testing.assert_array_equal(logits_e, logits_p, err_msg=f"step {t}")
        for k in grads_e:
            np.testing.assert_array_equal(
                grads_e[k], grads_p[k], err_msg=f"step {t}: grad {k}")
        for k in weights_e:
            np.testing.assert_array_equal(
                weights_e[k], weights_p[k], err_msg=f"step {t}: weight {k}")


@pytest.mark.parametrize("name,kwargs,in_shape,batch", CONFIGS)
def test_steady_state_performs_zero_allocations(name, kwargs, in_shape, batch):
    xs, ys = _data(name, kwargs, in_shape, batch)
    _, allocs, _ = _run(name, kwargs, xs, ys, planned=True)
    assert allocs[0] > 0  # first step populates the slots
    assert allocs[2:] == [0] * (STEPS - 2), (
        f"steady-state steps allocated: {allocs}")


@pytest.mark.parametrize("name,kwargs,in_shape,batch", CONFIGS)
def test_plan_peak_matches_live_arena_exactly(name, kwargs, in_shape, batch):
    xs, ys = _data(name, kwargs, in_shape, batch)
    _, _, mem = _run(name, kwargs, xs, ys, planned=True)
    plan = plan_training_step(build_model(name, **kwargs), in_shape, batch,
                              loss=SoftmaxCrossEntropy(label_smoothing=0.1))
    assert plan.peak_bytes == mem.arena.peak_bytes
    assert plan.pool_bytes == mem.arena.pool_bytes


#: (batch, training) of each pass: train, short final batch, evaluation,
#: then the same shapes again — every shape is recorded once and replayed
CHURN = [(8, True), (5, True), (16, False), (8, True), (5, True), (16, False), (8, True)]


def _head_first(head):
    """A small MLP whose first layer is ``head``: a layer that requests a
    buffer in training but not (Dropout) or a different one (ReLU) in
    inference, so a pass's first request depends on the mode."""

    def build():
        rng = np.random.default_rng(3)
        return Sequential(head(), Dense(32, 24, rng=rng), ReLU(), Dense(24, 10, rng=rng))

    return build


#: the registry models, plus models whose first request differs by mode
CHURN_CONFIGS = CONFIGS + [
    pytest.param(_head_first(lambda: Dropout(0.5, rng=np.random.default_rng(5))), {},
                 (32,), 8, id="dropout-first"),
    pytest.param(_head_first(ReLU), {}, (32,), 8, id="relu-first"),
]


def _churn(name, kwargs, in_shape, poison):
    """Run the CHURN passes; with ``poison``, bind a context and fill its
    whole slab with NaN before every pass."""
    model = name() if callable(name) else build_model(name, **kwargs)
    loss = SoftmaxCrossEntropy(label_smoothing=0.1)
    mem = None
    if poison:
        mem = MemoryContext()
        model.bind_memory(mem)
        loss.bind_memory(mem)
    ncls = kwargs.get("num_classes", 10)
    rng = np.random.default_rng(7)
    records = []
    for batch, training in CHURN:
        x = rng.standard_normal((batch, *in_shape))
        y = rng.integers(0, ncls, size=batch)
        model.train() if training else model.eval()
        if mem is not None:
            mem.close()  # pack any recording now, so the poison reaches it
            mem.arena.buffer.view(np.float64)[:] = np.nan
        logits = model.forward(x)
        if not training:
            records.append(logits.copy())
            continue
        model.zero_grad()
        loss_val = loss.forward(logits, y)
        model.backward(loss.backward())
        records.append((loss_val, logits.copy(), [p.grad.copy() for p in model.parameters()]))
        for p in model.parameters():
            p.data -= 0.01 * p.grad
    records.append([p.data.copy() for p in model.parameters()])
    return records, mem


@pytest.mark.parametrize("name,kwargs,in_shape,batch", CHURN_CONFIGS)
def test_shape_churn_on_poisoned_slab_is_bitwise_identical(name, kwargs, in_shape, batch):
    # Every replayed pass starts from a slab full of NaN, so a buffer read
    # before this pass wrote it (a border, a mask, a stale cache) shows up.
    unbound, _ = _churn(name, kwargs, in_shape, poison=False)
    bound, mem = _churn(name, kwargs, in_shape, poison=True)
    for t, (want, got) in enumerate(zip(unbound, bound, strict=True)):
        for a, b in zip(_flat(want), _flat(got), strict=True):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f"pass {t}"
    assert len(mem.plans) == 3  # one per (batch, mode): recorded once, replayed after


def _flat(record):
    if isinstance(record, (tuple, list)):
        return [leaf for item in record for leaf in _flat(item)]
    return [record]


def test_close_then_rebind_is_still_bitwise_stable():
    # After MemoryContext.close() the pool is warm; a fresh run through the
    # same model must reuse it and stay bitwise identical to eager.
    name, kwargs, in_shape, batch = "micro_resnet", dict(width=8), (3, 16, 16), 4
    xs, ys = _data(name, kwargs, in_shape, batch)
    eager, _, _ = _run(name, kwargs, xs, ys, planned=False)
    model = build_model(name, **kwargs)
    loss = SoftmaxCrossEntropy(label_smoothing=0.1)
    mem = MemoryContext()
    model.bind_memory(mem)
    loss.bind_memory(mem)
    model.zero_grad()
    logits = model.forward(xs[0])
    loss.forward(logits, ys[0])
    model.backward(loss.backward())
    mem.close()
    allocated = mem.bytes_allocated
    # second pass over the same shapes: warm pool, no fresh allocations.
    # Slots were re-dealt from the freelist, so copy the logits before
    # backward — a slot's contents are only pinned until they are consumed.
    model.zero_grad()
    logits = model.forward(xs[0]).copy()
    loss_val = loss.forward(logits, ys[0])
    model.backward(loss.backward())
    assert mem.bytes_allocated == allocated
    assert loss_val == eager[0][0]
    np.testing.assert_array_equal(logits, eager[0][1])
