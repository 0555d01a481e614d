"""Every layer type against its eager formula, bitwise.

Each ``repro.nn`` layer has one code path whose buffers come from fresh
arrays (unbound) or from arena slots (a bound ``MemoryContext``).  Under
both allocation policies, and over several steps with weight updates in
between (so a stale buffer or cache would show), the forward output, the
input gradient and every parameter gradient must equal the textbook
formulas kept in ``eager_layers.py`` bit for bit: same dtype, same shape,
same bytes (so even the sign of a zero counts).
"""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2D,
    BatchNorm,
    ConcatBranches,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Residual,
    Sequential,
    Sigmoid,
    SyncBatchNorm,
    Tanh,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.memory import MemoryContext

from .eager_layers import eager_twin

STEPS = 3


def _rng():
    return np.random.default_rng(7)


def _conv(*args, **kwargs):
    return Conv2D(*args, rng=_rng(), **kwargs)


# (factory, per-example input shape, batch)
CASES = {
    "relu": (ReLU, (3, 6, 6), 4),
    "sigmoid": (Sigmoid, (3, 6, 6), 4),
    "tanh": (Tanh, (3, 6, 6), 4),
    "dense": (lambda: Dense(12, 7, rng=_rng()), (12,), 4),
    "dense-nobias": (lambda: Dense(12, 7, bias=False, rng=_rng()), (12,), 4),
    "conv-3x3-pad": (lambda: _conv(3, 8, 3, padding=1), (3, 8, 8), 4),
    "conv-3x3-nopad": (lambda: _conv(3, 8, 3), (3, 8, 8), 4),
    "conv-strided-grouped": (lambda: _conv(4, 8, 3, stride=2, padding=1, groups=2), (4, 8, 8), 4),
    "conv-5x5-nobias": (lambda: _conv(6, 12, 5, padding=2, groups=3, bias=False), (6, 8, 8), 4),
    "conv-1x1": (lambda: _conv(8, 8, 1), (8, 8, 8), 4),
    "conv-1x1-strided": (lambda: _conv(8, 16, 1, stride=2, groups=2), (8, 8, 8), 4),
    "conv-nonoverlap": (lambda: _conv(4, 4, 2, stride=2), (4, 8, 8), 4),
    # above the batched-matmul crossover: the einsum GEMMs
    "conv-einsum": (lambda: _conv(32, 64, 3, padding=1), (32, 32, 32), 2),
    "maxpool": (lambda: MaxPool2D(2), (3, 8, 8), 4),
    "maxpool-overlap-pad": (lambda: MaxPool2D(3, stride=2, padding=1), (3, 9, 9), 4),
    "maxpool-overlap": (lambda: MaxPool2D(3, stride=1), (3, 7, 7), 4),
    "avgpool": (lambda: AvgPool2D(2), (3, 8, 8), 4),
    "avgpool-overlap-pad": (lambda: AvgPool2D(3, stride=2, padding=1), (3, 9, 9), 4),
    "avgpool-nonoverlap-pad": (lambda: AvgPool2D(2, stride=2, padding=1), (3, 8, 8), 4),
    # even images: the overlapping scatter's stride-2 / stride-1 phase planes
    "maxpool-overlap-pad-even": (lambda: MaxPool2D(3, stride=2, padding=1), (3, 8, 8), 4),
    "maxpool-same": (lambda: MaxPool2D(3, stride=1, padding=1), (3, 6, 6), 4),
    "avgpool-overlap-pad-even": (lambda: AvgPool2D(3, stride=2, padding=1), (3, 8, 8), 4),
    "gap": (GlobalAvgPool2D, (5, 4, 4), 4),
    "batchnorm-2d": (lambda: BatchNorm(12), (12,), 6),
    "batchnorm-4d": (lambda: BatchNorm(3), (3, 5, 5), 4),
    "syncbatchnorm": (lambda: SyncBatchNorm(3), (3, 5, 5), 4),
    "lrn": (LocalResponseNorm, (7, 5, 5), 4),
    "dropout": (lambda: Dropout(0.5, rng=np.random.default_rng(3)), (3, 6, 6), 4),
    "flatten": (Flatten, (3, 4, 4), 4),
    "residual-identity": (
        lambda: Residual(Sequential(
            _conv(4, 4, 3, padding=1, bias=False), BatchNorm(4), ReLU(),
            _conv(4, 4, 3, padding=1, bias=False), BatchNorm(4))),
        (4, 6, 6), 4),
    "residual-projection": (
        lambda: Residual(
            Sequential(_conv(4, 8, 3, stride=2, padding=1), BatchNorm(8)),
            shortcut=Sequential(_conv(4, 8, 1, stride=2, bias=False), BatchNorm(8))),
        (4, 6, 6), 4),
    "concat": (
        lambda: ConcatBranches(
            _conv(4, 3, 1),
            Sequential(_conv(4, 2, 1), ReLU(), _conv(2, 5, 3, padding=1)),
            Sequential(MaxPool2D(3, stride=1, padding=1), _conv(4, 2, 1))),
        (4, 6, 6), 4),
    "sequential": (
        lambda: Sequential(
            _conv(3, 4, 3, padding=1), BatchNorm(4), ReLU(), _conv(4, 4, 3, padding=1),
            LocalResponseNorm(3), MaxPool2D(2), Flatten(), Dense(64, 5, rng=_rng()),
            Tanh(), Dropout(0.25, rng=np.random.default_rng(5)), Dense(5, 3, rng=_rng())),
        (3, 8, 8), 4),
}


def _assert_bitwise(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), what


def _assert_same_grads(layer, twin, step):
    for p, q in zip(layer.parameters(), twin.parameters(), strict=True):
        _assert_bitwise(p.grad, q.grad, f"step {step}: grad {p.name}")


@pytest.mark.parametrize("bound", [False, True], ids=["unbound", "bound"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_layer_matches_eager_formula(case, bound):
    factory, in_shape, batch = CASES[case]
    layer = factory()
    twin = eager_twin(layer)
    if bound:
        layer.bind_memory(MemoryContext())
    rng = np.random.default_rng(11)
    for step in range(STEPS):
        x = rng.standard_normal((batch, *in_shape))
        y = layer.forward(x)
        _assert_bitwise(y, twin.forward(x), f"step {step}: forward")
        g = rng.standard_normal(y.shape)
        layer.zero_grad()
        twin.zero_grad()
        dx = layer.backward(g)
        _assert_bitwise(dx, twin.backward(g), f"step {step}: dx")
        _assert_same_grads(layer, twin, step)
        for p, q in zip(layer.parameters(), twin.parameters()):
            p.data -= 0.1 * p.grad
            q.data -= 0.1 * q.grad
    # inference mode: running statistics, dropout off
    layer.eval()
    twin.eval()
    x = rng.standard_normal((batch, *in_shape))
    _assert_bitwise(layer.forward(x), twin.forward(x), "eval forward")


def test_every_layer_type_has_a_case():
    import repro.nn.layers as layers

    exported = {getattr(layers, name) for name in layers.__all__}
    layer_types = {t for t in exported if isinstance(t, type)} - {layers.Module}
    covered = {type(m) for factory, _, _ in CASES.values() for m in factory().modules()}
    assert layer_types <= covered


@pytest.mark.parametrize("bound", [False, True], ids=["unbound", "bound"])
@pytest.mark.parametrize("pool", [(2, 2, 0), (3, 2, 1), (3, 1, 0)])
def test_maxpool_ties_match_eager_formula(pool, bound):
    # windows full of repeated maxima, +0.0 and -0.0 tying among them: the
    # output is the first maximal element's bytes, sign of zero included
    k, s, p = pool
    layer = MaxPool2D(k, stride=s, padding=p)
    twin = eager_twin(layer)
    if bound:
        layer.bind_memory(MemoryContext())
    rng = np.random.default_rng(17)
    for step in range(STEPS):
        x = rng.choice([-1.0, -0.0, 0.0], size=(4, 3, 7, 8))
        y = layer.forward(x)
        _assert_bitwise(y, twin.forward(x), f"step {step}: forward")
        g = rng.standard_normal(y.shape)
        _assert_bitwise(layer.backward(g), twin.backward(g), f"step {step}: dx")
    layer.eval()
    twin.eval()
    x = rng.choice([-1.0, -0.0, 0.0], size=(4, 3, 7, 8))
    _assert_bitwise(layer.forward(x), twin.forward(x), "eval forward")


class _RecordingComm:
    """Two-rank stand-in whose allreduce records what this rank sends."""

    size = 2

    def __init__(self):
        self.sent = []

    def allreduce(self, vec):
        self.sent.append(vec.copy())
        return vec


@pytest.mark.parametrize("bound", [False, True], ids=["unbound", "bound"])
def test_sync_batchnorm_empty_shard_matches_eager_formula(bound):
    # A rank whose shard of the global batch is empty still joins both
    # allreduces, contributing zeros, and returns an empty dx.
    layer = SyncBatchNorm(3)
    twin = eager_twin(layer)
    layer.set_comm(_RecordingComm())
    twin.set_comm(_RecordingComm())
    if bound:
        layer.bind_memory(MemoryContext())
    x = np.zeros((0, 3, 5, 5))
    _assert_bitwise(layer.forward(x), twin.forward(x), "forward")
    dx = layer.backward(np.zeros((0, 3, 5, 5)))
    _assert_bitwise(dx, twin.backward(np.zeros((0, 3, 5, 5))), "dx")
    _assert_same_grads(layer, twin, 0)
    assert len(layer.comm.sent) == len(twin.comm.sent) == 2
    for got, want in zip(layer.comm.sent, twin.comm.sent):
        _assert_bitwise(got, want, "allreduce payload")


@pytest.mark.parametrize("bound", [False, True], ids=["unbound", "bound"])
@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_loss_matches_eager_formula(smoothing, bound):
    loss = SoftmaxCrossEntropy(label_smoothing=smoothing)
    twin = eager_twin(loss)
    if bound:
        loss.bind_memory(MemoryContext())
    rng = np.random.default_rng(13)
    for step in range(STEPS):
        logits = rng.standard_normal((6, 5)) * 3.0
        targets = rng.integers(0, 5, size=6)
        assert loss.forward(logits, targets) == twin.forward(logits, targets), step
        _assert_bitwise(loss.backward(), twin.backward(), f"step {step}: dlogits")
