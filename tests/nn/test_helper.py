"""The helper thread of ``repro.nn.parallel``: same bits, safe buffers.

``both(side, main, work)`` runs ``side`` on one daemon thread while the
caller runs ``main``.  Whether the helper is taken must change nothing but
wall time, so every layer that forks is checked bitwise three ways —
forked, inline, and against the eager formulas of ``eager_layers.py`` —
and a static-memory plan recorded under one schedule must replay under
the other.  The gates, exception hand-off, ``os.fork`` reset and
``MemoryContext``'s thread rule are pinned here as well.
"""

import os
import select
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.comm import run_cluster
from repro.nn import BatchNorm, Conv2D, Dense, SyncBatchNorm, parallel
from repro.nn.layers import conv
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.memory import MemoryContext
from repro.nn.models import micro_resnet
from repro.obs.metrics import MetricsRegistry, set_registry

from . import eager_layers
from .eager_layers import eager_twin
from .test_layer_formulas import _assert_bitwise


@pytest.fixture
def registry():
    reg = MetricsRegistry(enabled=True)
    prev = set_registry(reg)
    yield reg
    set_registry(prev)


def _counts(reg):
    return (reg.counter("nn.helper.taken").value, reg.counter("nn.helper.inline").value)


def _schedule(monkeypatch, forked: bool) -> None:
    """Open every gate (every fork takes the helper) or shut the size gate."""
    monkeypatch.setattr(parallel, "FORK_MIN_WORK", 1 if forked else 1 << 62)
    monkeypatch.setattr(parallel, "_CORES", 64)
    monkeypatch.setattr(parallel, "_BLAS_SINGLE", True)


LAYERS = {
    "conv3x3s1": lambda: Conv2D(4, 6, 3, stride=1, padding=1, rng=np.random.default_rng(1)),
    "conv3x3s2": lambda: Conv2D(4, 6, 3, stride=2, padding=1, rng=np.random.default_rng(2)),
    "conv1x1s1": lambda: Conv2D(4, 6, 1, bias=False, rng=np.random.default_rng(3)),
    "conv1x1s2": lambda: Conv2D(4, 6, 1, stride=2, rng=np.random.default_rng(4)),
    "conv_grouped": lambda: Conv2D(4, 6, 3, padding=1, groups=2, rng=np.random.default_rng(5)),
    "conv_einsum": lambda: Conv2D(4, 6, 3, padding=1, rng=np.random.default_rng(6)),
    "batchnorm": lambda: BatchNorm(4),
    "syncbatchnorm": lambda: SyncBatchNorm(4),
    "batchnorm_2d": lambda: BatchNorm(5),
}


def _input_shape(name, n):
    if name == "batchnorm_2d":
        return (n, 5)
    return (n, 4, 7, 7)


def _run(layer, x, g):
    """Two training steps and an evaluation forward: every observable."""
    seen = []
    for _ in range(2):
        layer.zero_grad()
        seen.append(layer.forward(x).copy())
        seen.append(layer.backward(g).copy())
        seen.extend(p.grad.copy() for p in layer.parameters())
    layer.eval()
    seen.append(layer.forward(x).copy())
    layer.train()
    return seen


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("n", [1, 5, 32])
@pytest.mark.parametrize("name", sorted(LAYERS))
def test_forked_inline_and_eager_are_bitwise_equal(name, n, dtype, monkeypatch, registry):
    if name == "conv_einsum":  # every problem size takes the einsum branch
        monkeypatch.setattr(conv, "_BATCHED_MATMUL_MAX_MACS", 0)
        monkeypatch.setattr(eager_layers, "_BATCHED_MATMUL_MAX_MACS", 0)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(_input_shape(name, n)).astype(dtype)
    layer = LAYERS[name]()
    g = rng.standard_normal(layer.forward(x).shape)
    runs = {}
    for forked in (True, False):
        _schedule(monkeypatch, forked)
        taken = _counts(registry)[0]
        runs[forked] = _run(LAYERS[name](), x, g)
        assert (_counts(registry)[0] > taken) == forked
    for i, (a, b) in enumerate(zip(runs[True], runs[False], strict=True)):
        _assert_bitwise(a, b, f"{name} n={n} item {i}: forked vs inline")
    if "batchnorm" in name and dtype == np.float32:
        return  # the eager oracle centres float32 input in float32, the layer in float64
    eager = _run(eager_twin(LAYERS[name]()), x, g)
    for i, (a, e) in enumerate(zip(runs[True], eager, strict=True)):
        _assert_bitwise(a, e, f"{name} n={n} item {i}: forked vs eager")


def test_syncbatchnorm_allreduces_beside_the_helper(monkeypatch):
    """The dx chain's allreduce runs on the caller while the helper sums
    gamma/beta: two ranks, forked and inline, give the same bits."""
    x = np.random.default_rng(0).standard_normal((8, 3, 5, 5))
    g = np.random.default_rng(1).standard_normal(x.shape)

    def worker(comm):
        bn = SyncBatchNorm(3)
        bn.set_comm(comm)
        shard = slice(4 * comm.rank, 4 * comm.rank + 4)
        y = bn.forward(x[shard])
        dx = bn.backward(g[shard])
        return y, dx, bn.gamma.grad.copy(), bn.beta.grad.copy()

    results = {}
    for forked in (True, False):
        _schedule(monkeypatch, forked)
        results[forked], _ = run_cluster(2, worker)
    for a, b in zip(results[True], results[False]):
        for u, v in zip(a, b):
            _assert_bitwise(u, v, "sync BN rank output")


def _train(model, loss, xs, ys):
    out = []
    for x, y in zip(xs, ys):
        model.zero_grad()
        logits = model.forward(x)
        out.append(loss.forward(logits, y))
        model.backward(loss.backward())
        out.extend(p.grad.copy() for p in model.parameters())
    return out


def test_plan_recorded_under_one_schedule_replays_under_the_other(monkeypatch):
    rng = np.random.default_rng(3)
    xs = [rng.standard_normal((6, 3, 10, 10)) for _ in range(4)]
    ys = [rng.integers(0, 5, size=6) for _ in range(4)]
    _schedule(monkeypatch, False)
    want = _train(micro_resnet(num_classes=5, width=4), SoftmaxCrossEntropy(), xs, ys)
    pools = []
    for record_forked in (True, False):
        ctx = MemoryContext()
        model = micro_resnet(num_classes=5, width=4).bind_memory(ctx)
        loss = SoftmaxCrossEntropy().bind_memory(ctx)
        _schedule(monkeypatch, record_forked)
        got = _train(model, loss, xs[:2], ys[:2])  # record, then the first replay
        allocated = ctx.bytes_allocated
        _schedule(monkeypatch, not record_forked)
        got += _train(model, loss, xs[2:], ys[2:])
        assert ctx.bytes_allocated == allocated, "steady state allocated"
        pools.append(ctx.arena.pool_bytes)
        for i, (a, b) in enumerate(zip(got, want, strict=True)):
            _assert_bitwise(a, b, f"recorded forked={record_forked}: item {i}")
    assert pools[0] == pools[1]


def test_side_exception_reaches_the_caller_and_frees_the_helper(monkeypatch, registry):
    _schedule(monkeypatch, True)
    ran = []

    def side():
        raise ValueError("side failed")

    with pytest.raises(ValueError, match="side failed"):
        parallel.both(side, lambda: ran.append("main"), 1)
    assert ran == ["main"]  # main finished before the error surfaced
    parallel.both(lambda: ran.append("side"), lambda: None, 1)
    assert ran == ["main", "side"]
    assert _counts(registry) == (2, 0)


def test_gates_refuse_the_helper(monkeypatch, registry):
    names = []

    def side():
        names.append(threading.current_thread().name)

    _schedule(monkeypatch, True)
    parallel.both(side, lambda: None, 1)
    assert _counts(registry) == (1, 0) and names[-1] == "repro-nn-helper"
    monkeypatch.setattr(parallel, "_CORES", 1)  # core count
    parallel.both(side, lambda: None, 1)
    monkeypatch.setattr(parallel, "_CORES", 64)
    monkeypatch.setattr(threading, "active_count", lambda: 65)  # live threads
    parallel.both(side, lambda: None, 1)
    monkeypatch.undo()
    monkeypatch.setattr(parallel, "_CORES", 64)
    parallel.both(side, lambda: None, parallel.FORK_MIN_WORK - 1)  # size
    assert _counts(registry) == (1, 3)
    assert names[1:] == [threading.current_thread().name] * 3


@pytest.mark.parametrize("env,single", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "2"}, False),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "3"}, False),
])
def test_blas_gate_reads_the_variables_blas_reads(env, single):
    assert parallel._blas_single_threaded(env) is single


def test_threaded_blas_refuses_the_helper(monkeypatch, registry):
    _schedule(monkeypatch, True)
    monkeypatch.setattr(parallel, "_BLAS_SINGLE", False)
    names = []
    parallel.both(lambda: names.append(threading.current_thread().name), lambda: None, 1)
    assert _counts(registry) == (0, 1)
    assert names == [threading.current_thread().name]


def test_concurrent_callers_share_one_helper(monkeypatch, registry):
    """More callers than cores fork at once under a short switch interval:
    every call runs both halves exactly once, though only one caller at a
    time gets the helper (a handed-over ``side`` lost or run twice breaks
    the counts)."""
    _schedule(monkeypatch, True)
    calls, workers = 300, 6
    ran = [[0, 0] for _ in range(workers)]

    def caller(i):
        def side():
            ran[i][0] += 1

        def main():
            ran[i][1] += 1

        for _ in range(calls):
            parallel.both(side, main, 1)

    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(prev)
    assert not any(t.is_alive() for t in threads)
    assert ran == [[calls, calls]] * workers
    assert sum(_counts(registry)) == calls * workers


def test_cluster_ranks_never_take_the_helper(monkeypatch, registry):
    """On two cores a 4-rank run never forks, however large its layers: the
    thread gate alone refuses (rank 0's final evaluation included, which
    runs after the other ranks have exited)."""
    from repro.cluster import SyncSGDConfig, train_sync_sgd
    from repro.core import SGD, ConstantLR

    monkeypatch.setattr(parallel, "FORK_MIN_WORK", 1)
    monkeypatch.setattr(parallel, "_CORES", 2)
    monkeypatch.setattr(parallel, "_BLAS_SINGLE", True)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 3, 8, 8))
    y = rng.integers(0, 4, size=64)
    train_sync_sgd(lambda: micro_resnet(num_classes=4, width=4),
                   lambda p: SGD(p), ConstantLR(0.05), x, y, x[:16], y[:16],
                   SyncSGDConfig(world=4, epochs=1, batch_size=64))
    taken, inline = _counts(registry)
    assert taken == 0 and inline > 0


def test_forked_child_process_still_trains(monkeypatch):
    """``os.register_at_fork`` resets the helper: a child of a process whose
    helper is running gets its own, instead of waiting on a dead thread."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    _schedule(monkeypatch, True)
    parallel.both(lambda: None, lambda: None, 1)  # the parent's helper runs
    x = np.random.default_rng(0).standard_normal((4, 4, 7, 7))
    layer = LAYERS["conv3x3s1"]()
    want = layer.backward(layer.forward(x)).tobytes()
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:  # child: train one step on a fresh helper, report the bits
        try:
            child = LAYERS["conv3x3s1"]()
            ok = child.backward(child.forward(x)).tobytes() == want
            ok = ok and parallel._helper is not None and parallel._helper.thread.is_alive()
            os.write(write, b"1" if ok else b"0")
        finally:
            os._exit(0)
    os.close(write)
    try:
        ready, _, _ = select.select([read], [], [], 60)
        assert ready, "child process hung"
        assert os.read(read, 1) == b"1"
    finally:
        os.close(read)
        if not ready:
            os.kill(pid, 9)
        os.waitpid(pid, 0)


def test_context_rejects_requests_and_frees_off_the_pass_thread():
    ctx = MemoryContext()
    layer = Dense(4, 3).bind_memory(ctx)
    layer.forward(np.ones((2, 4)))  # opens a recording pass on this thread
    errors = []

    def request():
        try:
            layer._buf("t", (2, 2))
        except RuntimeError as exc:
            errors.append(str(exc))

    t = threading.Thread(target=request)
    t.start()
    t.join()
    assert errors and "thread" in errors[0]

    buf = [layer._buf("held", (3,))]
    t = threading.Thread(target=buf.clear)  # the last reference dies there
    t.start()
    t.join()
    with pytest.raises(RuntimeError, match=r"Dense\.held"):
        ctx.close()
    assert not ctx.plans
