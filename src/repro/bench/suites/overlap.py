"""Benchmarks for the nonblocking/overlapped gradient-exchange path.

Each timed sample spins up a 4-rank thread cluster, so the numbers include
the real wall-clock synchronisation cost of the overlap machinery — request
state machines, per-bucket packing into persistent buffers, and multiple
in-flight collectives draining through the mailbox fabric.  This is the
host-side overhead budget of :class:`repro.cluster.bucketing.BucketedExchange`;
the *simulated* benefit of overlap is asserted separately by the obs-smoke
``--check-overlap-speedup`` gate and the overlap test suites.
"""

from __future__ import annotations

import numpy as np

from ..harness import register

_WORLD = 4
_ELEMENTS = 65_536
_ROUNDS = 4
_HIDDEN = [64] * 6
_BUCKET_BYTES = 1 << 14


def _model_with_grads(seed: int):
    from repro.nn.models import mlp

    model = mlp(8, _HIDDEN, 3, seed=0)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.grad = rng.normal(size=p.data.shape)
    return model


@register(
    "iallreduce.single",
    area="overlap",
    params={"world": _WORLD, "elements": _ELEMENTS, "rounds": _ROUNDS},
    repeats=10,
    quick_repeats=3,
)
def _iallreduce_single():
    from repro.comm.communicator import run_cluster

    def worker(comm):
        data = np.random.default_rng(comm.rank).normal(size=_ELEMENTS)
        for _ in range(_ROUNDS):
            data = comm.iallreduce(data).wait()
        return float(data[0])

    return lambda: run_cluster(_WORLD, worker)


@register(
    "iallreduce.inflight4",
    area="overlap",
    params={"world": _WORLD, "elements": _ELEMENTS // 4, "inflight": 4},
    repeats=10,
    quick_repeats=3,
)
def _iallreduce_inflight():
    from repro.comm.communicator import run_cluster

    def worker(comm):
        rng = np.random.default_rng(comm.rank)
        chunks = [rng.normal(size=_ELEMENTS // 4) for _ in range(4)]
        for _ in range(_ROUNDS):
            reqs = [comm.iallreduce(c) for c in chunks]
            chunks = [r.wait() for r in reqs]
        return float(chunks[0][0])

    return lambda: run_cluster(_WORLD, worker)


def _exchange_bench(overlap: bool):
    from repro.cluster.bucketing import BucketedExchange, BucketPlan
    from repro.comm.communicator import run_cluster

    def worker(comm):
        model = _model_with_grads(comm.rank)
        exchange = BucketedExchange(
            comm,
            BucketPlan.from_model(model, bucket_bytes=_BUCKET_BYTES),
            algorithm="tree",
            overlap=overlap,
        )
        for _ in range(_ROUNDS):
            if overlap:
                # flush path: begin_step then finish_step launches every
                # bucket back to back — the multiple-in-flight hot path
                exchange.begin_step(0.0)
                exchange.finish_step()
            else:
                exchange.sync_blocking()
        return exchange.busy_seconds

    return lambda: run_cluster(_WORLD, worker)


_EXCHANGE_PARAMS = {
    "world": _WORLD,
    "model": f"mlp-{len(_HIDDEN)}x{_HIDDEN[0]}",
    "bucket_bytes": _BUCKET_BYTES,
    "rounds": _ROUNDS,
}


@register(
    "exchange.bucketed_blocking",
    area="overlap",
    params=dict(_EXCHANGE_PARAMS, overlap=False),
    repeats=10,
    quick_repeats=3,
)
def _exchange_blocking():
    return _exchange_bench(overlap=False)


@register(
    "exchange.overlapped",
    area="overlap",
    params=dict(_EXCHANGE_PARAMS, overlap=True),
    repeats=10,
    quick_repeats=3,
)
def _exchange_overlapped():
    return _exchange_bench(overlap=True)
