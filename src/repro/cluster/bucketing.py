"""Bucketed gradient exchange with communication/computation overlap.

The paper's communication model charges the full |W|-byte allreduce
*serially after* compute, but the production stacks it cites (Goyal et
al. 2017; the MLSL stack behind You et al.'s runs) hide most of that cost:
gradients are fused into ~megabyte *buckets* in reverse-backward order and
each bucket's allreduce launches the moment backward has produced its
gradients, overlapping with the differentiation of the remaining (earlier)
layers.

This is the cluster's one gradient exchange.  The monolithic exchange —
one |W|-element allreduce per step — is the one-bucket plan, whose buffer
is byte for byte the ``flatten_grads`` vector; master mode (Figure 2(a))
is that plan's blocking ``tree`` allreduce, a reduce to rank 0 followed
by a broadcast from it.  The exchange only sums: every rank has already
scaled its loss gradient by |shard|/|global batch| before backward, so
the sum over ranks is the global-batch mean gradient.

Two pieces:

* :class:`BucketPlan` — a static partition of the model's parameters, in
  reverse ``parameters()`` order (the order backward finalises gradients),
  into ~``bucket_bytes`` buckets, each with a persistent flat float64
  buffer reused every step (no per-iteration |W| allocation).  Buckets
  launch in that reverse order, but each lays out its own parameters in
  ``parameters()`` order.
* :class:`BucketedExchange` — the per-rank driver.  In overlap mode it
  puts a hook (:meth:`repro.nn.layers.base.Module.add_hook`) on every
  module owning a planned parameter; after that module's ``backward`` the
  hook reports its gradients ready, and as soon as every parameter of
  bucket *k* is final — and all earlier buckets have launched, preserving
  the collective program-order contract — it charges that slice of
  backward compute and launches a nonblocking ``iallreduce``.
  ``finish_step`` flush-launches whatever backward never reached (empty
  shards), waits the buckets in plan order, and unpacks the reduced
  gradients.  In blocking mode (``overlap=False``) the same plan runs as
  sequential per-bucket blocking allreduces, or compressed exchanges with
  one error-feedback compressor per bucket.

Simulated-time accounting: launches charge compute through
``Communicator.compute`` (forward = 1/3 of the step, backward split across
buckets by element count) so straggler multipliers still apply, while the
allreduces run on their own pipeline clocks; the rank clock only absorbs
the completion times at the final waits.  A step therefore costs
``max(compute, comm-critical-path)`` — the overlap regime — and the gap is
reported as ``exposed_seconds`` vs ``busy_seconds`` (their ratio is the
overlap efficiency the obs gauge exports).

Bitwise semantics: bucketing only partitions the flat gradient vector.
For the ``tree`` and ``rhd`` algorithms the per-element reduction tree is
independent of the partition, so every plan is *bit-identical* to the
one-bucket exchange.  ``ring`` assigns chunks to starting ranks by
buffer position, so its summation order changes with the partition —
results agree to summation-reassociation tolerance (~1e-12), exactly the
variation a world-size change already introduces.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from ..comm.communicator import Communicator
from ..nn.layers.base import Module
from ..nn.tensor import Parameter
from ..obs import timed as _timed
from ..obs.metrics import gauge as _gauge, observe as _observe
from ..perfmodel.overlap import DEFAULT_BUCKET_BYTES, greedy_partition

__all__ = ["Bucket", "BucketPlan", "BucketedExchange", "DEFAULT_BUCKET_BYTES"]


class Bucket:
    """One fused gradient segment with its persistent flat buffer."""

    def __init__(self, index: int, params: Sequence[Parameter]):
        self.index = index
        self.params = tuple(params)
        self.size = sum(p.size for p in self.params)
        self.nbytes = sum(p.data.nbytes for p in self.params)
        self.buffer = np.empty(self.size, dtype=np.float64)

    def pack(self) -> np.ndarray:
        """Gather the parameters' gradients into the persistent buffer."""
        offset = 0
        buf = self.buffer
        for p in self.params:
            flat = p.grad.reshape(-1)
            buf[offset : offset + flat.size] = flat
            offset += flat.size
        return buf

    def unpack(self, flat: np.ndarray) -> None:
        """Scatter the reduced buffer back into the parameters' gradients."""
        offset = 0
        for p in self.params:
            p.grad[...] = flat[offset : offset + p.size].reshape(p.grad.shape)
            offset += p.size


class BucketPlan:
    """Reverse-backward partition of a parameter list into gradient buckets.

    Bucket 0 holds the *last* parameters of ``params`` — the gradients
    backward finalises first — so launches naturally follow readiness;
    within a bucket the parameters keep their ``params`` order, so a
    one-bucket plan's buffer is ``flatten_grads(params)``.  The greedy
    boundary rule is shared with the perfmodel predictor
    (:func:`repro.perfmodel.overlap.greedy_partition`), keeping analytic
    and simulated bucket schedules identical.
    """

    def __init__(self, params: Sequence[Parameter], bucket_bytes: int | None = None):
        self.params = list(params)
        if not self.params:
            raise ValueError("cannot build a bucket plan without parameters")
        self.bucket_bytes = (
            DEFAULT_BUCKET_BYTES if bucket_bytes is None else int(bucket_bytes)
        )
        rev = self.params[::-1]
        groups = greedy_partition([p.data.nbytes for p in rev], self.bucket_bytes)
        self.buckets: list[Bucket] = []
        cursor = 0
        for i, group in enumerate(groups):
            self.buckets.append(Bucket(i, rev[cursor : cursor + len(group)][::-1]))
            cursor += len(group)
        self.total_size = sum(b.size for b in self.buckets)
        #: param id → bucket index (hooks resolve readiness through this)
        self.bucket_of: dict[int, int] = {
            id(p): b.index for b in self.buckets for p in b.params
        }

    def __len__(self) -> int:
        return len(self.buckets)

    @property
    def bucket_nbytes(self) -> list[int]:
        """Per-bucket wire bytes in launch order (predictor input)."""
        return [b.nbytes for b in self.buckets]

    @classmethod
    def from_model(cls, model: Module, bucket_bytes: int | None = None) -> "BucketPlan":
        return cls(model.parameters(), bucket_bytes=bucket_bytes)


class BucketedExchange:
    """Per-rank driver of the bucketed (optionally overlapped) exchange."""

    def __init__(
        self,
        comm: Communicator,
        plan: BucketPlan,
        algorithm: str = "tree",
        overlap: bool = True,
        compressor_factory=None,
    ):
        if overlap and compressor_factory is not None:
            raise ValueError(
                "compressed exchange is blocking per bucket; use overlap=False"
            )
        self.comm = comm
        self.plan = plan
        self.algorithm = algorithm
        self.overlap = overlap
        #: one compressor per bucket: error feedback keeps a residual shaped
        #: like the bucket it compresses
        self.compressors = (
            None if compressor_factory is None
            else [compressor_factory() for _ in plan.buckets]
        )
        #: cumulative simulated seconds this rank was blocked on gradient comm
        self.exposed_seconds = 0.0
        #: cumulative simulated seconds of allreduce occupancy (sum of buckets)
        self.busy_seconds = 0.0
        self._hooked: list[Module] = []
        # per-step state
        self._bwd_seconds = 0.0
        self._pending = [len(b.params) for b in plan.buckets]
        self._seen: set[int] = set()
        self._next_launch = len(plan.buckets)  # nothing launchable until begin_step
        self._requests: list = [None] * len(plan.buckets)

    # -- overlap hooks -------------------------------------------------------
    def install_hooks(self, model: Module) -> None:
        """Hook every module owning a planned parameter; after each of its
        ``backward`` calls the hook may launch one or more buckets."""
        for module in model.modules():
            if any(isinstance(p, Parameter) and id(p) in self.plan.bucket_of
                   for p in vars(module).values()):
                module.add_hook(self._grad_ready_hook)
                self._hooked.append(module)

    def remove_hooks(self) -> None:
        for module in self._hooked:
            module.remove_hook(self._grad_ready_hook)
        self._hooked.clear()

    def _grad_ready_hook(self, module: Module, phase: str, x):
        if phase == "backward":
            return functools.partial(self._on_grad_ready, module)
        return None

    def _on_grad_ready(self, module: Module) -> None:
        for p in vars(module).values():
            if not isinstance(p, Parameter):
                continue
            bucket_idx = self.plan.bucket_of.get(id(p))
            if bucket_idx is None or id(p) in self._seen:
                continue
            self._seen.add(id(p))
            self._pending[bucket_idx] -= 1
        # launch every consecutive fully-ready bucket, in plan order — the
        # collective program-order contract requires identical launch
        # sequences on every rank
        while (
            self._next_launch < len(self.plan.buckets)
            and self._pending[self._next_launch] == 0
        ):
            self._launch(self._next_launch)

    # -- step lifecycle ------------------------------------------------------
    def begin_step(self, compute_seconds: float) -> None:
        """Reset per-step state and charge the forward pass.

        ``compute_seconds`` is the rank's full forward+backward budget for
        the step; a third is charged here (forward), the rest is spread
        across bucket launches proportional to their element counts, so the
        simulated launch times mirror when backward would really produce
        each bucket.  Straggler multipliers apply via ``comm.compute``.
        """
        t_fwd = compute_seconds / 3.0
        self._bwd_seconds = compute_seconds - t_fwd
        self._pending = [len(b.params) for b in self.plan.buckets]
        self._seen = set()
        self._next_launch = 0
        self._requests = [None] * len(self.plan.buckets)
        if t_fwd > 0.0:
            self.comm.compute(t_fwd)

    def _launch(self, index: int) -> None:
        bucket = self.plan.buckets[index]
        if self._bwd_seconds > 0.0:
            self.comm.compute(
                self._bwd_seconds * bucket.size / self.plan.total_size
            )
        flat = bucket.pack()
        self._requests[index] = self.comm.iallreduce(
            flat, algorithm=self.algorithm, copy=False
        )
        self._next_launch = index + 1

    def finish_step(self) -> None:
        """Flush, wait, and unpack every bucket; account overlap quality.

        Buckets backward never reached (empty shard: no backward ran, the
        zeroed gradients still participate so the collective matches) are
        launched here first, in plan order.
        """
        while self._next_launch < len(self.plan.buckets):
            self._launch(self._next_launch)
        compute_end = self.comm.time
        with _timed("cluster.bucket_sync", rank=self.comm.rank,
                    buckets=len(self.plan.buckets)):
            for bucket, req in zip(self.plan.buckets, self._requests):
                total = req.wait()
                bucket.unpack(total)
                _observe("cluster.bucket_latency_s", req.sim_latency,
                         rank=self.comm.rank)
        exposed = self.comm.time - compute_end
        busy = sum(req.sim_latency for req in self._requests)
        self.exposed_seconds += exposed
        self.busy_seconds += busy
        if busy > 0.0:
            _gauge("cluster.overlap_efficiency", rank=self.comm.rank).set(
                1.0 - exposed / busy
            )

    # -- blocking bucketed path ---------------------------------------------
    def sync_blocking(self) -> None:
        """Sequential per-bucket blocking exchange (``overlap=False``).

        Same plan, same wire partitioning (so fault plans see per-bucket
        messages), but every allreduce — or per-bucket compressed exchange —
        completes before the next launches; comm time is fully exposed.
        With one bucket this is the monolithic exchange.
        """
        start = self.comm.time
        for bucket in self.plan.buckets:
            flat = bucket.pack()
            if self.compressors is not None:
                from .compression import compressed_allreduce

                total = compressed_allreduce(
                    self.comm, flat, self.compressors[bucket.index])
            else:
                total = self.comm.allreduce(flat, algorithm=self.algorithm)
            bucket.unpack(total)
        elapsed = self.comm.time - start
        self.exposed_seconds += elapsed
        self.busy_seconds += elapsed
