"""Model parallelism (Figure 2(b)).

The paper describes partitioning the network itself across machines so that
"only those nodes with edges that cross partition boundaries will need to
have their state communicated", and notes that model parallelism "can get
the same solution as the single-machine case".  This module implements the
standard two flavours of partitioned affine layers and a partitioned MLP,
and the test-suite verifies that exactness claim against the serial layers.

* :class:`ColumnParallelDense` — splits the *output* features: rank r holds
  the column block ``W[:, r]``; the forward allgathers the partial outputs,
  the backward allreduces the input gradient (each rank holds only its
  block's contribution).
* :class:`RowParallelDense` — splits the *input* features: rank r holds the
  row block ``W[r, :]`` and consumes the matching slice of the input; the
  forward allreduces the partial outputs.

Composing column→row pairs gives the classic pattern with a single
communication point per pair (the row layer's output reduction) — each rank
consumes exactly the activation slice the previous column layer produced
locally.
"""

from __future__ import annotations

import numpy as np

from ..comm.communicator import Communicator
from ..nn.initializers import Initializer, xavier, zeros
from ..nn.layers.base import Module, Shape
from ..nn.tensor import Parameter

__all__ = [
    "ColumnParallelDense",
    "RowParallelDense",
    "partition_bounds",
]


def partition_bounds(total: int, world: int, rank: int) -> tuple[int, int]:
    """Contiguous near-even partition of ``total`` features: rank's [lo, hi).

    The first ``total % world`` ranks take one extra feature; concatenating
    all blocks in rank order reconstructs the full axis.
    """
    if world <= 0 or not 0 <= rank < world:
        raise ValueError("invalid world/rank")
    base, extra = divmod(total, world)
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


class ColumnParallelDense(Module):
    """Dense layer with output features partitioned across ranks.

    Construction is *deterministic in the full weight*: every rank draws the
    identical full ``(in, out)`` matrix from the shared seed and keeps only
    its column block, so a model-parallel model is bit-comparable to the
    serial one (and to any other world size).

    ``gather_output=True`` (default) returns the full output on every rank
    (one allgather); with ``False`` the caller receives only the local block
    — used when the next layer is a :class:`RowParallelDense`, which wants
    exactly that slice (no communication at the boundary).
    """

    def __init__(
        self,
        comm: Communicator,
        in_features: int,
        out_features: int,
        bias: bool = True,
        gather_output: bool = True,
        weight_init: Initializer = xavier,
        bias_init: Initializer = zeros,
        seed: int = 0,
    ):
        super().__init__()
        self.comm = comm
        self.in_features = in_features
        self.out_features = out_features
        self.gather_output = gather_output
        rng = np.random.default_rng(seed)
        full_w = weight_init((in_features, out_features), rng)
        full_b = bias_init((out_features,), rng) if bias else None
        self.lo, self.hi = partition_bounds(out_features, comm.size, comm.rank)
        self.weight = Parameter(full_w[:, self.lo : self.hi])
        self.bias = (
            Parameter(full_b[self.lo : self.hi], weight_decay=0.0) if bias else None
        )
        self._x: np.ndarray | None = None

    def output_shape(self, input_shape: Shape) -> Shape:
        if input_shape != (self.in_features,):
            raise ValueError(f"expected ({self.in_features},), got {input_shape}")
        out = self.out_features if self.gather_output else self.hi - self.lo
        return (out,)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        local = x @ self.weight.data
        if self.bias is not None:
            local = local + self.bias.data
        if not self.gather_output:
            return local
        pieces = self.comm.allgather(local)
        return np.concatenate(pieces, axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        if self.gather_output:
            grad_local = grad_out[:, self.lo : self.hi]
        else:
            grad_local = grad_out
        self.weight.grad += self._x.T @ grad_local
        if self.bias is not None:
            self.bias.grad += grad_local.sum(axis=0)
        # each rank contributes its block's share of dX; the sum over
        # ranks is the full dX = dY @ W.T (boundary-crossing traffic)
        partial_dx = grad_local @ self.weight.data.T
        dx = self.comm.allreduce(partial_dx)
        self._x = None
        return dx


class RowParallelDense(Module):
    """Dense layer with input features partitioned across ranks.

    ``input_is_partitioned=True`` means the caller supplies only this rank's
    input slice (the natural hand-off from a non-gathering column layer);
    otherwise the layer slices the full input itself.  The forward output is
    an allreduce of the partial products — full and identical on every rank.
    """

    def __init__(
        self,
        comm: Communicator,
        in_features: int,
        out_features: int,
        bias: bool = True,
        input_is_partitioned: bool = False,
        weight_init: Initializer = xavier,
        bias_init: Initializer = zeros,
        seed: int = 0,
    ):
        super().__init__()
        self.comm = comm
        self.in_features = in_features
        self.out_features = out_features
        self.input_is_partitioned = input_is_partitioned
        rng = np.random.default_rng(seed)
        full_w = weight_init((in_features, out_features), rng)
        self.lo, self.hi = partition_bounds(in_features, comm.size, comm.rank)
        self.weight = Parameter(full_w[self.lo : self.hi, :])
        # the bias is applied once (post-reduction) — owned by rank 0's
        # arithmetic but replicated so every rank applies it identically
        full_b = bias_init((out_features,), rng) if bias else None
        self.bias = Parameter(full_b, weight_decay=0.0) if bias else None
        self._x_local: np.ndarray | None = None

    def output_shape(self, input_shape: Shape) -> Shape:
        expected = (
            (self.hi - self.lo,) if self.input_is_partitioned else (self.in_features,)
        )
        if input_shape != expected:
            raise ValueError(f"expected {expected}, got {input_shape}")
        return (self.out_features,)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x_local = x if self.input_is_partitioned else x[:, self.lo : self.hi]
        self._x_local = x_local
        partial = x_local @ self.weight.data
        out = self.comm.allreduce(partial)
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_local is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += self._x_local.T @ grad_out
        if self.bias is not None:
            # every rank sees the full grad_out (the output was allreduced),
            # so the replicated bias gets its complete gradient locally and
            # all replicas update identically — no further reduction needed
            self.bias.grad += grad_out.sum(axis=0)
        dx_local = grad_out @ self.weight.data.T
        self._x_local = None
        if self.input_is_partitioned:
            return dx_local
        # reassemble the full input gradient from the per-rank slices
        pieces = self.comm.allgather(dx_local)
        return np.concatenate(pieces, axis=1)
