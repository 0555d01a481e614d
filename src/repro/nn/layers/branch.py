"""Parallel branches concatenated along the channel axis — the Inception
module's skeleton (GoogLeNet is the model FireCaffe scaled, the starting
point of the related-work lineage this paper extends)."""

from __future__ import annotations

import numpy as np

from .base import Module, Shape

__all__ = ["ConcatBranches"]


class ConcatBranches(Module):
    """``y = concat_channels(branch_i(x) for i)``.

    All branches must produce identical spatial dimensions; channel counts
    add.  The backward pass splits the incoming gradient at the recorded
    channel boundaries and sums the branch input-gradients.
    """

    def __init__(self, *branches: Module):
        super().__init__()
        if not branches:
            raise ValueError("need at least one branch")
        self.branches: list[Module] = list(branches)
        self._splits: list[int] | None = None

    def output_shape(self, input_shape: Shape) -> Shape:
        shapes = [b.output_shape(input_shape) for b in self.branches]
        spatial = {s[1:] for s in shapes}
        if len(spatial) != 1:
            raise ValueError(f"branch spatial shapes differ: {shapes}")
        channels = sum(s[0] for s in shapes)
        return (channels, *shapes[0][1:])

    def flops_per_example(self, input_shape: Shape) -> int:
        return sum(b.flops_per_example(input_shape) for b in self.branches)

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        outs = [b.forward(x) for b in self.branches]
        self._splits = [o.shape[1] for o in outs]
        n = outs[0].shape[0]
        shape = (n, sum(self._splits), *outs[0].shape[2:])
        y = out if out is not None else self._buf("y", shape, np.float64)
        np.concatenate(outs, axis=1, out=y)
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._splits is None:
            raise RuntimeError("backward called before forward")
        dx = None
        lo = 0
        for i, (branch, width) in enumerate(zip(self.branches, self._splits)):
            g = grad_out[:, lo : lo + width]
            gbuf = self._buf(f"g{i}", g.shape, np.float64)
            np.copyto(gbuf, g)
            contrib = branch.backward(gbuf)
            if dx is None:
                dx = out if out is not None else self._buf("dx", contrib.shape, np.float64)
                np.copyto(dx, contrib)
            else:
                dx += contrib
            lo += width
        self._splits = None
        return dx
