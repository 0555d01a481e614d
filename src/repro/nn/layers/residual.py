"""Residual blocks (He et al. 2016), the building unit of ResNet-50.

A :class:`Residual` wraps a main branch and an optional projection shortcut;
the elementwise sum and the final ReLU live here.  Both basic (two 3×3) and
bottleneck (1×1 → 3×3 → 1×1) branch builders are provided in
``repro.nn.models.resnet``.
"""

from __future__ import annotations

import numpy as np

from .base import Module, Shape

__all__ = ["Residual"]


class Residual(Module):
    """``y = ReLU(branch(x) + shortcut(x))``.

    ``shortcut=None`` means identity, which requires the branch to be
    shape-preserving (checked at ``output_shape`` time).
    """

    _fusion_source = True  # forward writes ``out`` via one ufunc

    def __init__(self, branch: Module, shortcut: Module | None = None):
        super().__init__()
        self.branch = branch
        self.shortcut = shortcut
        self._relu_mask: np.ndarray | None = None

    def input_slot(self, x_shape, dtype):
        # Our input is consumed first by the branch's leading layer (the
        # shortcut and the elementwise add only ever *read* it, so sharing
        # that layer's padded-input slot is safe).
        return self.branch.input_slot(x_shape, dtype)

    def output_shape(self, input_shape: Shape) -> Shape:
        out = self.branch.output_shape(input_shape)
        short = (
            tuple(input_shape)
            if self.shortcut is None
            else self.shortcut.output_shape(input_shape)
        )
        if out != short:
            raise ValueError(
                f"residual mismatch: branch {out} vs shortcut {short} for input {input_shape}"
            )
        return out

    def flops_per_example(self, input_shape: Shape) -> int:
        total = self.branch.flops_per_example(input_shape)
        if self.shortcut is not None:
            total += self.shortcut.flops_per_example(input_shape)
        # the add and the ReLU
        total += 2 * int(np.prod(self.output_shape(input_shape)))
        return total

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        main = self.branch.forward(x)
        short = x if self.shortcut is None else self.shortcut.forward(x)
        pre = self._buf("pre", main.shape, np.float64)
        np.add(main, short, out=pre)
        mask = self._buf("mask", main.shape, np.bool_)
        np.greater(pre, 0, out=mask)
        self._relu_mask = mask
        y = out if out is not None else self._buf("y", main.shape, np.float64)
        np.maximum(pre, 0.0, out=y)
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._relu_mask is None:
            raise RuntimeError("backward called before forward")
        mask = self._relu_mask
        dpre = self._buf("dpre", grad_out.shape, np.float64)
        # mask-multiply + ``+= 0.0`` == np.where(mask, grad, 0.0) bitwise for
        # finite gradients (the add rewrites -0.0 to the +0.0 where produces)
        np.multiply(grad_out, mask, out=dpre)
        dpre += 0.0
        self._relu_mask = None
        dbranch = self.branch.backward(dpre)
        other = dpre if self.shortcut is None else self.shortcut.backward(dpre)
        if out is not None:
            np.add(dbranch, other, out=out)
            return out
        # Sum in place into the branch's gradient buffer (a persistent slot
        # of its first layer, dead until that layer's next backward): one
        # fewer memory stream than writing a third buffer, same bits.
        np.add(dbranch, other, out=dbranch)
        return dbranch
