"""Elementwise activation layers.

Each layer has one code path.  Its buffers come from ``Module._buf`` /
``Module._scratch``: arena slots when a memory context is bound via
``Module.bind_memory``, fresh arrays otherwise, so the arithmetic is the
same under both allocation policies.  The formulas are written with ufunc
``out=`` calls and reproduce the textbook ``np.where`` forms bitwise for
finite inputs — e.g. ``np.maximum(x, 0.0, out=y)`` equals
``np.where(x > 0, x, 0.0)``, including the ``+0.0`` sign at masked-off
elements, and ``np.multiply(g, mask, out=dx)`` followed by ``dx += 0.0``
equals ``np.where(mask, g, 0.0)`` (the ``+= 0.0`` rewrites the ``-0.0`` a
negative gradient leaves behind; the forms differ only on non-finite
inputs, which would turn into NaNs one layer later anyway).
"""

from __future__ import annotations

import numpy as np

from .base import Module, Shape

__all__ = ["ReLU", "Sigmoid", "Tanh"]


class _Elementwise(Module):
    """Shared shape/flop logic for elementwise activations."""

    FLOPS_PER_ELEMENT = 1

    def output_shape(self, input_shape: Shape) -> Shape:
        return tuple(input_shape)

    def flops_per_example(self, input_shape: Shape) -> int:
        return self.FLOPS_PER_ELEMENT * int(np.prod(input_shape))


class ReLU(_Elementwise):
    """max(x, 0)."""

    _fusion_source = True  # forward writes ``out`` via one ufunc

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        mask = self._buf("mask", x.shape, np.bool_)
        np.greater(x, 0, out=mask)
        self._mask = mask
        y = out if out is not None else self._buf("y", x.shape, x.dtype)
        np.maximum(x, 0.0, out=y)
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        dx = out if out is not None else self._buf("dx", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, self._mask, out=dx)
        dx += 0.0
        self._mask = None
        return dx


class Sigmoid(_Elementwise):
    FLOPS_PER_ELEMENT = 4

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # Numerically stable logistic, split under ufunc ``where=`` masks:
        # exp only ever sees non-positive arguments.
        pos = self._buf("pos", x.shape, np.bool_)
        np.greater_equal(x, 0, out=pos)
        neg = self._buf("neg", x.shape, np.bool_)
        np.logical_not(pos, out=neg)
        t = self._scratch(x.shape, np.float64)
        y = out if out is not None else self._buf("y", x.shape, np.float64)
        np.negative(x, out=t, where=pos)
        np.exp(t, out=t, where=pos)
        np.add(t, 1.0, out=t, where=pos)
        np.divide(1.0, t, out=y, where=pos)
        np.exp(x, out=t, where=neg)
        u = self._scratch(x.shape, np.float64)
        np.add(t, 1.0, out=u, where=neg)
        np.divide(t, u, out=y, where=neg)
        self._drop(u)
        self._drop(t)
        self._y = y
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        dx = out if out is not None else self._buf("dx", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, self._y, out=dx)
        t = self._scratch(grad_out.shape, np.float64)
        np.subtract(1.0, self._y, out=t)
        dx *= t
        self._drop(t)
        self._y = None
        return dx


class Tanh(_Elementwise):
    FLOPS_PER_ELEMENT = 4

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        y = out if out is not None else self._buf("y", x.shape, x.dtype)
        np.tanh(x, out=y)
        self._y = y
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        t = self._scratch(grad_out.shape, np.float64)
        np.multiply(self._y, self._y, out=t)
        np.subtract(1.0, t, out=t)
        dx = out if out is not None else self._buf("dx", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, t, out=dx)
        self._drop(t)
        self._y = None
        return dx
