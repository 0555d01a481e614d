"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from ..initializers import Initializer, xavier, zeros
from ..tensor import Parameter
from .base import Module, Shape

__all__ = ["Dense"]


class Dense(Module):
    """Affine map ``y = x @ W + b`` with ``W`` of shape ``(in, out)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        weight_init: Initializer = xavier,
        bias_init: Initializer = zeros,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(weight_init((in_features, out_features), rng))
        self.bias = Parameter(bias_init((out_features,), rng), weight_decay=0.0) if bias else None
        self._x: np.ndarray | None = None

    def output_shape(self, input_shape: Shape) -> Shape:
        if len(input_shape) != 1 or input_shape[0] != self.in_features:
            raise ValueError(
                f"{self.name or 'Dense'}: expected ({self.in_features},), got {input_shape}"
            )
        return (self.out_features,)

    def flops_per_example(self, input_shape: Shape) -> int:
        flops = 2 * self.in_features * self.out_features
        if self.bias is not None:
            flops += self.out_features
        return flops

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self._x = x if self.training else None
        y = out if out is not None else self._buf("y", (x.shape[0], self.out_features), np.float64)
        np.matmul(x, self.weight.data, out=y)
        if self.bias is not None:
            y += self.bias.data
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        dw = self._buf("dw", (self.in_features, self.out_features), np.float64)
        np.matmul(self._x.T, grad_out, out=dw)
        self.weight.grad += dw
        del dw
        if self.bias is not None:
            db = self._buf("db", (self.out_features,), grad_out.dtype)
            np.sum(grad_out, axis=0, out=db)
            self.bias.grad += db
            del db
        dx = out if out is not None else self._buf("dx", self._x.shape, np.float64)
        np.matmul(grad_out, self.weight.data.T, out=dx)
        self._x = None
        return dx
