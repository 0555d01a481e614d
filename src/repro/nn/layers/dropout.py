"""Inverted dropout (AlexNet's classifier uses p=0.5)."""

from __future__ import annotations

import numpy as np

from .base import Module, Shape

__all__ = ["Dropout"]


class Dropout(Module):
    """Inverted dropout: at train time zero each unit with probability ``p``
    and scale survivors by ``1/(1-p)``; identity at eval time.

    The mask RNG is owned by the layer so that replicated workers can be
    seeded identically (sequential consistency requires every replica to draw
    the same masks for the same global batch).  Call :meth:`reseed` to align
    replicas.

    The mask is drawn into a layer buffer with ``Generator.random(out=...)``,
    which consumes the identical stream as ``rng.random(shape)``; with a
    bound memory context that buffer and the output are persistent arena
    slots, so steady-state steps never reallocate them.
    """

    _fusion_source = True  # forward writes ``out`` via plain ufuncs

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def reseed(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def output_shape(self, input_shape: Shape) -> Shape:
        return tuple(input_shape)

    def flops_per_example(self, input_shape: Shape) -> int:
        return int(np.prod(input_shape))

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            if out is not None:
                np.copyto(out, x)
                return out
            return x
        keep = 1.0 - self.p
        mask = self._buf("mask", x.shape, np.float64)
        sel = self._buf("sel", x.shape, np.bool_)
        self.rng.random(out=mask)
        np.less(mask, keep, out=sel)
        np.divide(sel, keep, out=mask)
        self._mask = mask
        y = out if out is not None else self._buf("y", x.shape, np.float64)
        np.multiply(x, mask, out=y)
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._mask is None:
            if out is not None:
                np.copyto(out, grad_out)
                return out
            return grad_out
        mask = self._mask
        self._mask = None
        dx = out if out is not None else self._buf("dx", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, mask, out=dx)
        return dx
