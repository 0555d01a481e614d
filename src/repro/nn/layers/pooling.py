"""Pooling layers: max, average, and global average (ResNet's head)."""

from __future__ import annotations

import numpy as np

from .base import Module, Shape
from .conv import conv_output_hw, fill_border, im2col, window_grad

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class MaxPool2D(Module):
    """Max pooling with a square window."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._cache: tuple | None = None

    def output_shape(self, input_shape: Shape) -> Shape:
        c, h, w = input_shape
        oh, ow = conv_output_hw(h, w, self.kernel_size, self.kernel_size, self.stride, self.padding)
        return (c, oh, ow)

    def flops_per_example(self, input_shape: Shape) -> int:
        c, oh, ow = self.output_shape(input_shape)
        return c * oh * ow * (self.kernel_size * self.kernel_size - 1)

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        hp, wp = h + 2 * p, w + 2 * p
        if p > 0:
            xw = fill_border(self._buf("xpad", (n, c, hp, wp), x.dtype), p, -np.inf)
            xw[:, :, p:-p, p:-p] = x
        else:
            xw = x
        oh, ow = conv_output_hw(hp, wp, k, k, s, 0)
        kk, span = k * k, oh * ow
        cols = self._buf("cols", (n * c, kk, span), x.dtype)
        im2col(xw.reshape(n * c, 1, hp, wp), k, k, s, 0, out=cols)
        y = out if out is not None else self._buf("y", (n, c, oh, ow), x.dtype)
        ym = y.reshape(n * c, span)
        np.amax(cols, axis=1, out=ym)
        # np.argmax's first maximal offset by a compare chain over contiguous
        # rows, Horner form, times span: idx = (idx + span) * (row_i != max)
        idx = self._buf("idx", (n * c, span), np.intp)
        idx[...] = 0
        ne = self._buf("ne", (n * c, span), np.bool_)
        for i in range(kk - 2, -1, -1):
            np.not_equal(cols[:, i], ym, out=ne)
            idx += span
            idx *= ne
        # a NaN is never equal to the NaN max: route to the first NaN
        if np.isnan(ym, out=ne).any():
            r, j = np.nonzero(ne)
            idx[r, j] = np.argmax(cols[r, :, j], axis=1) * span
        # flat index into ``cols``; gathering there makes ``y`` the bytes of
        # the first maximal element, whose sign of zero ``amax`` may not keep
        # (in range by construction: "clip" skips "raise"'s buffered copy)
        idx += np.arange(0, cols.size, kk * span).reshape(-1, 1)
        idx += np.arange(span)
        np.take(cols.reshape(-1), idx, out=ym, mode="clip")
        self._cache = ((n, c, h, w), idx, (oh, ow)) if self.training else None
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        (n, c, h, w), idx, (oh, ow) = self._cache
        k, s, p = self.kernel_size, self.stride, self.padding
        dcols = self._buf("dcols", (n * c, k * k, oh * ow), np.float64)
        dcols[...] = 0.0
        dcols.reshape(-1)[idx] = grad_out.reshape(idx.shape)
        self._cache = None
        del idx
        dx = out if out is not None else self._buf("dx", (n, c, h, w), np.float64)
        window_grad(
            dcols, (n * c, 1, h, w), k, s, p, out=dx.reshape(n * c, 1, h, w), buf=self._buf
        )
        return dx


class AvgPool2D(Module):
    """Average pooling with a square window (zero-padded positions count)."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._x_shape: tuple | None = None

    def output_shape(self, input_shape: Shape) -> Shape:
        c, h, w = input_shape
        oh, ow = conv_output_hw(h, w, self.kernel_size, self.kernel_size, self.stride, self.padding)
        return (c, oh, ow)

    def flops_per_example(self, input_shape: Shape) -> int:
        c, oh, ow = self.output_shape(input_shape)
        return c * oh * ow * self.kernel_size * self.kernel_size

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        hp, wp = h + 2 * p, w + 2 * p
        if p > 0:
            xw = fill_border(self._buf("xpad", (n, c, hp, wp), x.dtype), p, 0.0)
            xw[:, :, p:-p, p:-p] = x
        else:
            xw = x
        oh, ow = conv_output_hw(hp, wp, k, k, s, 0)
        cols = self._buf("cols", (n * c, k * k, oh * ow), x.dtype)
        im2col(xw.reshape(n * c, 1, hp, wp), k, k, s, 0, out=cols)
        y = out if out is not None else self._buf("y", (n, c, oh, ow), x.dtype)
        cols.reshape(n, c, k * k, oh * ow).mean(axis=2, out=y.reshape(n, c, oh * ow))
        self._x_shape = x.shape if self.training else None
        self._ohw = (oh, ow)
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        oh, ow = self._ohw
        k, s, p = self.kernel_size, self.stride, self.padding
        go = self._buf("go", (n * c, 1, oh * ow), np.float64)
        np.divide(grad_out.reshape(n * c, 1, oh * ow), k * k, out=go)
        dcols = self._buf("dcols", (n * c, k * k, oh * ow), np.float64)
        dcols[...] = go
        del go
        self._x_shape = None
        dx = out if out is not None else self._buf("dx", (n, c, h, w), np.float64)
        window_grad(
            dcols, (n * c, 1, h, w), k, s, p, out=dx.reshape(n * c, 1, h, w), buf=self._buf
        )
        return dx


class GlobalAvgPool2D(Module):
    """Average over all spatial positions, producing ``(N, C)``."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple | None = None

    def output_shape(self, input_shape: Shape) -> Shape:
        c, h, w = input_shape
        return (c,)

    def flops_per_example(self, input_shape: Shape) -> int:
        return int(np.prod(input_shape))

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self._x_shape = x.shape if self.training else None
        n, c = x.shape[0], x.shape[1]
        y = out if out is not None else self._buf("y", (n, c), x.dtype)
        x.mean(axis=(2, 3), out=y)
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        dx = out if out is not None else self._buf("dx", (n, c, h, w), grad_out.dtype)
        dx[...] = grad_out[:, :, None, None]
        dx /= h * w
        self._x_shape = None
        return dx
