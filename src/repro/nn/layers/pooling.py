"""Pooling layers: max, average, and global average (ResNet's head)."""

from __future__ import annotations

import numpy as np

from .base import Module, Shape
from .conv import col2im, col2im_clipped, conv_output_hw, fill_border, im2col

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
        cols = self._buf("cols", (n * c, k * k, oh * ow), x.dtype)
        im2col(xw.reshape(n * c, 1, hp, wp), k, k, s, 0, out=cols)
        cols4 = cols.reshape(n, c, k * k, oh * ow)
        self._cache = None
        if self.training:
            argmax = self._buf("argmax", (n, c, oh * ow), np.intp)
            np.argmax(cols4, axis=2, out=argmax)
            self._cache = ((n, c, h, w), argmax, (oh, ow))
        y = out if out is not None else self._buf("y", (n, c, oh, ow), x.dtype)
        # amax == the value take_along_axis(argmax) extracts, bit for bit
        np.amax(cols4, axis=2, out=y.reshape(n, c, oh * ow))
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        (n, c, h, w), argmax, (oh, ow) = self._cache
        k, s, p = self.kernel_size, self.stride, self.padding
        hp, wp = h + 2 * p, w + 2 * p
        dcols = self._buf("dcols", (n, c, k * k, oh * ow), np.float64)
        dcols[...] = 0.0
        go = grad_out.reshape(n, c, 1, oh * ow)
        np.put_along_axis(dcols, argmax[:, :, None, :], go, axis=2)
        self._cache = None
        del argmax
        if p > 0 and s < k:
            dx = out if out is not None else self._buf("dx", (n, c, h, w), np.float64)
            col2im_clipped(
                dcols.reshape(n * c, k * k, oh * ow), (n * c, 1, h, w), k, k, s, p,
                out=dx.reshape(n * c, 1, h, w),
            )
            return dx
        pad_buf = self._buf("dx_pad", (n * c, 1, hp, wp), np.float64)
        dxv = col2im(
            dcols.reshape(n * c, k * k, oh * ow), (n * c, 1, hp, wp), k, k, s, 0,
            out=pad_buf,
        )
        del dcols
        dxv = dxv.reshape(n, c, hp, wp)
        if p > 0:
            dx = out if out is not None else self._buf("dx", (n, c, h, w), np.float64)
            np.copyto(dx, dxv[:, :, p:-p, p:-p])
            return dx
        if out is not None:
            np.copyto(out, dxv)
            return out
        return dxv


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
        if p > 0 and s < k:
            dx = out if out is not None else self._buf("dx", (n, c, h, w), np.float64)
            col2im_clipped(
                dcols, (n * c, 1, h, w), k, k, s, p, out=dx.reshape(n * c, 1, h, w)
            )
            return dx
        hp, wp = h + 2 * p, w + 2 * p
        pad_buf = self._buf("dx_pad", (n * c, 1, hp, wp), np.float64)
        dxv = col2im(dcols, (n * c, 1, h, w), k, k, s, p, out=pad_buf)
        del dcols
        if p > 0:
            dx = out if out is not None else self._buf("dx", (n, c, h, w), np.float64)
            np.copyto(dx.reshape(n * c, 1, h, w), dxv)
            return dx
        if out is not None:
            np.copyto(out, dxv.reshape(n, c, h, w))
            return out
        return dxv.reshape(n, c, h, w)


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
