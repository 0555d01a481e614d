"""Eager reference layers: the bitwise oracle for ``repro.nn``'s layer code.

Every ``repro.nn`` layer has a single forward/backward that writes into
buffers from ``Module._buf``/``_scratch`` (fresh arrays, or arena slots
under a bound ``MemoryContext``).  The classes here keep the textbook
allocating formulas those layers are checked against: each twin subclasses
its production layer and overrides only the arithmetic, so shapes, flops,
parameters and caches stay shared.  ``Conv2D``'s twin is the general route
— every kernel, 1×1 included, goes through ``im2col``/``col2im`` with no
fast path and no reused buffer.

:func:`eager_twin` deep-copies a module (or a loss) and swaps every layer
for its twin, so both start from identical parameters, running statistics
and dropout RNG state.  Make the twin before binding a memory context.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.nn import (
    AvgPool2D,
    BatchNorm,
    ConcatBranches,
    Conv2D,
    Dense,
    Dropout,
    GlobalAvgPool2D,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Residual,
    Sequential,
    Sigmoid,
    SyncBatchNorm,
    Tanh,
)
from repro.nn.layers.base import Module
from repro.nn.layers.conv import _BATCHED_MATMUL_MAX_MACS, col2im, im2col
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.tensor import cached_einsum

__all__ = ["eager_twin"]


class EagerReLU(ReLU):
    def forward(self, x, out=None):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out, out=None):
        dx = np.where(self._mask, grad_out, 0.0)
        self._mask = None
        return dx


class EagerSigmoid(Sigmoid):
    def forward(self, x, out=None):
        # numerically stable logistic: exp only ever sees non-positive args
        y = np.empty_like(x, dtype=np.float64)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        self._y = y
        return y

    def backward(self, grad_out, out=None):
        dx = grad_out * self._y * (1.0 - self._y)
        self._y = None
        return dx


class EagerTanh(Tanh):
    def forward(self, x, out=None):
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out, out=None):
        dx = grad_out * (1.0 - self._y * self._y)
        self._y = None
        return dx


class EagerDense(Dense):
    def forward(self, x, out=None):
        self._x = x
        y = x @ self.weight.data
        if self.bias is not None:
            y += self.bias.data
        return y

    def backward(self, grad_out, out=None):
        self.weight.grad += self._x.T @ grad_out
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        dx = grad_out @ self.weight.data.T
        self._x = None
        return dx


class EagerConv2D(Conv2D):
    """The general im2col route: no 1×1 shortcut, no reused buffers."""

    def forward(self, x, out=None):
        n, c, _, _ = x.shape
        k, s, p, g = self.kernel_size, self.stride, self.padding, self.groups
        cg, og = c // g, self.out_channels // g
        cols, (oh, ow) = im2col(x, k, k, s, p)
        cols_g = cols.reshape(n, g, cg * k * k, oh * ow)
        w2 = self.weight.data.reshape(g, og, cg * k * k)
        y = np.matmul(w2[None], cols_g).reshape(n, self.out_channels, oh, ow)
        if self.bias is not None:
            y += self.bias.data[None, :, None, None]
        self._cache = (x.shape, cols_g, (oh, ow))
        return y

    def backward(self, grad_out, out=None):
        x_shape, cols_g, (oh, ow) = self._cache
        n = x_shape[0]
        k, s, p, g = self.kernel_size, self.stride, self.padding, self.groups
        og = self.out_channels // g
        ckk = cols_g.shape[2]
        span = oh * ow
        go = grad_out.reshape(n, g, og, span)
        w2 = self.weight.data.reshape(g, og, ckk)
        if n * g * og * ckk * span <= _BATCHED_MATMUL_MAX_MACS:
            dw = np.matmul(
                go.transpose(1, 2, 0, 3).reshape(g, og, n * span),
                cols_g.transpose(1, 0, 3, 2).reshape(g, n * span, ckk),
            )
            dcols = np.matmul(w2.transpose(0, 2, 1)[None], go)
        else:
            dw = cached_einsum("ngol,ngcl->goc", go, cols_g)
            dcols = cached_einsum("goc,ngol->ngcl", w2, go)
        self.weight.grad += dw.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=(0, 2, 3))
        self._cache = None
        dcols = dcols.reshape(n, self.in_channels * k * k, span)
        return col2im(dcols, x_shape, k, k, s, p)


class EagerMaxPool2D(MaxPool2D):
    def forward(self, x, out=None):
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        if p > 0:
            # pad with -inf so padded positions never win the max
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
        hp, wp = x.shape[2], x.shape[3]
        # channels as batch for the unfold
        cols, (oh, ow) = im2col(x.reshape(n * c, 1, hp, wp), k, k, s, 0)
        cols = cols.reshape(n, c, k * k, oh * ow)
        argmax = cols.argmax(axis=2)
        y = np.take_along_axis(cols, argmax[:, :, None, :], axis=2)[:, :, 0, :]
        self._cache = ((n, c, h, w), argmax, (oh, ow))
        return y.reshape(n, c, oh, ow)

    def backward(self, grad_out, out=None):
        (n, c, h, w), argmax, (oh, ow) = self._cache
        k, s, p = self.kernel_size, self.stride, self.padding
        hp, wp = h + 2 * p, w + 2 * p
        dcols = np.zeros((n, c, k * k, oh * ow))
        go = grad_out.reshape(n, c, 1, oh * ow)
        np.put_along_axis(dcols, argmax[:, :, None, :], go, axis=2)
        dx = col2im(dcols.reshape(n * c, k * k, oh * ow), (n * c, 1, hp, wp), k, k, s, 0)
        dx = dx.reshape(n, c, hp, wp)
        if p > 0:
            dx = dx[:, :, p:-p, p:-p]
        self._cache = None
        return dx


class EagerAvgPool2D(AvgPool2D):
    def forward(self, x, out=None):
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        cols, (oh, ow) = im2col(x.reshape(n * c, 1, h, w), k, k, s, p)
        y = cols.reshape(n, c, k * k, oh * ow).mean(axis=2)
        self._x_shape = x.shape
        self._ohw = (oh, ow)
        return y.reshape(n, c, oh, ow)

    def backward(self, grad_out, out=None):
        n, c, h, w = self._x_shape
        oh, ow = self._ohw
        k, s, p = self.kernel_size, self.stride, self.padding
        go = grad_out.reshape(n * c, 1, oh * ow) / (k * k)
        dcols = np.broadcast_to(go, (n * c, k * k, oh * ow))
        dx = col2im(np.ascontiguousarray(dcols), (n * c, 1, h, w), k, k, s, p)
        self._x_shape = None
        return dx.reshape(n, c, h, w)


class EagerGlobalAvgPool2D(GlobalAvgPool2D):
    def forward(self, x, out=None):
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out, out=None):
        n, c, h, w = self._x_shape
        dx = np.broadcast_to(grad_out[:, :, None, None], (n, c, h, w)) / (h * w)
        self._x_shape = None
        return np.ascontiguousarray(dx)


class EagerBatchNorm(BatchNorm):
    def _normalize(self, x, mean, inv_std, out=None):
        nd = x.ndim
        xhat = (x - self._expand(mean, nd)) * self._expand(inv_std, nd)
        y = self._expand(self.gamma.data, nd) * xhat + self._expand(self.beta.data, nd)
        return y, xhat

    def backward(self, grad_out, out=None):
        xhat, inv_std = self._cache
        axes = self._reduce_axes(grad_out.ndim)
        nd = grad_out.ndim
        m = float(np.prod([grad_out.shape[a] for a in axes]))
        self.gamma.grad += (grad_out * xhat).sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        dxhat = grad_out * self._expand(self.gamma.data, nd)
        # dx = (1/m) * inv_std * (m*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat))
        sum_dxhat = self._expand(dxhat.sum(axis=axes), nd)
        sum_dxhat_xhat = self._expand((dxhat * xhat).sum(axis=axes), nd)
        dx = (self._expand(inv_std, nd) / m) * (
            m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat
        )
        self._cache = None
        return dx


class EagerSyncBatchNorm(SyncBatchNorm):
    _normalize = EagerBatchNorm._normalize

    def backward(self, grad_out, out=None):
        xhat, inv_std, count = self._cache
        axes = self._reduce_axes(grad_out.ndim)
        nd = grad_out.ndim
        dxhat = grad_out * self._expand(self.gamma.data, nd)
        zeros = np.zeros(self.num_features)
        self.gamma.grad += (grad_out * xhat).sum(axis=axes) if grad_out.size else zeros
        self.beta.grad += grad_out.sum(axis=axes) if grad_out.size else zeros
        local = np.concatenate(
            [
                dxhat.sum(axis=axes) if dxhat.size else zeros,
                (dxhat * xhat).sum(axis=axes) if dxhat.size else zeros,
            ]
        )
        total = self._allreduce(local)
        n = self.num_features
        sum_dxhat = self._expand(total[:n], nd)
        sum_dxhat_xhat = self._expand(total[n:], nd)
        dx = (self._expand(inv_std, nd) / count) * (
            count * dxhat - sum_dxhat - xhat * sum_dxhat_xhat
        )
        self._cache = None
        return dx


class EagerLocalResponseNorm(LocalResponseNorm):
    def _eager_window_sum(self, sq):
        c = sq.shape[1]
        half = self.size // 2
        # prefix sums over channels, padded with a leading zero
        csum = np.cumsum(sq, axis=1)
        csum = np.concatenate([np.zeros_like(csum[:, :1]), csum], axis=1)
        hi = np.minimum(np.arange(c) + half + 1, c)
        lo = np.maximum(np.arange(c) - half, 0)
        return csum[:, hi] - csum[:, lo]

    def forward(self, x, out=None):
        ssum = self._eager_window_sum(x * x)
        denom = self.k + (self.alpha / self.size) * ssum
        self._cache = (x, denom)
        return x * denom ** (-self.beta)

    def backward(self, grad_out, out=None):
        x, denom = self._cache
        dpow = denom ** (-self.beta)
        t = grad_out * x * dpow / denom  # g_j x_j d_j^{-beta-1}
        tsum = self._eager_window_sum(t)
        dx = grad_out * dpow - 2.0 * self.beta * (self.alpha / self.size) * x * tsum
        self._cache = None
        return dx


class EagerDropout(Dropout):
    def forward(self, x, out=None):
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out, out=None):
        if self._mask is None:
            return grad_out
        mask, self._mask = self._mask, None
        return grad_out * mask


class EagerResidual(Residual):
    def forward(self, x, out=None):
        main = self.branch.forward(x)
        short = x if self.shortcut is None else self.shortcut.forward(x)
        pre = main + short
        self._relu_mask = pre > 0
        return np.where(self._relu_mask, pre, 0.0)

    def backward(self, grad_out, out=None):
        dpre = np.where(self._relu_mask, grad_out, 0.0)
        self._relu_mask = None
        dx = self.branch.backward(dpre)
        if self.shortcut is None:
            return dx + dpre
        return dx + self.shortcut.backward(dpre)


class EagerConcatBranches(ConcatBranches):
    def forward(self, x, out=None):
        outs = [b.forward(x) for b in self.branches]
        self._splits = [o.shape[1] for o in outs]
        return np.concatenate(outs, axis=1)

    def backward(self, grad_out, out=None):
        dx = None
        lo = 0
        for branch, width in zip(self.branches, self._splits):
            contrib = branch.backward(np.ascontiguousarray(grad_out[:, lo : lo + width]))
            dx = contrib if dx is None else dx + contrib
            lo += width
        self._splits = None
        return dx


class EagerSequential(Sequential):
    def forward(self, x, out=None):
        for layer in self.layers:
            x = layer.forward(x)
        return x


class EagerSoftmaxCrossEntropy(SoftmaxCrossEntropy):
    def forward(self, logits, targets):
        targets = np.asarray(targets, dtype=np.int64)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        eps = self.label_smoothing
        loss = -logp[np.arange(len(targets)), targets]
        if eps > 0.0:
            loss = (1.0 - eps) * loss + eps * -logp.mean(axis=1)
        self._cache = (logp, targets)
        return float(loss.mean())

    def backward(self):
        logp, targets = self._cache
        n, k = logp.shape
        eps = self.label_smoothing
        target_dist = np.full((n, k), eps / k)
        target_dist[np.arange(n), targets] += 1.0 - eps
        self._cache = None
        return (np.exp(logp) - target_dist) / n


_TWINS = {
    cls.__mro__[1]: cls
    for cls in (
        EagerReLU,
        EagerSigmoid,
        EagerTanh,
        EagerDense,
        EagerConv2D,
        EagerMaxPool2D,
        EagerAvgPool2D,
        EagerGlobalAvgPool2D,
        EagerBatchNorm,
        EagerSyncBatchNorm,
        EagerLocalResponseNorm,
        EagerDropout,
        EagerResidual,
        EagerConcatBranches,
        EagerSequential,
        EagerSoftmaxCrossEntropy,
    )
}


def eager_twin(obj):
    """Deep copy of a module tree or loss running the eager formulas."""
    twin = copy.deepcopy(obj)
    for m in twin.modules() if isinstance(twin, Module) else (twin,):
        m.__class__ = _TWINS.get(type(m), type(m))
    return twin
