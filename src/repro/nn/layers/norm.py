"""Normalisation layers: BatchNorm (1-D / 2-D) and AlexNet's cross-channel LRN.

The paper's key model tweak is replacing AlexNet's local response
normalisation with batch normalisation ("AlexNet-BN", the refined model by
B. Ginsburg) — that change is what lets LARS push the batch size to 32K.
Both layers are implemented so the benchmark harness can train either
variant.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Parameter
from .base import Module, Shape

__all__ = ["BatchNorm", "SyncBatchNorm", "LocalResponseNorm"]


class BatchNorm(Module):
    """Batch normalisation over the channel axis.

    Works for both 2-D activations ``(N, F)`` (axis 1 = features) and 4-D
    activations ``(N, C, H, W)`` (normalises per channel over N, H, W).

    Scale ``gamma`` and shift ``beta`` are created with ``weight_decay=0``:
    the paper's recipes (and the reference LARS implementation) exempt BN
    parameters from weight decay, and LARS additionally skips its trust-ratio
    scaling for them (dispatch is by parameter name, see ``repro.core.lars``).
    """

    _fusion_source = True  # forward writes ``out`` via plain ufuncs

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.9):
        super().__init__()
        self.num_features = num_features
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma = Parameter(np.ones(num_features), weight_decay=0.0)
        self.beta = Parameter(np.zeros(num_features), weight_decay=0.0)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: tuple | None = None
        self._centred: np.ndarray | None = None  # x - mean, from _batch_stats

    def output_shape(self, input_shape: Shape) -> Shape:
        if input_shape[0] != self.num_features:
            raise ValueError(
                f"{self.name or 'BatchNorm'}: expected {self.num_features} channels, got {input_shape}"
            )
        return tuple(input_shape)

    def flops_per_example(self, input_shape: Shape) -> int:
        # normalise + scale + shift: ~4 flops per element
        return 4 * int(np.prod(input_shape))

    @staticmethod
    def _reduce_axes(ndim: int) -> tuple[int, ...]:
        return (0,) if ndim == 2 else (0, 2, 3)

    def _expand(self, v: np.ndarray, ndim: int) -> np.ndarray:
        return v if ndim == 2 else v[:, None, None]

    def _normalize(
        self,
        x: np.ndarray,
        mean: np.ndarray,
        inv_std: np.ndarray,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``gamma * (x - mean) * inv_std + beta``; returns ``(y, xhat)``.

        ``xhat`` starts from the ``x - mean`` buffer the batch statistics
        left in ``_centred``, if any.
        """
        nd = x.ndim
        mean_e = self._expand(mean, nd)
        inv_e = self._expand(inv_std, nd)
        g_e = self._expand(self.gamma.data, nd)
        b_e = self._expand(self.beta.data, nd)
        xhat, self._centred = self._centred, None
        if xhat is None:
            xhat = self._buf("xhat", x.shape, np.float64)
            np.subtract(x, mean_e, out=xhat)
        xhat *= inv_e
        y = out if out is not None else self._buf("y", x.shape, np.float64)
        np.multiply(g_e, xhat, out=y)
        y += b_e
        return y, xhat

    def _batch_stats(self, x: np.ndarray, axes) -> tuple[np.ndarray, np.ndarray]:
        """``x.mean(axes)`` and ``x.var(axes)``, bit for bit, taking the mean once.

        The steps are numpy's own (sum, divide by the count; centre, square,
        sum, divide), but the centred ``x - mean`` goes to the ``xhat``
        buffer, where :meth:`_normalize` picks it up instead of centring
        again, and the squares to a scratch buffer of ``x``'s dtype.
        """
        count = x.size // x.shape[1]
        mean = np.add.reduce(x, axis=axes, keepdims=True)
        np.true_divide(mean, count, out=mean)
        self._centred = self._buf("xhat", x.shape, np.float64)
        np.subtract(x, mean, out=self._centred)
        sq = self._buf("sq", x.shape, x.dtype)
        np.square(self._centred, out=sq)
        var = np.add.reduce(sq, axis=axes)
        np.true_divide(var, count, out=var)
        return mean.reshape(var.shape), var

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        axes = self._reduce_axes(x.ndim)
        if self.training:
            mean, var = self._batch_stats(x, axes)
            m = self.momentum
            self.running_mean = m * self.running_mean + (1 - m) * mean
            self.running_var = m * self.running_var + (1 - m) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        y, xhat = self._normalize(x, mean, inv_std, out=out)
        self._cache = (xhat, inv_std) if self.training else None
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (training mode)")
        xhat, inv_std = self._cache
        axes = self._reduce_axes(grad_out.ndim)
        nd = grad_out.ndim
        m = float(np.prod([grad_out.shape[a] for a in axes]))
        # Standard BN backward,
        #   dx = (inv_std / m) * (m*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat)),
        # evaluated into reusable buffers one binary op at a time.
        t = self._buf("t", grad_out.shape, np.float64)
        np.multiply(grad_out, xhat, out=t)
        self.gamma.grad += t.sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        g = self._expand(self.gamma.data, nd)
        dxh = self._buf("dxh", grad_out.shape, np.float64)
        np.multiply(grad_out, g, out=dxh)
        sum_dxhat = self._expand(dxh.sum(axis=axes), nd)
        np.multiply(dxh, xhat, out=t)
        sum_dxhat_xhat = self._expand(t.sum(axis=axes), nd)
        dx = out if out is not None else self._buf("dx", grad_out.shape, np.float64)
        np.multiply(dxh, m, out=dx)
        dx -= sum_dxhat
        np.multiply(xhat, sum_dxhat_xhat, out=t)
        dx -= t
        dx *= self._expand(inv_std, nd) / m
        self._cache = None
        return dx


class SyncBatchNorm(BatchNorm):
    """BatchNorm with statistics synchronised across data-parallel ranks.

    Plain per-shard BatchNorm makes a P-worker run differ from the serial
    large-batch run (each replica normalises with its shard's statistics).
    SyncBatchNorm allreduces the per-channel (count, sum, sum-of-squares)
    in the forward pass and the two reduction terms of the BN backward, so
    the P-worker computation is *exactly* the serial full-batch BN — the
    sequential-consistency exception disappears (verified in
    ``tests/cluster/test_sync_bn.py``).

    Usage: build the model with SyncBatchNorm layers and hand each replica
    its communicator via :meth:`set_comm` (``repro.cluster.train_sync_sgd``
    does this automatically).  With no communicator attached the layer
    behaves exactly like local BatchNorm, so the same model class runs
    serially too.

    Cost note: each layer adds two small allreduces (O(channels) bytes) per
    iteration — this is what production sync-BN implementations pay as
    well; the fabric accounts for it like any other traffic.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.9):
        super().__init__(num_features, eps=eps, momentum=momentum)
        self.comm = None  # set per replica by the cluster launcher

    def set_comm(self, comm) -> None:
        """Attach the rank's communicator (``None`` reverts to local BN)."""
        self.comm = comm

    def _allreduce(self, vec: np.ndarray) -> np.ndarray:
        if self.comm is None or self.comm.size == 1:
            return vec
        return self.comm.allreduce(vec)

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if not self.training:
            return super().forward(x, out=out)
        axes = self._reduce_axes(x.ndim)
        local_count = float(np.prod([x.shape[a] for a in axes])) if x.size else 0.0
        local_sum = x.sum(axis=axes) if x.size else np.zeros(self.num_features)
        local_sq = (x * x).sum(axis=axes) if x.size else np.zeros(self.num_features)
        # one fused allreduce: [count, sum_c..., sumsq_c...]
        packed = np.concatenate(([local_count], local_sum, local_sq))
        total = self._allreduce(packed)
        count = max(total[0], 1.0)
        mean = total[1 : 1 + self.num_features] / count
        var = total[1 + self.num_features :] / count - mean * mean
        var = np.maximum(var, 0.0)
        m = self.momentum
        self.running_mean = m * self.running_mean + (1 - m) * mean
        self.running_var = m * self.running_var + (1 - m) * var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        y, xhat = self._normalize(x, mean, inv_std, out=out)
        self._cache = (xhat, inv_std, count)
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (training mode)")
        if len(self._cache) == 2:  # eval-mode cache from the parent class
            return super().backward(grad_out, out=out)
        xhat, inv_std, count = self._cache
        axes = self._reduce_axes(grad_out.ndim)
        nd = grad_out.ndim
        # gamma/beta gradients stay LOCAL — the cluster's ordinary gradient
        # allreduce sums them across ranks like every other parameter, which
        # is exactly the global sum the serial run computes.  Sums over an
        # empty shard are zeros, so such a rank still joins the allreduce.
        t = self._buf("t", grad_out.shape, np.float64)
        np.multiply(grad_out, xhat, out=t)
        self.gamma.grad += t.sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        g = self._expand(self.gamma.data, nd)
        dxh = self._buf("dxh", grad_out.shape, np.float64)
        np.multiply(grad_out, g, out=dxh)
        np.multiply(dxh, xhat, out=t)
        # ...but dx needs the *global* reduction terms of the BN backward
        local = np.concatenate([dxh.sum(axis=axes), t.sum(axis=axes)])
        total = self._allreduce(local)
        n = self.num_features
        sum_dxhat = self._expand(total[:n], nd)
        sum_dxhat_xhat = self._expand(total[n:], nd)
        dx = out if out is not None else self._buf("dx", grad_out.shape, np.float64)
        np.multiply(dxh, count, out=dx)
        dx -= sum_dxhat
        np.multiply(xhat, sum_dxhat_xhat, out=t)
        dx -= t
        dx *= self._expand(inv_std, nd) / count
        self._cache = None
        return dx


class LocalResponseNorm(Module):
    """AlexNet's cross-channel local response normalisation.

    ``y_c = x_c / d_c**beta`` with
    ``d_c = k + (alpha/n) * sum_{c' in window(c)} x_{c'}^2`` where the window
    spans ``n`` adjacent channels centred on ``c`` (Krizhevsky et al. 2012),
    so ``n`` (``size``) must be odd, as in Caffe's ``local_size``.
    Defaults are Caffe's AlexNet values.

    A training forward caches ``d**-beta`` next to ``x`` and ``d``; the
    backward reuses it instead of raising ``d`` to the power again.
    """

    _fusion_source = True  # forward writes ``out`` via plain ufuncs

    def __init__(self, size: int = 5, alpha: float = 1e-4, beta: float = 0.75, k: float = 1.0):
        super().__init__()
        self.size = int(size)
        if self.size < 1 or self.size % 2 == 0:
            raise ValueError(f"LocalResponseNorm size must be a positive odd integer, got {size}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.k = float(k)
        self._cache: tuple | None = None

    def output_shape(self, input_shape: Shape) -> Shape:
        return tuple(input_shape)

    def flops_per_example(self, input_shape: Shape) -> int:
        # square + windowed sum + pow + divide: ~ (size + 3) per element
        return (self.size + 3) * int(np.prod(input_shape))

    def _window_sum(self, terms: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Sliding-window sum of ``terms`` over the channel axis (axis=1),
        into ``out``: the channel prefix sums ``csum``, led by ``half + 1``
        zeros and trailed by ``half`` copies of the total, make window
        ``c``'s ``csum[min(c+half+1, C)] - csum[max(c-half, 0)]`` (``csum[0]
        = 0``) one subtract of two contiguous slices, with no gather."""
        n, c = terms.shape[0], terms.shape[1]
        half = self.size // 2
        ext = self._buf("ext", (n, c + 2 * half + 1, *terms.shape[2:]), np.float64)
        ext[:, : half + 1] = 0.0
        np.cumsum(terms, axis=1, out=ext[:, half + 1 : half + 1 + c])
        ext[:, half + 1 + c :] = ext[:, half + c : half + 1 + c]
        return np.subtract(ext[:, 2 * half + 1 :], ext[:, :c], out=out)

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        sq = self._buf("sq", x.shape, np.float64)
        np.multiply(x, x, out=sq)
        denom = self._buf("denom", x.shape, np.float64)
        self._window_sum(sq, denom)
        del sq
        denom *= self.alpha / self.size
        denom += self.k
        dpow = self._buf("dpow", x.shape, np.float64)
        np.power(denom, -self.beta, out=dpow)
        y = out if out is not None else self._buf("y", x.shape, np.float64)
        np.multiply(x, dpow, out=y)
        self._cache = (x, denom, dpow) if self.training else None
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, denom, dpow = self._cache
        # y_c = x_c * d_c^{-beta};  d_j depends on x_c iff c in window(j).
        # dx_c = g_c d_c^{-beta}
        #        - 2 beta (alpha/n) x_c * sum_{j: c in win(j)} g_j x_j d_j^{-beta-1}
        # and "c in window(j)" is symmetric to "j in window(c)" for a centred
        # window, so the inner sum is again a sliding-window sum.
        self._cache = None
        t = self._buf("t", grad_out.shape, np.float64)
        np.multiply(grad_out, x, out=t)
        t *= dpow
        t /= denom
        del denom
        tsum = self._buf("tsum", grad_out.shape, np.float64)
        self._window_sum(t, tsum)
        dx = out if out is not None else self._buf("dx", grad_out.shape, np.float64)
        np.multiply(grad_out, dpow, out=dx)
        del dpow
        # fold left: ((scalar * x) * tsum), with scalar * x in t's buffer
        np.multiply(x, 2.0 * self.beta * (self.alpha / self.size), out=t)
        tsum *= t
        dx -= tsum
        return dx
