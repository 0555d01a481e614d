"""Loss functions.

Losses follow the same forward/backward convention as layers but take the
targets at forward time and return a scalar mean loss; ``backward`` returns
the gradient w.r.t. the logits for the *mean* loss, so gradients of a batch
of size B are automatically ``1/B``-scaled — the convention the linear
scaling rule (Goyal et al. 2017) and LARS both assume.
"""

from __future__ import annotations

import numpy as np

from .layers.base import Module

__all__ = ["SoftmaxCrossEntropy", "softmax", "log_softmax"]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, numerically stabilised by max subtraction."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax."""
    return np.exp(log_softmax(logits))


class SoftmaxCrossEntropy:
    """Mean softmax cross-entropy over a batch with integer class targets.

    Supports optional label smoothing (an extension knob; the paper itself
    trains without it, smoothing defaults to 0).
    """

    #: bound memory context (mirrors ``Module._memory``; see repro.nn.memory)
    _memory = None

    # The layers' buffer helpers: arena slots/scratch when a context is
    # bound, fresh arrays otherwise.
    _buf = Module._buf
    _scratch = Module._scratch
    _drop = Module._drop

    def __init__(self, label_smoothing: float = 0.0):
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        self.label_smoothing = float(label_smoothing)
        self._cache: tuple | None = None

    def bind_memory(self, memory) -> "SoftmaxCrossEntropy":
        """Bind a memory context: logits-sized buffers come from its arena."""
        self._memory = memory
        return self

    def unbind_memory(self) -> "SoftmaxCrossEntropy":
        vars(self).pop("_memory", None)
        return self

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        targets = np.asarray(targets, dtype=np.int64)
        n, k = logits.shape
        if targets.shape != (n,):
            raise ValueError(f"targets shape {targets.shape} != ({n},)")
        if n == 0:
            # empty shard on a rank that must still participate in the
            # collective forward/backward (SyncBatchNorm): zero loss,
            # zero gradient
            self._cache = (np.zeros((0, k)), targets)
            return 0.0
        if targets.min() < 0 or targets.max() >= k:
            raise ValueError("target class out of range")
        # log_softmax's op sequence, into the layer's buffers
        logp = self._buf("logp", (n, k), np.float64)
        np.subtract(logits, logits.max(axis=1, keepdims=True), out=logp)
        t = self._scratch((n, k), np.float64)
        np.exp(logp, out=t)
        s = t.sum(axis=1, keepdims=True)
        np.log(s, out=s)
        logp -= s
        self._drop(t)
        eps = self.label_smoothing
        nll = -logp[np.arange(n), targets]
        if eps > 0.0:
            uniform = -logp.mean(axis=1)
            loss = (1.0 - eps) * nll + eps * uniform
        else:
            loss = nll
        self._cache = (logp, targets)
        return float(loss.mean())

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the logits."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        logp, targets = self._cache
        n, k = logp.shape
        if n == 0:
            self._cache = None
            return np.zeros((0, k))
        eps = self.label_smoothing
        probs = self._scratch((n, k), np.float64)
        np.exp(logp, out=probs)
        target_dist = self._scratch((n, k), np.float64)
        target_dist[...] = eps / k
        target_dist[np.arange(n), targets] += 1.0 - eps
        grad = self._buf("dlogits", (n, k), np.float64)
        np.subtract(probs, target_dist, out=grad)
        grad /= n
        self._drop(target_dist)
        self._drop(probs)
        self._cache = None
        return grad

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(logits, targets)
