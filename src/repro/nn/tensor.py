"""Trainable parameters and gradient bookkeeping.

The framework is deliberately explicit: every layer owns :class:`Parameter`
objects, ``forward`` caches what ``backward`` needs, and ``backward``
accumulates gradients into ``Parameter.grad``.  There is no autograd tape —
backprop is hand-derived per layer and verified by finite-difference checks
in ``repro.nn.gradcheck``.  Each layer has a single forward/backward code
path; only where its activation and scratch buffers come from varies
(fresh arrays, or arena slots once a ``repro.nn.MemoryContext`` is bound).

Gradients accumulate (``+=``) rather than overwrite so a parameter that is
shared between layers, or a batch that is processed in several micro-batch
chunks, sums its contributions exactly the way a large-batch step requires.
Call :meth:`Parameter.zero_grad` (or ``Module.zero_grad``) between steps.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter", "cached_einsum"]

# einsum recomputes its contraction path on every call; for the small
# per-layer contractions of the proxy models that bookkeeping rivals the
# arithmetic.  Paths depend only on (equation, operand shapes), so they are
# memoised here and shared by every layer.
_EINSUM_PATHS: dict[tuple, list] = {}


def cached_einsum(equation: str, *operands: np.ndarray, out: np.ndarray | None = None):
    """``np.einsum`` with the contraction path memoised per (equation, shapes).

    Numerically identical to ``np.einsum(..., optimize=True)`` — the path
    only chooses the order of pairwise contractions, and for a fixed key the
    same path is replayed every call.
    """
    key = (equation,) + tuple(op.shape for op in operands)
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(equation, *operands, optimize=True)[0]
        _EINSUM_PATHS[key] = path
    return np.einsum(equation, *operands, optimize=path, out=out)


class Parameter:
    """A named trainable array with an accumulated gradient.

    Parameters
    ----------
    data:
        Initial value.  Stored as ``float64`` by default; the simulated
        cluster relies on deterministic, well-conditioned arithmetic and the
        paper's single-precision claims are modelled in ``repro.perfmodel``
        rather than by degrading numerics here.
    name:
        Dotted path assigned by the owning module tree (e.g.
        ``"features.0.weight"``).  Used by optimisers for per-layer rules
        (LARS excludes biases/BN params via the name) and by the cluster
        layer for deterministic parameter ordering.
    weight_decay:
        Per-parameter multiplier applied to the global weight-decay
        coefficient.  The paper's recipes (and the reference LARS
        implementation) do not decay biases or BatchNorm scale/shift, which
        layers express by constructing those parameters with
        ``weight_decay=0.0``.
    """

    __slots__ = ("data", "grad", "name", "weight_decay")

    def __init__(self, data: np.ndarray, name: str = "", weight_decay: float = 1.0):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.weight_decay = float(weight_decay)

    # -- gradient management -------------------------------------------------
    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero (in place)."""
        self.grad[...] = 0.0

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the stored gradient (micro-batch accumulation)."""
        self.grad += grad

    # -- introspection -------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of trainable scalars."""
        return self.data.size

    def copy(self) -> "Parameter":
        """Deep copy (used by workers to replicate the model)."""
        p = Parameter(self.data.copy(), name=self.name, weight_decay=self.weight_decay)
        p.grad = self.grad.copy()
        return p

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Parameter(name={self.name!r}, shape={self.data.shape}, wd={self.weight_decay})"
