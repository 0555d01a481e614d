"""Property test: LRN and MaxPool2D equal their eager formulas bit for bit.

Fuzzes both window layers over batch, channel count (including fewer
channels than the LRN window), window geometry and inputs built to break
shortcuts: signed-zero ties, repeated maxima and NaNs.  Each example runs
two training steps (the second replays a bound layer's slab) and one
evaluation forward, unbound and bound to a ``MemoryContext``, and compares
the output, the input gradient and MaxPool's routing index with the eager
twin from ``eager_layers.py`` (``np.argmax`` / ``take_along_axis``).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn import LocalResponseNorm, MaxPool2D
from repro.nn.memory import MemoryContext

from .eager_layers import eager_twin
from .test_layer_formulas import _assert_bitwise

# (kernel, stride, padding): non-overlapping, overlapping, padded
POOLS = [(1, 1, 0), (2, 2, 0), (3, 3, 0), (2, 1, 0), (3, 2, 0), (3, 1, 0),
         (2, 2, 1), (3, 2, 1), (3, 1, 1)]

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _inputs(rng, shape, kind):
    """Normal draws, or values from a tiny set so windows tie (±0 among
    them), optionally with NaNs sprinkled in."""
    if kind == "normal":
        return rng.standard_normal(shape)
    x = rng.choice([-1.0, -0.0, 0.0, 0.5], size=shape)
    if kind == "nan":
        x[rng.random(shape) < 0.1] = np.nan
    return x


def _check(layer, shape, kind, seed, bound, routing=None):
    twin = eager_twin(layer)
    if bound:
        layer.bind_memory(MemoryContext())
    rng = np.random.default_rng(seed)
    for step in range(2):
        x = _inputs(rng, shape, kind)
        y = layer.forward(x)
        _assert_bitwise(y, twin.forward(x), f"step {step}: forward")
        if routing is not None:
            routing(layer, twin)
        g = rng.standard_normal(y.shape)
        _assert_bitwise(layer.backward(g), twin.backward(g), f"step {step}: dx")
    layer.eval()
    twin.eval()
    x = _inputs(rng, shape, kind)
    _assert_bitwise(layer.forward(x), twin.forward(x), "eval forward")


def _maxpool_routing(layer, twin):
    """The layer caches flat indices into its (N*C, k*k, OH*OW) column
    buffer; the window offset they encode is the eager ``np.argmax``."""
    _, idx, (oh, ow) = layer._cache
    _, argmax, _ = twin._cache
    kk, span = layer.kernel_size ** 2, oh * ow
    np.testing.assert_array_equal((idx % (kk * span)) // span, argmax.reshape(idx.shape))


kinds = st.sampled_from(["normal", "ties", "nan"])


@given(n=st.integers(1, 4), c=st.integers(1, 12), hw=st.integers(1, 5),
       size=st.sampled_from([1, 3, 5, 7]), kind=kinds, seed=st.integers(0, 2**16),
       bound=st.booleans())
@_SETTINGS
def test_lrn_matches_eager_formula(n, c, hw, size, kind, seed, bound):
    layer = LocalResponseNorm(size=size, alpha=0.5, beta=0.75, k=2.0)
    _check(layer, (n, c, hw, hw + 1), kind, seed, bound)


@given(n=st.integers(1, 4), c=st.integers(1, 6), pool=st.sampled_from(POOLS),
       extra=st.integers(0, 4), kind=kinds, seed=st.integers(0, 2**16),
       bound=st.booleans())
@_SETTINGS
def test_maxpool_matches_eager_formula(n, c, pool, extra, kind, seed, bound):
    k, s, p = pool
    layer = MaxPool2D(k, stride=s, padding=p)
    _check(layer, (n, c, k + extra, k + extra + 1), kind, seed, bound, _maxpool_routing)
