"""Bitwise parity of the optimized conv kernels against the general route.

The conv optimizations (``out=`` im2col, non-overlapping col2im branch,
1×1 im2col-free route, phase-plane clipped col2im scatter) must change *nothing*
numerically: every test here asserts exact array equality, not allclose.
The reference for ``im2col``/``col2im`` is a deliberately dumb loop
implementation local to this file; ``Conv2D`` is compared against its
eager twin from ``eager_layers.py``, which shares the GEMM primitives but
takes the general im2col route for every kernel.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import Conv2D
from repro.nn.layers.conv import col2im, col2im_clipped, conv_output_hw, im2col, im2col_view

from .eager_layers import eager_twin


def reference_im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    cols = np.zeros((n, c * kh * kw, oh * ow), dtype=x.dtype)
    for ni in range(n):
        col = 0
        for i in range(oh):
            for j in range(ow):
                patch = x[ni, :, i * stride : i * stride + kh,
                          j * stride : j * stride + kw]
                cols[ni, :, col] = patch.ravel()
                col += 1
    return cols, (oh, ow)


def reference_col2im(cols, x_shape, kh, kw, stride, pad):
    # Accumulates per kernel offset (ki, kj), matching the production scatter
    # order — within one offset no two output positions alias, so per-offset
    # accumulation has a bitwise-well-defined result; per-position
    # accumulation would sum the same terms in a different order.
    n, c, h, w = x_shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ki in range(kh):
        for kj in range(kw):
            for i in range(oh):
                for j in range(ow):
                    padded[:, :, i * stride + ki, j * stride + kj] += (
                        cols6[:, :, ki, kj, i, j]
                    )
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


GEOMETRIES = [
    # (kh, kw treated square) kernel, stride, pad — overlapping and not
    (3, 1, 1),
    (3, 2, 1),
    (5, 1, 2),
    (1, 1, 0),
    (1, 2, 0),
    (2, 2, 0),   # non-overlapping col2im branch
    (3, 3, 0),   # non-overlapping, stride == kernel
    (3, 4, 1),   # stride > kernel
]


@pytest.mark.parametrize("kernel,stride,pad", GEOMETRIES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_im2col_matches_reference(kernel, stride, pad, dtype):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 9, 9)).astype(dtype)
    cols, hw = im2col(x, kernel, kernel, stride, pad)
    ref, ref_hw = reference_im2col(x, kernel, kernel, stride, pad)
    assert hw == ref_hw
    assert cols.dtype == dtype
    np.testing.assert_array_equal(cols, ref)


@pytest.mark.parametrize("kernel,stride,pad", GEOMETRIES)
def test_im2col_out_buffer_reuse(kernel, stride, pad):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 9, 9))
    expected, _ = im2col(x, kernel, kernel, stride, pad)
    out = np.full_like(expected, np.nan)  # poison: every slot must be written
    cols, _ = im2col(x, kernel, kernel, stride, pad, out=out)
    assert cols is out
    np.testing.assert_array_equal(cols, expected)


def test_im2col_out_shape_validated():
    x = np.zeros((1, 2, 5, 5))
    with pytest.raises(ValueError, match="out"):
        im2col(x, 3, 3, 1, 1, out=np.zeros((1, 2, 3)))


def test_im2col_view_is_readonly():
    x = np.zeros((1, 2, 5, 5))
    patches, _ = im2col_view(x, 3, 3, 1, 0)
    assert not patches.flags.writeable


@pytest.mark.parametrize("kernel,stride,pad", GEOMETRIES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_col2im_matches_reference(kernel, stride, pad, dtype):
    x_shape = (2, 3, 9, 9)
    oh, ow = conv_output_hw(9, 9, kernel, kernel, stride, pad)
    rng = np.random.default_rng(2)
    cols = rng.normal(size=(2, 3 * kernel * kernel, oh * ow)).astype(dtype)
    got = col2im(cols, x_shape, kernel, kernel, stride, pad)
    ref = reference_col2im(cols, x_shape, kernel, kernel, stride, pad)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, ref)


def test_col2im_adjoint_of_im2col():
    # <im2col(x), cols> == <x, col2im(cols)> — the defining adjoint identity.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 8, 8))
    cols_x, (oh, ow) = im2col(x, 3, 3, 2, 1)
    cols = rng.normal(size=cols_x.shape)
    lhs = float(np.sum(cols_x * cols))
    rhs = float(np.sum(x * col2im(cols, x.shape, 3, 3, 2, 1)))
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


CONV_CASES = [
    # in_c, out_c, kernel, stride, pad, groups
    (3, 8, 3, 1, 1, 1),
    (4, 8, 3, 2, 1, 2),
    (6, 12, 5, 1, 2, 3),
    (8, 8, 1, 1, 0, 1),   # pointwise fast route
    (8, 16, 1, 2, 0, 2),  # strided pointwise, grouped
    (4, 4, 2, 2, 0, 1),   # non-overlapping col2im on backward
]


def _pair(in_c, out_c, kernel, stride, pad, groups):
    """The layer and its general-route eager twin, identical weights."""
    fast = Conv2D(in_c, out_c, kernel, stride=stride, padding=pad,
                  groups=groups, rng=np.random.default_rng(7))
    return fast, eager_twin(fast)


@pytest.mark.parametrize("in_c,out_c,kernel,stride,pad,groups", CONV_CASES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv2d_fast_paths_bitwise_identical(
    in_c, out_c, kernel, stride, pad, groups, dtype
):
    fast, slow = _pair(in_c, out_c, kernel, stride, pad, groups)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, in_c, 8, 8)).astype(dtype)

    out_fast = fast.forward(x)
    out_slow = slow.forward(x)
    np.testing.assert_array_equal(out_fast, out_slow)

    grad = rng.normal(size=out_fast.shape).astype(dtype)
    dx_fast = fast.backward(grad)
    dx_slow = slow.backward(grad)
    np.testing.assert_array_equal(dx_fast, dx_slow)
    np.testing.assert_array_equal(fast.weight.grad, slow.weight.grad)
    np.testing.assert_array_equal(fast.bias.grad, slow.bias.grad)


def test_conv2d_fast_paths_stable_across_iterations():
    # Buffer reuse (the padded-input border) must not leak state between
    # successive batches.
    fast, slow = _pair(3, 8, 3, 1, 1, 1)
    rng = np.random.default_rng(13)
    for _ in range(3):
        x = rng.normal(size=(2, 3, 8, 8))
        np.testing.assert_array_equal(fast.forward(x), slow.forward(x))
        grad = rng.normal(size=(2, 8, 8, 8))
        np.testing.assert_array_equal(fast.backward(grad), slow.backward(grad))
        np.testing.assert_array_equal(fast.weight.grad, slow.weight.grad)


def test_conv2d_batch_size_change_reallocates_workspace():
    # Different batch sizes need differently shaped buffers; both must work.
    fast, slow = _pair(3, 8, 3, 1, 1, 1)
    rng = np.random.default_rng(17)
    for n in (4, 2, 4):
        x = rng.normal(size=(n, 3, 8, 8))
        np.testing.assert_array_equal(fast.forward(x), slow.forward(x))


CLIPPED_GEOMETRIES = [
    # kernel, stride, pad, image size.  The layers route stride < kernel
    # here; an image of stride * output size takes the phase-plane path,
    # any other the strided slice-add loop.
    (3, 1, 1, 9),
    (3, 2, 1, 9),
    (5, 1, 2, 9),
    (5, 2, 2, 9),
    (5, 3, 1, 9),
    (3, 2, 1, 8),   # even images: stride-2 phase planes
    (4, 2, 1, 8),
    (5, 2, 2, 10),
    (6, 3, 2, 9),   # stride-3 phase planes
]


@pytest.mark.parametrize(
    "kernel,stride,pad,size",
    CLIPPED_GEOMETRIES,
    ids=[f"{k}-{s}-{p}" + ("" if n == 9 else f"-{n}x{n}") for k, s, p, n in CLIPPED_GEOMETRIES],
)
def test_col2im_clipped_matches_padded_route(kernel, stride, pad, size):
    x_shape = (2, 3, size, size)
    oh, ow = conv_output_hw(size, size, kernel, kernel, stride, pad)
    rng = np.random.default_rng(19)
    cols = rng.normal(size=(2, 3 * kernel * kernel, oh * ow))
    out = np.full(x_shape, np.nan)  # poison: must be fully written
    got = col2im_clipped(cols, x_shape, kernel, kernel, stride, pad, out=out)
    assert got is out
    ref = col2im(cols, x_shape, kernel, kernel, stride, pad)
    np.testing.assert_array_equal(got, ref)


@st.composite
def _scatter_cases(draw):
    """``(n, c, h, w, k, stride, pad)``: windows that tile the image (the
    phase-plane path) or any image size, padding up to ``k - 1`` (mostly
    the loop, where a whole offset can fall in the padding)."""
    s = draw(st.integers(1, 3))
    if draw(st.booleans()):
        p = draw(st.integers(0, 2))
        k = draw(st.integers(2 * p + 1, 2 * p + s))  # so that h == s * oh
        oh, ow = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        h, w = s * oh, s * ow
        assert conv_output_hw(h, w, k, k, s, p) == (oh, ow)
    else:
        k = draw(st.integers(1, 5))
        p = draw(st.integers(0, k - 1))
        h, w = draw(st.integers(max(k - 2 * p, 1), 9)), draw(st.integers(max(k - 2 * p, 1), 9))
    return draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w, k, s, p


@settings(max_examples=300, deadline=None)
@given(
    case=_scatter_cases(),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
)
# a 2x3 image in which whole kernel rows see only padding
@example(case=(1, 1, 2, 3, 5, 2, 2), dtype=np.float64, seed=0)
def test_col2im_clipped_property_bitwise(case, dtype, seed):
    # Any geometry, signed zeros among the terms, NaN in every buffer the
    # scatter is handed: the bytes must equal the per-offset reference.
    n, c, h, w, k, s, p = case
    oh, ow = conv_output_hw(h, w, k, k, s, p)
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(n, c * k * k, oh * ow)).astype(dtype)
    cols[rng.random(cols.shape) < 0.25] = -0.0
    out = np.full((n, c, h, w), np.nan, dtype=dtype)

    def poisoned(tag, shape, dt):
        return np.full(shape, np.nan, dtype=dt)

    got = col2im_clipped(cols, (n, c, h, w), k, k, s, p, out=out, buf=poisoned)
    assert got is out
    ref = reference_col2im(cols, (n, c, h, w), k, k, s, p)
    assert got.dtype == ref.dtype
    assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


@pytest.mark.parametrize("in_c,out_c,kernel,stride,pad,groups", CONV_CASES)
def test_conv2d_backward_out_buffer(in_c, out_c, kernel, stride, pad, groups):
    # backward(grad, out=buf) must fill buf with exactly the eager dx and
    # leave the parameter gradients untouched by the buffer routing.
    a, b = _pair(in_c, out_c, kernel, stride, pad, groups)
    rng = np.random.default_rng(23)
    x = rng.normal(size=(2, in_c, 8, 8))
    grad = rng.normal(size=(2, *a.output_shape((in_c, 8, 8))))

    a.forward(x)
    b.forward(x)
    dx_ref = b.backward(grad)
    buf = np.full_like(dx_ref, np.nan)
    dx = a.backward(grad, out=buf)
    assert dx is buf
    np.testing.assert_array_equal(dx, dx_ref)
    np.testing.assert_array_equal(a.weight.grad, b.weight.grad)
    np.testing.assert_array_equal(a.bias.grad, b.bias.grad)


def test_conv2d_backward_workspace_reuse_is_stable():
    # Successive backwards into the same out= buffer must not drift or pick
    # up stale state from the previous iteration.
    a, b = _pair(3, 8, 3, 1, 1, 1)
    rng = np.random.default_rng(29)
    buf = np.empty((2, 3, 8, 8))
    for _ in range(3):
        x = rng.normal(size=(2, 3, 8, 8))
        a.forward(x)
        b.forward(x)
        grad = rng.normal(size=(2, 8, 8, 8))
        dx_ref = b.backward(grad)
        np.testing.assert_array_equal(a.backward(grad, out=buf), dx_ref)
        np.testing.assert_array_equal(a.weight.grad, b.weight.grad)


def test_conv2d_holds_padded_input_only_after_a_training_forward():
    # Unbound, a training forward keeps its padded input until the next
    # forward (a steady heap top between steps); an inference forward keeps
    # nothing, so its large evaluation buffers all go back to the allocator.
    conv = Conv2D(3, 4, 3, stride=1, padding=1, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(2, 3, 6, 6))
    conv.forward(x)
    assert conv._held is not None and conv._held.shape == (2, 3, 8, 8)
    conv.eval()
    conv.forward(np.concatenate([x, x]))
    assert conv._held is None
