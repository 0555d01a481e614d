"""Bitwise parity of the optimized conv kernels against the general route.

The conv optimizations (``out=`` im2col, non-overlapping col2im branch,
1×1 im2col-free route, clipped col2im scatter) must change *nothing*
numerically: every test here asserts exact array equality, not allclose.
The reference for ``im2col``/``col2im`` is a deliberately dumb loop
implementation local to this file; ``Conv2D`` is compared against its
eager twin from ``eager_layers.py``, which shares the GEMM primitives but
takes the general im2col route for every kernel.
"""

import numpy as np
import pytest

from repro.nn import Conv2D
from repro.nn.layers.conv import col2im, conv_output_hw, im2col, im2col_view

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
    # clipped scatter requires stride < kernel (otherwise the non-overlapping
    # branch wins) and pad > 0 (otherwise plain col2im never pads)
    (3, 1, 1),
    (3, 2, 1),
    (5, 1, 2),
    (5, 2, 2),
    (5, 3, 1),
]


@pytest.mark.parametrize("kernel,stride,pad", CLIPPED_GEOMETRIES)
def test_col2im_clipped_matches_padded_route(kernel, stride, pad):
    from repro.nn.layers.conv import col2im_clipped

    x_shape = (2, 3, 9, 9)
    oh, ow = conv_output_hw(9, 9, kernel, kernel, stride, pad)
    rng = np.random.default_rng(19)
    cols = rng.normal(size=(2, 3 * kernel * kernel, oh * ow))
    out = np.full(x_shape, np.nan)  # poison: must be fully written
    got = col2im_clipped(cols, x_shape, kernel, kernel, stride, pad, out=out)
    assert got is out
    ref = col2im(cols, x_shape, kernel, kernel, stride, pad)
    np.testing.assert_array_equal(got, ref)


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
