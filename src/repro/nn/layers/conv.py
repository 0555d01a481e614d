"""2-D convolution via im2col / col2im.

Following the optimisation guidance for numerical Python, the convolution is
expressed as one large GEMM per layer (``im2col`` + matrix multiply) instead
of nested Python loops — the same lowering Caffe uses, which also makes the
flop accounting below exactly the paper's "flops per image" convention.

Data layout is channels-first (``N, C, H, W``); weights are
``(C_out, C_in/groups, KH, KW)`` as in Caffe.

Hot-path structure (measured by ``repro.bench``, guarded by the parity tests
in ``tests/nn/test_conv_parity.py``):

* :func:`im2col_view` exposes the zero-copy strided patch view; the public
  :func:`im2col` materialises it into a caller-supplied ``out=`` buffer
  (a slab view when a memory context is bound).
* :func:`col2im` takes a single vectorised scatter when the windows cannot
  overlap (``stride >= kernel``) and falls back to the per-offset
  slice-add loop otherwise.
* :class:`Conv2D` skips ``im2col``/``col2im`` entirely for 1×1 kernels
  (bottleneck and shortcut convolutions are plain strided GEMMs), drives
  the GEMMs through ``np.matmul`` for small problems and through
  path-cached einsum (:func:`repro.nn.tensor.cached_einsum`) for large
  ones — both choices are functions of the operand shapes alone, so the
  numerics of a given layer geometry never depend on runtime state.
"""

from __future__ import annotations

import numpy as np

from ..initializers import Initializer, he_normal, zeros
from ..tensor import Parameter, cached_einsum
from .base import Module, Shape

__all__ = [
    "Conv2D",
    "im2col",
    "im2col_view",
    "col2im",
    "col2im_clipped",
    "conv_output_hw",
    "fill_border",
]

# Backward-GEMM strategy crossover (total MACs): below this, batched
# ``np.matmul`` with folded batch axes wins; above it, einsum's tensordot
# contraction order is faster.  Shape-only, so replays are deterministic.
_BATCHED_MATMUL_MAX_MACS = 1 << 25


def conv_output_hw(
    h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> tuple[int, int]:
    """Output spatial size of a convolution / pooling window."""
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"window {kh}x{kw} stride {stride} pad {pad} does not fit input {h}x{w}"
        )
    return oh, ow


def fill_border(xpad: np.ndarray, pad: int, value: float) -> np.ndarray:
    """Write ``value`` into the ``pad``-wide spatial border of ``xpad``.

    Padded-input buffers get their border written on every forward — four
    strips instead of the whole buffer — and the interior from the input.
    Nothing survives between passes, which a shared slab requires.
    """
    xpad[:, :, :pad] = value
    xpad[:, :, -pad:] = value
    xpad[:, :, pad:-pad, :pad] = value
    xpad[:, :, pad:-pad, -pad:] = value
    return xpad


def im2col_view(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Zero-copy patch view ``(N, C, KH, KW, OH, OW)`` of ``x``.

    The view is read-only (it aliases ``x`` — or its padded copy — with
    overlapping strides, so writes would corrupt neighbouring patches).
    Consumers that can digest strided operands (einsum, slice reductions)
    avoid the big column copy entirely; everyone else goes through
    :func:`im2col`.
    """
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    sn, sc, sh, sw = x.strides
    shape = (n, c, kh, kw, oh, ow)
    strides = (sn, sc, sh, sw, sh * stride, sw * stride)
    patches = np.lib.stride_tricks.as_strided(
        x, shape=shape, strides=strides, writeable=False
    )
    return patches, (oh, ow)


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` into ``(N, C*KH*KW, OH*OW)`` patch columns.

    Returns the column tensor and the output spatial size.  One vectorised
    copy of the strided patch view — no Python-level loops over pixels.
    ``out`` supplies a preallocated destination of exactly the column shape
    (and ``x``'s dtype), so per-iteration callers can reuse one workspace
    buffer instead of paying allocation and page-fault cost every step.
    """
    n, c, _, _ = x.shape
    patches, (oh, ow) = im2col_view(x, kh, kw, stride, pad)
    cols_shape = (n, c * kh * kw, oh * ow)
    if out is None:
        out = np.empty(cols_shape, dtype=x.dtype)
    elif out.shape != cols_shape or out.dtype != x.dtype:
        raise ValueError(
            f"out has shape {out.shape}/{out.dtype}, expected {cols_shape}/{x.dtype}"
        )
    out.reshape(n, c, kh, kw, oh, ow)[...] = patches
    return out, (oh, ow)


def col2im_clipped(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    out: np.ndarray,
) -> np.ndarray:
    """Scatter-add columns straight into an *unpadded* image buffer.

    Equivalent to ``col2im(...)`` followed by dropping the padding border,
    but never materialises the padded canvas: each kernel offset's slice is
    clipped to the image interior, so the border terms the padded version
    would discard are simply never written.  Per pixel the surviving
    contributions arrive in the same ``(i, j)`` offset order as the canvas
    version, so the accumulated values are bitwise identical.
    """
    n, c, h, w = x_shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    out[...] = 0.0
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        o_lo = -(-max(pad - i, 0) // stride)
        o_hi = min((h - 1 - i + pad) // stride, oh - 1)
        r0 = i + stride * o_lo - pad
        rows = slice(r0, r0 + stride * (o_hi - o_lo) + 1, stride)
        for j in range(kw):
            q_lo = -(-max(pad - j, 0) // stride)
            q_hi = min((w - 1 - j + pad) // stride, ow - 1)
            c0 = j + stride * q_lo - pad
            out[:, :, rows, c0 : c0 + stride * (q_hi - q_lo) + 1 : stride] += cols6[
                :, :, i, j, o_lo : o_hi + 1, q_lo : q_hi + 1
            ]
    return out


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into an image.

    ``cols`` has shape ``(N, C*KH*KW, OH*OW)``.  Overlapping patches sum,
    which is exactly the backward pass of the unfold.  When the windows
    cannot overlap (``stride >= kernel``, which includes every 1×1
    convolution) each image pixel receives at most one column element, so
    the scatter-add collapses to a single vectorised assignment into a
    strided view — bitwise identical to the general loop, since adding one
    term to zero is exact.

    ``out`` supplies a reusable destination of the *padded* shape
    ``(N, C, H+2p, W+2p)``; it is zeroed here, so its prior contents never
    leak into the scatter-add.  When ``pad > 0`` the returned array is the
    unpadded interior view of ``out``.
    """
    n, c, h, w = x_shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    if out is None:
        out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    else:
        if out.shape != (n, c, hp, wp) or out.dtype != cols.dtype:
            raise ValueError(
                f"out has shape {out.shape}/{out.dtype}, "
                f"expected {(n, c, hp, wp)}/{cols.dtype}"
            )
        out[...] = 0.0
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    if stride >= kh and stride >= kw:
        # Non-overlapping fast branch: one strided scatter, no loop.
        sn, sc, sh, sw = out.strides
        target = np.lib.stride_tricks.as_strided(
            out,
            shape=(n, c, kh, kw, oh, ow),
            strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        )
        target[...] = cols6
    else:
        # Scatter-add per kernel offset: KH*KW slice-adds, fully vectorised.
        for i in range(kh):
            hi = i + stride * oh
            for j in range(kw):
                wj = j + stride * ow
                out[:, :, i:hi:stride, j:wj:stride] += cols6[:, :, i, j, :, :]
    if pad > 0:
        out = out[:, :, pad:-pad, pad:-pad]
    return out


class Conv2D(Module):
    """Standard 2-D convolution with optional grouping.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts; ``out_channels`` must be divisible by ``groups`` and
        ``in_channels`` as well (AlexNet's original two-tower layers use
        ``groups=2``).
    kernel_size, stride, padding:
        Square window geometry.
    bias:
        ResNet convolutions that feed BatchNorm omit the bias.

    ``tests/nn/eager_layers.py`` keeps the general im2col route (every
    kernel through ``im2col``/``col2im``, no 1×1 shortcut) as the oracle
    this layer is checked against bitwise.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        weight_init: Initializer = he_normal,
        bias_init: Initializer = zeros,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError("channels must be divisible by groups")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        wshape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(weight_init(wshape, rng))
        self.bias = Parameter(bias_init((out_channels,), rng), weight_decay=0.0) if bias else None
        self._cache: tuple | None = None
        self._fused: tuple | None = None  # (interior view, padded buffer)
        self._held: np.ndarray | None = None  # unbound: the last training padded input

    def output_shape(self, input_shape: Shape) -> Shape:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(f"{self.name or 'Conv2D'}: expected {self.in_channels} channels, got {c}")
        oh, ow = conv_output_hw(h, w, self.kernel_size, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, oh, ow)

    def flops_per_example(self, input_shape: Shape) -> int:
        _, oh, ow = self.output_shape(input_shape)
        k2cin = self.kernel_size * self.kernel_size * (self.in_channels // self.groups)
        macs = oh * ow * self.out_channels * k2cin
        flops = 2 * macs
        if self.bias is not None:
            flops += oh * ow * self.out_channels
        return flops

    def _is_pointwise(self) -> bool:
        """1×1 unpadded kernels need no patch extraction at all."""
        return self.kernel_size == 1 and self.padding == 0

    def input_slot(self, x_shape, dtype):
        """Interior view of the padded-input buffer.

        A fusion-capable producer (``Module._fusion_source``) writes our
        input directly into this view; ``forward`` then recognises the
        handoff (``x`` is this view) and skips the interior copy.  The zero
        border is written here so the producer's write completes the padded
        image.
        """
        if (
            self._memory is None
            or len(x_shape) != 4
            or self.padding == 0
            or self._is_pointwise()
            or np.dtype(dtype) != np.float64
            or x_shape[1] != self.in_channels
        ):
            return None
        n, c, h, w = x_shape
        p = self.padding
        xpad = fill_border(self._buf("xpad", (n, c, h + 2 * p, w + 2 * p), np.float64), p, 0.0)
        self._fused = (xpad[:, :, p:-p, p:-p], xpad)
        return self._fused[0]

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        n, c, h, w = x.shape
        k, s, p, g = self.kernel_size, self.stride, self.padding, self.groups
        cg = c // g
        og = self.out_channels // g
        oh, ow = conv_output_hw(h, w, k, k, s, p)
        if self._is_pointwise():
            # The "columns" of a 1×1 kernel are the input pixels themselves
            # (stride just subsamples them) — no im2col copy.
            if s == 1:
                cols_g = x.reshape(n, g, cg, oh * ow)
            else:
                xs = self._buf("xs", (n, c, oh, ow), x.dtype)
                xs[...] = x[:, :, ::s, ::s]
                cols_g = xs.reshape(n, g, cg, oh * ow)
        else:
            cols = self._buf("cols", (n, c * k * k, oh * ow), x.dtype)
            if p > 0:
                # Padded input buffer: the zero border plus a copy of the
                # interior — or, when a fused producer already wrote the
                # interior through ``input_slot``, nothing at all.
                fused, self._fused = self._fused, None
                if fused is not None and x is fused[0]:
                    xpad = fused[1]
                else:
                    xpad = fill_border(
                        self._buf("xpad", (n, c, h + 2 * p, w + 2 * p), x.dtype), p, 0.0)
                    xpad[:, :, p:-p, p:-p] = x
                # Unbound, a training forward holds its padded buffer until
                # the next forward.  Freed here, it lets glibc trim the heap
                # top every step and fault it back in (a 3×3 conv's
                # forward+backward measured ~15% slower).  An inference
                # forward's buffer is freed at once: held, it sits among the
                # pass's freed buffers and keeps glibc from returning them,
                # so peak RSS came to depend on which thread's malloc arena
                # each evaluation ran in.
                self._held = xpad if self._memory is None and self.training else None
                im2col(xpad, k, k, s, 0, out=cols)
            else:
                im2col(x, k, k, s, 0, out=cols)
            cols_g = cols.reshape(n, g, cg * k * k, oh * ow)
        w2 = self.weight.data.reshape(g, og, cg * k * k)
        # (1, g, og, ckk) @ (n, g, ckk, L) -> (n, g, og, L): BLAS batched GEMM,
        # in the float64 of the weights whatever the input dtype.
        y = out if out is not None else self._buf("y", (n, self.out_channels, oh, ow), np.float64)
        np.matmul(w2[None], cols_g, out=y.reshape(n, g, og, oh * ow))
        if self.bias is not None:
            y += self.bias.data[None, :, None, None]
        self._cache = (x.shape, cols_g, (oh, ow)) if self.training else None
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, cols_g, (oh, ow) = self._cache
        n = x_shape[0]
        k, s, p, g = self.kernel_size, self.stride, self.padding, self.groups
        cg = self.in_channels // g
        og = self.out_channels // g
        ckk = cols_g.shape[2]
        span = oh * ow
        go = grad_out.reshape(n, g, og, span)
        w2 = self.weight.data.reshape(g, og, ckk)
        dw = self._buf("dw", (g, og, ckk), np.float64)
        dcols = self._buf("dcols", (n, g, ckk, span), np.float64)
        if n * g * og * ckk * span <= _BATCHED_MATMUL_MAX_MACS:
            # Fold the batch into the GEMM columns: one (og × nL)·(nL × ckk)
            # product per group beats einsum's dispatch overhead here.  The
            # staging copies keep their operands' dtypes, so the GEMM runs
            # in the precision of ``grad_out``/``cols``.
            t1 = self._buf("t1", (g, og, n, span), grad_out.dtype)
            t1[...] = go.transpose(1, 2, 0, 3)
            t2 = self._buf("t2", (g, n, span, ckk), cols_g.dtype)
            t2[...] = cols_g.transpose(1, 0, 3, 2)
            np.matmul(t1.reshape(g, og, n * span), t2.reshape(g, n * span, ckk), out=dw)
            del t1, t2
            np.matmul(w2.transpose(0, 2, 1)[None], go, out=dcols)
        else:
            # Large problems: einsum's contraction order wins; the path is
            # memoised per shape so only the first call pays for planning.
            cached_einsum("ngol,ngcl->goc", go, cols_g, out=dw)
            cached_einsum("goc,ngol->ngcl", w2, go, out=dcols)
        self._cache = None
        del cols_g  # the columns are dead: their bytes serve dx below
        self.weight.grad += dw.reshape(self.weight.data.shape)
        del dw
        if self.bias is not None:
            db = self._buf("db", (self.out_channels,), grad_out.dtype)
            np.sum(grad_out, axis=(0, 2, 3), out=db)
            self.bias.grad += db
            del db
        if self._is_pointwise():
            # Adjoint of the strided subsampling: no col2im needed.
            if s == 1:
                dxv = dcols.reshape(x_shape)
                if out is not None:
                    np.copyto(out, dxv)
                    return out
                return dxv
            dx = out if out is not None else self._buf("dx", x_shape, np.float64)
            dx[...] = 0.0
            dx[:, :, ::s, ::s] = dcols.reshape(n, self.in_channels, oh, ow)
            return dx
        dcols = dcols.reshape(n, self.in_channels * k * k, span)
        if p > 0 and s < k:
            # Overlapping windows: scatter-add the clipped slices straight
            # into the contiguous dx buffer — no padded canvas, no interior
            # copy afterwards (values bitwise unchanged).
            dx = out if out is not None else self._buf("dx", x_shape, np.float64)
            return col2im_clipped(dcols, x_shape, k, k, s, p, out=dx)
        pad_buf = self._buf(
            "dx_pad", (n, self.in_channels, x_shape[2] + 2 * p, x_shape[3] + 2 * p),
            np.float64,
        )
        dxv = col2im(dcols, x_shape, k, k, s, p, out=pad_buf)
        if p > 0:
            # Launder the padded interior view into a contiguous buffer so
            # downstream reshapes stay allocation-free (values unchanged).
            dx = out if out is not None else self._buf("dx", x_shape, np.float64)
            np.copyto(dx, dxv)
            return dx
        if out is not None:
            np.copyto(out, dxv)
            return out
        return dxv
