"""Benchmarks for the training hot path: im2col/col2im, Conv2D, proxy steps.

These cover the conv kernels, so the baseline files catch any future
drift: the im2col workspace copy, the col2im non-overlapping scatter, the
phase-plane clipped scatter every overlapping-window backward takes (at
stride 1 and at an even stride-2 downsample), the 1×1 im2col-free route,
the AlexNet-LRN proxy's window layers (LRN, max pooling), and the
end-to-end proxy train steps whose wall-clock the paper's E·n/B
iteration count multiplies.
"""

from __future__ import annotations

import numpy as np

from ..harness import register

# Pinned problem sizes: micro-model scale (what CI can time reliably).
_BATCH = 32
_IMAGE = 16


def _input(n=_BATCH, c=3, s=_IMAGE, seed=0):
    return np.random.default_rng(seed).normal(size=(n, c, s, s))


@register(
    "im2col.k3s1p1",
    area="nn",
    params={"batch": _BATCH, "channels": 8, "image": _IMAGE, "kernel": 3, "stride": 1, "pad": 1},
)
def _im2col_overlapping():
    from repro.nn.layers.conv import im2col

    x = _input(c=8)
    cols, _ = im2col(x, 3, 3, 1, 1)
    return lambda: im2col(x, 3, 3, 1, 1, out=cols)


@register(
    "col2im.k3s1p1",
    area="nn",
    params={
        "batch": _BATCH,
        "channels": 8,
        "image": _IMAGE,
        "kernel": 3,
        "stride": 1,
        "pad": 1,
        "branch": "overlapping",
    },
)
def _col2im_overlapping():
    from repro.nn.layers.conv import col2im, im2col

    x = _input(c=8)
    cols, _ = im2col(x, 3, 3, 1, 1)
    return lambda: col2im(cols, x.shape, 3, 3, 1, 1)


def _clipped_scatter(stride):
    from repro.nn.layers.conv import col2im_clipped, im2col

    x = _input(c=8)
    cols, _ = im2col(x, 3, 3, stride, 1)
    out = np.empty_like(x)
    return lambda: col2im_clipped(cols, x.shape, 3, 3, stride, 1, out=out)


@register(
    "col2im_clipped.k3s1p1",
    area="nn",
    params={"batch": _BATCH, "channels": 8, "image": _IMAGE, "kernel": 3, "stride": 1, "pad": 1},
)
def _col2im_clipped_same():
    return _clipped_scatter(1)


@register(
    "col2im_clipped.k3s2p1",
    area="nn",
    params={"batch": _BATCH, "channels": 8, "image": _IMAGE, "kernel": 3, "stride": 2, "pad": 1},
)
def _col2im_clipped_downsample():
    return _clipped_scatter(2)


@register(
    "col2im.k2s2p0",
    area="nn",
    params={
        "batch": _BATCH,
        "channels": 8,
        "image": _IMAGE,
        "kernel": 2,
        "stride": 2,
        "pad": 0,
        "branch": "non-overlapping",
    },
)
def _col2im_fast_branch():
    from repro.nn.layers.conv import col2im, im2col

    x = _input(c=8)
    cols, _ = im2col(x, 2, 2, 2, 0)
    return lambda: col2im(cols, x.shape, 2, 2, 2, 0)


def _fwdbwd(layer, x, grad):
    def step():
        layer.forward(x)
        layer.backward(grad)

    return step


def _conv(in_c, out_c, kernel, stride, pad, groups=1):
    from repro.nn.layers.conv import Conv2D

    return Conv2D(
        in_c,
        out_c,
        kernel,
        stride=stride,
        padding=pad,
        groups=groups,
        rng=np.random.default_rng(0),
    )


@register(
    "conv2d.fwd.k3s1p1",
    area="nn",
    params={"batch": _BATCH, "in_channels": 8, "out_channels": 16, "image": _IMAGE, "kernel": 3},
)
def _conv_fwd():
    layer = _conv(8, 16, 3, 1, 1)
    x = _input(c=8)
    return lambda: layer.forward(x)


@register(
    "conv2d.fwdbwd.k3s1p1",
    area="nn",
    params={"batch": _BATCH, "in_channels": 8, "out_channels": 16, "image": _IMAGE, "kernel": 3},
)
def _conv_fwdbwd():
    return _fwdbwd(_conv(8, 16, 3, 1, 1), _input(c=8), _input(n=_BATCH, c=16, seed=1))


@register(
    "conv2d.fwdbwd.k1s1p0",
    area="nn",
    params={
        "batch": _BATCH,
        "in_channels": 32,
        "out_channels": 32,
        "image": _IMAGE,
        "kernel": 1,
        "route": "pointwise",
    },
)
def _conv_pointwise():
    return _fwdbwd(_conv(32, 32, 1, 1, 0), _input(c=32), _input(c=32, seed=1))


@register(
    "conv2d.fwdbwd.k5s1p2g2",
    area="nn",
    params={
        "batch": _BATCH,
        "in_channels": 16,
        "out_channels": 32,
        "image": _IMAGE,
        "kernel": 5,
        "groups": 2,
    },
)
def _conv_grouped():
    return _fwdbwd(_conv(16, 32, 5, 1, 2, groups=2), _input(c=16), _input(c=32, seed=1))


# The AlexNet-LRN proxy's first-stage window layers at one rank's shape in a
# 4-rank run (local batch 16, 16 channels, 12×12 images); the proxy train
# steps below use BatchNorm, so no other row runs LRN.
_RANK = {"batch": 16, "channels": 16, "image": 12}


@register("lrn.fwdbwd", area="nn", params={**_RANK, "size": 5})
def _lrn_fwdbwd():
    from repro.nn.layers.norm import LocalResponseNorm

    x = _input(n=16, c=16, s=12)
    return _fwdbwd(LocalResponseNorm(size=5), x, _input(n=16, c=16, s=12, seed=1))


@register("maxpool.fwdbwd", area="nn", params={**_RANK, "kernel": 2, "stride": 2})
def _maxpool_fwdbwd():
    from repro.nn.layers.pooling import MaxPool2D

    x = _input(n=16, c=16, s=12)
    return _fwdbwd(MaxPool2D(2, 2), x, _input(n=16, c=16, s=6, seed=1))


def _train_step(model_name: str, **kwargs):
    from repro.core import SGD
    from repro.core.trainer import Trainer
    from repro.nn.models import build_model

    model = build_model(model_name, num_classes=10, seed=0, **kwargs)
    trainer = Trainer(model, SGD(model.parameters()), 0.01)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(_BATCH, 3, _IMAGE, _IMAGE))
    y = rng.integers(0, 10, size=_BATCH)

    def step():
        with np.errstate(all="ignore"):
            trainer.train_step(x, y)

    return step


@register(
    "train_step.alexnet_proxy",
    area="nn",
    params={"model": "micro_alexnet", "batch": _BATCH, "image": _IMAGE},
    repeats=15,
)
def _alexnet_step():
    return _train_step("micro_alexnet", image_size=_IMAGE)


@register(
    "train_step.resnet_proxy",
    area="nn",
    params={"model": "micro_resnet", "batch": _BATCH, "image": _IMAGE},
    repeats=15,
)
def _resnet_step():
    return _train_step("micro_resnet")
