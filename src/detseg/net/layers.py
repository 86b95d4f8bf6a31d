"""Differentiable layers with explicit forward/backward passes.

All layers operate on float64 N x C x H x W arrays. Convolutions use "same"
padding so spatial sizes follow ``out = ceil(in / stride)``; the transposed
convolution is the exact adjoint of the matching strided convolution and
therefore upsamples by its stride. Each ``backward`` consumes the cache of
the most recent *training* forward (``training=True``) and accumulates
parameter gradients in place. An eval forward keeps no cache and clears the
one an earlier training forward left, so inference holds no backward state
and a ``backward`` after it raises ``RuntimeError``.

No layer writes into its input, and callers must not write into an array
they passed to a training forward before the matching ``backward``: a cache
may be a view of the input (a 1x1 convolution keeps its input as its column
matrix). A layer may write into arrays it allocated itself.

``ReLU`` is ``max(x, 0)``: negatives and -0.0 give +0.0, and a NaN passes
through, so a NaN weight is not hidden by a later ReLU but reaches the heads.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Param",
    "Layer",
    "Conv2d",
    "DepthwiseConv2d",
    "DepthwiseSeparableConv2d",
    "TransposedConv2d",
    "MaxPool2x2",
    "ReLU",
    "BatchNorm2d",
    "ResidualBlock",
    "Sequential",
]


class Param:
    """A learnable array and its gradient accumulator."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)


def _he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """A node of the network tree: its own parameters and buffers, then its children."""

    _cache = None  # what ``backward`` needs from the last training forward

    def _saved(self):
        """The cache of the last forward, which must have been a training forward."""
        if self._cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward needs a forward with training=True first")
        return self._cache

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def local_params(self) -> list[tuple[str, Param]]:
        return []

    def local_buffers(self) -> list[tuple[str, np.ndarray]]:
        return []

    def children(self) -> list[tuple[str, "Layer"]]:
        return []

    def walk(self, prefix: str = "") -> Iterator[tuple[str, "Layer"]]:
        """This layer and every descendant, depth first, each with its dotted name prefix."""
        yield prefix, self
        for name, child in self.children():
            yield from child.walk(prefix + name + ".")

    def named_params(self) -> Iterator[tuple[str, Param]]:
        for prefix, layer in self.walk():
            for name, p in layer.local_params():
                yield prefix + name, p

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        for prefix, layer in self.walk():
            for name, b in layer.local_buffers():
                yield prefix + name, b

    def parameters(self) -> list[Param]:
        return [p for _, p in self.named_params()]


def _same_pad(size: int, kernel: int, stride: int, dilation: int) -> tuple[int, int, int]:
    """Return (out_size, pad_begin, pad_end) for "same" padding."""
    out = -(-size // stride)
    k_eff = dilation * (kernel - 1) + 1
    total = max((out - 1) * stride + k_eff - size, 0)
    return out, total // 2, total - total // 2


class _ConvGeometry:
    """Shared padding / tap arithmetic for one (shape, kernel) combination."""

    __slots__ = ("kernel", "stride", "dilation", "in_h", "in_w", "out_h", "out_w",
                 "pad_top", "pad_bottom", "pad_left", "pad_right")

    def __init__(self, in_h: int, in_w: int, kernel: int, stride: int, dilation: int):
        self.kernel = kernel
        self.stride = stride
        self.dilation = dilation
        self.in_h = in_h
        self.in_w = in_w
        self.out_h, self.pad_top, self.pad_bottom = _same_pad(in_h, kernel, stride, dilation)
        self.out_w, self.pad_left, self.pad_right = _same_pad(in_w, kernel, stride, dilation)

    def pad(self, x: np.ndarray) -> np.ndarray:
        """``x`` zero-padded to the padded shape; ``x`` itself when there is no padding."""
        if not (self.pad_top or self.pad_bottom or self.pad_left or self.pad_right):
            return x
        n, c = x.shape[:2]
        xp = np.zeros((n, c, self.in_h + self.pad_top + self.pad_bottom,
                       self.in_w + self.pad_left + self.pad_right), dtype=np.float64)
        self.unpad(xp)[...] = x
        return xp

    def unpad(self, xp: np.ndarray) -> np.ndarray:
        h = slice(self.pad_top, self.pad_top + self.in_h)
        w = slice(self.pad_left, self.pad_left + self.in_w)
        return xp[:, :, h, w]

    def _tap(self, ki: int, kj: int) -> tuple[slice, slice]:
        i0 = ki * self.dilation
        j0 = kj * self.dilation
        return (
            slice(i0, i0 + (self.out_h - 1) * self.stride + 1, self.stride),
            slice(j0, j0 + (self.out_w - 1) * self.stride + 1, self.stride),
        )

    def im2col(self, xp: np.ndarray) -> np.ndarray:
        """Padded (N, C, PH, PW) -> (N, C * k * k, out_h * out_w).

        A 1x1 stride-1 kernel needs no gather: the result is then ``xp`` reshaped,
        a view of it when ``xp`` is contiguous.
        """
        n, c = xp.shape[:2]
        k = self.kernel
        length = self.out_h * self.out_w
        if k == 1 and self.stride == 1:
            return xp.reshape(n, c, length)
        cols = np.empty((n, c, k * k, self.out_h, self.out_w), dtype=np.float64)
        for ki in range(k):
            for kj in range(k):
                hs, ws = self._tap(ki, kj)
                cols[:, :, ki * k + kj] = xp[:, :, hs, ws]
        return cols.reshape(n, c * k * k, length)

    def col2im(self, cols: np.ndarray, channels: int) -> np.ndarray:
        """Adjoint of :meth:`im2col`; returns the padded-shape array."""
        n = cols.shape[0]
        k = self.kernel
        ph = self.in_h + self.pad_top + self.pad_bottom
        pw = self.in_w + self.pad_left + self.pad_right
        cols4 = cols.reshape(n, channels, k * k, self.out_h, self.out_w)
        xp = np.zeros((n, channels, ph, pw), dtype=np.float64)
        for ki in range(k):
            for kj in range(k):
                hs, ws = self._tap(ki, kj)
                xp[:, :, hs, ws] += cols4[:, :, ki * k + kj]
        return xp


class Conv2d(Layer):
    """Standard convolution, optionally strided and/or dilated."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, dilation: int = 1, bias: bool = True, *,
                 rng: np.random.Generator):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.dilation = dilation
        fan_in = in_channels * kernel * kernel
        self.weight = Param(_he_uniform(rng, (out_channels, in_channels, kernel, kernel), fan_in))
        self.bias = Param(np.zeros(out_channels)) if bias else None

    def local_params(self):
        out = [("weight", self.weight)]
        if self.bias is not None:
            out.append(("bias", self.bias))
        return out

    def forward(self, x, training=False):
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {c}")
        geo = _ConvGeometry(h, w, self.kernel, self.stride, self.dilation)
        cols = geo.im2col(geo.pad(x))
        w2 = self.weight.data.reshape(self.out_channels, -1)
        y = np.matmul(w2[None], cols)
        if self.bias is not None:
            y += self.bias.data[None, :, None]
        self._cache = (geo, cols) if training else None
        return y.reshape(n, self.out_channels, geo.out_h, geo.out_w)

    def backward(self, dy):
        geo, cols = self._saved()
        n = dy.shape[0]
        dym = dy.reshape(n, self.out_channels, -1)
        self.weight.grad += np.tensordot(dym, cols, axes=([0, 2], [0, 2])).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += dym.sum(axis=(0, 2))
        w2 = self.weight.data.reshape(self.out_channels, -1)
        dcols = np.matmul(w2.T[None], dym)
        return geo.unpad(geo.col2im(dcols, self.in_channels))


class DepthwiseConv2d(Layer):
    """Per-channel spatial convolution (no channel mixing), stride 1, no bias."""

    def __init__(self, channels: int, kernel: int, dilation: int = 1, *, rng: np.random.Generator):
        self.channels = channels
        self.kernel = kernel
        self.dilation = dilation
        self.weight = Param(_he_uniform(rng, (channels, kernel, kernel), kernel * kernel))

    def local_params(self):
        return [("weight", self.weight)]

    def forward(self, x, training=False):
        n, c, h, w = x.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} input channels, got {c}")
        geo = _ConvGeometry(h, w, self.kernel, 1, self.dilation)
        cols4 = geo.im2col(geo.pad(x)).reshape(n, c, self.kernel * self.kernel, -1)
        w2 = self.weight.data.reshape(c, -1)
        y = np.einsum("ck,nckl->ncl", w2, cols4)
        self._cache = (geo, cols4) if training else None
        return y.reshape(n, c, geo.out_h, geo.out_w)

    def backward(self, dy):
        geo, cols4 = self._saved()
        n, c = dy.shape[:2]
        dym = dy.reshape(n, c, -1)
        self.weight.grad += np.einsum("ncl,nckl->ck", dym, cols4).reshape(self.weight.data.shape)
        w2 = self.weight.data.reshape(c, -1)
        dcols = (w2[None, :, :, None] * dym[:, :, None, :]).reshape(n, c * self.kernel * self.kernel, -1)
        return geo.unpad(geo.col2im(dcols, c))


class DepthwiseSeparableConv2d(Layer):
    """Depthwise spatial convolution followed by a 1x1 pointwise convolution."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int, dilation: int = 1, *,
                 rng: np.random.Generator):
        self.depthwise = DepthwiseConv2d(in_channels, kernel, dilation, rng=rng)
        self.pointwise = Conv2d(in_channels, out_channels, 1, rng=rng)

    def children(self):
        return [("depthwise", self.depthwise), ("pointwise", self.pointwise)]

    def forward(self, x, training=False):
        return self.pointwise.forward(self.depthwise.forward(x, training), training)

    def backward(self, dy):
        return self.depthwise.backward(self.pointwise.backward(dy))


class TransposedConv2d(Layer):
    """Learned upsampling by ``stride``; the adjoint of a strided Conv2d.

    The weight has shape (in_channels, out_channels, k, k) and is shared with
    the matching downsampling convolution in the adjoint identity
    ``<conv(x), y> == <x, transposed(y)>``.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3, stride: int = 2, *,
                 rng: np.random.Generator):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        fan_in = in_channels * kernel * kernel
        self.weight = Param(_he_uniform(rng, (in_channels, out_channels, kernel, kernel), fan_in))
        self.bias = Param(np.zeros(out_channels))

    def local_params(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x, training=False):
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {c}")
        geo = _ConvGeometry(h * self.stride, w * self.stride, self.kernel, self.stride, 1)
        xm = x.reshape(n, c, h * w)
        w2 = self.weight.data.reshape(self.in_channels, -1)
        cols = np.matmul(w2.T[None], xm)
        y = geo.unpad(geo.col2im(cols, self.out_channels))
        y += self.bias.data[None, :, None, None]
        self._cache = (geo, xm) if training else None
        return y

    def backward(self, dy):
        geo, xm = self._saved()
        n = dy.shape[0]
        dcols = geo.im2col(geo.pad(dy))
        self.weight.grad += np.tensordot(xm, dcols, axes=([0, 2], [0, 2])).reshape(self.weight.data.shape)
        self.bias.grad += dy.sum(axis=(0, 2, 3))
        w2 = self.weight.data.reshape(self.in_channels, -1)
        dx = np.matmul(w2[None], dcols)
        return dx.reshape(n, self.in_channels, geo.out_h, geo.out_w)


class MaxPool2x2(Layer):
    """2x2 max pooling with stride 2; ties route the gradient to the first max."""

    def forward(self, x, training=False):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"max pooling needs even spatial dims, got {h}x{w}")
        # the window maximum, folded in argmax's order; np.maximum keeps its
        # second argument on a tie, so a tie keeps the first maximum, as argmax does
        y = x[:, :, 0::2, 0::2]
        for di, dj in ((0, 1), (1, 0), (1, 1)):
            y = np.maximum(x[:, :, di::2, dj::2], y)
        if training:
            windows = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
            self._cache = (x.shape, windows.argmax(axis=-1))
        else:
            self._cache = None
        return y

    def backward(self, dy):
        (n, c, h, w), idx = self._saved()
        dwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=np.float64)
        np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
        return dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


class ReLU(Layer):
    def forward(self, x, training=False):
        self._cache = x > 0 if training else None
        return np.maximum(x, 0.0)

    def backward(self, dy):
        return np.where(self._saved(), dy, 0.0)


class BatchNorm2d(Layer):
    """Per-channel batch normalization.

    Training mode normalizes with batch statistics and updates the running
    averages; eval mode applies the frozen running averages. Setting
    ``frozen`` makes training mode use the running averages too (so further
    training adapts to exactly the statistics inference will see, important
    when batches hold a single image). The running averages are updated in
    place, so the arrays :meth:`Layer.named_buffers` yields stay live.
    """

    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels: int):
        self.channels = channels
        self.frozen = False
        self.gamma = Param(np.ones(channels))
        self.beta = Param(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def local_params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def local_buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]

    def forward(self, x, training=False):
        if x.shape[1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[1]}")
        use_batch_stats = training and not self.frozen
        if use_batch_stats:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean[...] = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var[...] = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var
        ivar = 1.0 / np.sqrt(var + self.eps)
        y = x - mean[None, :, None, None]
        y *= ivar[None, :, None, None]
        if training:
            self._cache = (y, ivar, use_batch_stats, x.shape)  # y is xhat
            y = y * self.gamma.data[None, :, None, None]
        else:
            self._cache = None
            y *= self.gamma.data[None, :, None, None]
        y += self.beta.data[None, :, None, None]
        return y

    def backward(self, dy):
        xhat, ivar, used_batch_stats, shape = self._saved()
        n, _, h, w = shape
        self.gamma.grad += (dy * xhat).sum(axis=(0, 2, 3))
        self.beta.grad += dy.sum(axis=(0, 2, 3))
        dxhat = dy * self.gamma.data[None, :, None, None]
        if not used_batch_stats:
            return dxhat * ivar[None, :, None, None]
        m = n * h * w
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        return (ivar[None, :, None, None] / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)


class ResidualBlock(Layer):
    """Pre-activation residual block: BN - ReLU - conv, twice, plus skip.

    The skip is the identity when channel counts match, otherwise a 1x1
    projection. ``conv_kind`` selects depthwise-separable or full
    convolutions for the two 3x3 stages.
    """

    def __init__(self, in_channels: int, out_channels: int, dilation: int = 1,
                 conv_kind: str = "separable", *, rng: np.random.Generator):
        if conv_kind == "separable":
            make = lambda ci, co: DepthwiseSeparableConv2d(ci, co, 3, dilation=dilation, rng=rng)
        elif conv_kind == "full":
            make = lambda ci, co: Conv2d(ci, co, 3, dilation=dilation, rng=rng)
        else:
            raise ValueError(f"unknown conv_kind {conv_kind!r}")
        self.bn1 = BatchNorm2d(in_channels)
        self.relu1 = ReLU()
        self.conv1 = make(in_channels, out_channels)
        self.bn2 = BatchNorm2d(out_channels)
        self.relu2 = ReLU()
        self.conv2 = make(out_channels, out_channels)
        self.project = None if in_channels == out_channels else Conv2d(in_channels, out_channels, 1, bias=False, rng=rng)

    def children(self):
        out = [("bn1", self.bn1), ("relu1", self.relu1), ("conv1", self.conv1),
               ("bn2", self.bn2), ("relu2", self.relu2), ("conv2", self.conv2)]
        if self.project is not None:
            out.append(("project", self.project))
        return out

    def forward(self, x, training=False):
        h = self.conv1.forward(self.relu1.forward(self.bn1.forward(x, training), training), training)
        h = self.conv2.forward(self.relu2.forward(self.bn2.forward(h, training), training), training)
        h += x if self.project is None else self.project.forward(x, training)
        return h

    def backward(self, dy):
        dmain = self.bn1.backward(self.relu1.backward(self.conv1.backward(
            self.bn2.backward(self.relu2.backward(self.conv2.backward(dy))))))
        dskip = dy if self.project is None else self.project.backward(dy)
        return dmain + dskip


class Sequential(Layer):
    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)

    def children(self):
        return [(str(i), layer) for i, layer in enumerate(self.layers)]

    def forward(self, x, training=False):
        for layer in self.layers:
            x = layer.forward(x, training)
        return x

    def backward(self, dy):
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy
