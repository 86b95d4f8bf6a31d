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
matrix). A layer may write into arrays it allocated itself. A 1x1 stride-1
convolution needs no gather either way: ``im2col`` returns its input
reshaped and ``col2im`` its columns reshaped, with no copy and no zero-fill.

``col2im`` scatters columns back for the transposed convolution's forward
and a convolution's input gradient. It sums each stride residue of the
padded array in a contiguous plane of its own, then writes the planes into
a C-contiguous padded array, and the layers return that array's unpadded
view. Each element is the sum a tap-by-tap scatter into the padded array
gives, in the same order, and the result has the same memory layout, which
matters: batch norm's sums over a batch round by layout.

A dilated depthwise convolution with a kernel wider than 1 (every depthwise
layer of the default model from stage 3 on: 32 of its 36) gathers no
columns for its forward or its input gradient. It reads its taps through
one strided view of the padded input, or of the padded ``dy``, after Cho and
Brand's memory-efficient convolution (ICML 2017); a training forward caches
the padded input, and ``backward`` gathers its columns, in blocks, only for
the weight gradient. Any other depthwise convolution gathers its columns in
blocks of channels of at most ``COL_BLOCK`` values; a training forward
caches the padded input (the input itself for a 1x1 kernel), never
columns, and ``backward`` gathers each block again. The transposed convolution's forward
shares that budget: each block of output channels gets its own matmul, and
``col2im`` sums the block's columns straight into its channels of one padded
array. The first time either layer needs more than one block, it fixes the
process's heap thresholds (:func:`fix_heap_thresholds`), so that one block's
temporaries reuse the pages of the last.

A ``Param``'s ``data`` and ``grad`` may be views of one buffer shared by a
whole model (:func:`pack_params`), which the optimizer updates and
``zero_grad`` clears in one pass. Write into them in place (``p.data[...] =
v``, ``p.grad += g``), never rebind them, and do not hold one of those arrays
across the packing.

A layer built with ``rng=None`` draws nothing: its weights start at zero,
for a caller that loads every one of them next.

``ReLU`` is ``max(x, 0)``: negatives and -0.0 give +0.0, and a NaN passes
through, so a NaN weight is not hidden by a later ReLU but reaches the heads.
"""

from __future__ import annotations

import ctypes
import functools
import math
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "Param",
    "pack_params",
    "fix_heap_thresholds",
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

# Float64 values in one block of depthwise or transposed-convolution
# columns: 2 MiB, one L2 cache on the 2-core box it was sized on, so a block
# stays cached between the product that writes it and the sum that reads it.
COL_BLOCK = 2**18


# glibc's mallopt(3) parameter numbers, and the values fix_heap_thresholds
# sets. 32 MiB is where glibc's own dynamic mmap threshold stops rising.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 64 * 2**20


@functools.cache
def fix_heap_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds for this process; False where no C library has ``mallopt``.

    glibc's default is a dynamic rule: a block at or above the mmap
    threshold (128 KiB at first) gets a fresh ``mmap``; freeing one raises
    that threshold to its size, up to 32 MiB, and the trim threshold to
    twice that; and free memory above the trim threshold at the top of the
    heap goes back to the system. Whether the column blocks and planes of a
    few MB reuse the pages of the last block or fault in fresh zeroed ones
    then depends on what the process allocated before. With the thresholds
    fixed, blocks under 32 MiB come from the heap, which keeps up to 64 MiB
    free at its top, so each block reuses the pages of the last. Both are
    set: setting either one turns the dynamic rule off, which would leave
    the other at its default.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle (Windows), or no mallopt in it
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return True


def _channel_blocks(channels: int, per_channel: int) -> list[slice]:
    """Slices of ``channels`` whose columns, ``per_channel`` values a channel, hold at most ``COL_BLOCK`` each.

    Every block holds at least one channel. When there is more than one,
    this first fixes the heap thresholds (:func:`fix_heap_thresholds`,
    once per process): without them, the blocks' temporaries fault in fresh
    pages, block after block.
    """
    step = max(1, COL_BLOCK // max(per_channel, 1))
    if step < channels:
        fix_heap_thresholds()
    return [slice(lo, min(lo + step, channels)) for lo in range(0, channels, step)]


class Param:
    """A learnable array and its gradient accumulator."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)


def pack_params(params: Sequence[Param]) -> Param:
    """Move ``params`` into one contiguous ``data`` buffer and one ``grad`` buffer.

    Each param keeps its values, and its ``data`` and ``grad`` become
    reshaped views of its slice of the buffers, in the order given. Returns
    one ``Param`` over the whole buffers.
    """
    flat = Param(np.concatenate([p.data.reshape(-1) for p in params]))
    np.concatenate([p.grad.reshape(-1) for p in params], out=flat.grad)
    offset = 0
    for p in params:
        end = offset + p.data.size
        p.data = flat.data[offset:end].reshape(p.data.shape)
        p.grad = flat.grad[offset:end].reshape(p.grad.shape)
        offset = end
    return flat


def _he_uniform(rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """He-uniform weights drawn from ``rng``; zeros, with nothing drawn, when ``rng`` is None."""
    if rng is None:
        return np.zeros(shape)
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

    def padded_shape(self, n: int, channels: int) -> tuple[int, int, int, int]:
        return (n, channels, self.in_h + self.pad_top + self.pad_bottom,
                self.in_w + self.pad_left + self.pad_right)

    def pad(self, x: np.ndarray) -> np.ndarray:
        """``x`` zero-padded to the padded shape; ``x`` itself when there is no padding."""
        if not (self.pad_top or self.pad_bottom or self.pad_left or self.pad_right):
            return x
        xp = np.zeros(self.padded_shape(*x.shape[:2]))
        self.unpad(xp)[...] = x
        return xp

    def unpad(self, xp: np.ndarray) -> np.ndarray:
        h = slice(self.pad_top, self.pad_top + self.in_h)
        w = slice(self.pad_left, self.pad_left + self.in_w)
        return xp[:, :, h, w]

    def taps(self, xp: np.ndarray) -> np.ndarray:
        """The (N, C, k, k, out_h, out_w) strided view of the padded ``xp`` that the kernel reads.

        Tap (ki, kj) of output (i, j) is
        ``xp[..., i * stride + ki * dilation, j * stride + kj * dilation]``.
        The view takes ``xp``'s own strides, so ``xp`` need not be contiguous.
        """
        n, c = xp.shape[:2]
        k = self.kernel
        sn, sc, sh, sw = xp.strides
        d, s = self.dilation, self.stride
        return as_strided(xp, (n, c, k, k, self.out_h, self.out_w),
                          (sn, sc, d * sh, d * sw, s * sh, s * sw), writeable=False)

    def im2col(self, xp: np.ndarray) -> np.ndarray:
        """Padded (N, C, PH, PW) -> (N, C * k * k, out_h * out_w).

        All k * k taps are gathered in one copy of :meth:`taps`. A 1x1
        stride-1 kernel needs no gather: the result is then ``xp`` reshaped,
        a view of it when ``xp`` is contiguous.
        """
        n, c = xp.shape[:2]
        length = self.out_h * self.out_w
        if self.kernel == 1 and self.stride == 1:
            return xp.reshape(n, c, length)
        return np.ascontiguousarray(self.taps(xp)).reshape(n, c * self.kernel * self.kernel, length)

    def col2im(self, cols: np.ndarray, channels: int, out: np.ndarray | None = None) -> np.ndarray:
        """Adjoint of :meth:`im2col`; returns the padded-shape array, C-contiguous.

        With ``out``, an (N, ``channels``) padded-shape array, such as a
        block of channels of a larger one, the sums are written into it
        instead, every element of it, and ``out`` is returned.

        The sum runs in residue planes. Tap (ki, kj) adds only into padded
        rows ``r`` with ``r % stride == ki * dilation % stride``, and likewise
        columns, so the padded array splits into ``stride ** 2`` planes, one
        per (row, column) residue, that no tap adds across. One plane at a
        time is summed in a contiguous zero-filled array of its own, its taps
        added one at a time in (ki, kj) order, since taps of a dilated or
        strided kernel overlap, and then written into the padded array
        through the strided view of its residue. Each element is thus the
        same sum in the same order as when every tap is added into one
        zero-filled padded array, bit for bit. A 1x1 stride-1 kernel needs no
        scatter: the result is then ``cols`` reshaped, as :meth:`im2col`
        returns its input reshaped.
        """
        n = cols.shape[0]
        k, d, s = self.kernel, self.dilation, self.stride
        if k == 1 and s == 1:
            if out is None:
                return cols.reshape(n, channels, self.out_h, self.out_w)
            out[...] = cols.reshape(n, channels, self.out_h, self.out_w)
            return out
        cols6 = cols.reshape(n, channels, k, k, self.out_h, self.out_w)
        xp = np.empty(self.padded_shape(n, channels)) if out is None else out
        offsets = [divmod(t * d, s) for t in range(k)]  # (offset in the plane, residue) of each tap row/column
        for ri in range(s):
            for rj in range(s):
                view = xp[:, :, ri::s, rj::s]
                plane = np.zeros(view.shape)
                for ki, (oi, r) in enumerate(offsets):
                    for kj, (oj, q) in enumerate(offsets):
                        if (r, q) == (ri, rj):
                            plane[:, :, oi:oi + self.out_h, oj:oj + self.out_w] += cols6[:, :, ki, kj]
                view[...] = plane
                del plane  # so that the next plane is not made while this one is held
        return xp


class Conv2d(Layer):
    """Standard convolution, optionally strided and/or dilated."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, dilation: int = 1, bias: bool = True, *,
                 rng: np.random.Generator | None):
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
        # without ``out`` a 1x1 stride-1 kernel's input gradient is ``dcols`` reshaped, not a copy of it
        return geo.unpad(geo.col2im(dcols, self.in_channels))


class DepthwiseConv2d(Layer):
    """Per-channel spatial convolution (no channel mixing), stride 1, no bias.

    A dilated layer with a kernel wider than 1 (:attr:`views_taps`) gathers
    no columns for its output or its input gradient: :meth:`_tap_sum` reads
    the taps through one view of the padded array. A training forward keeps
    the padded input, and ``backward`` gathers its columns in blocks (below)
    for the weight gradient only. Each output and input-gradient entry is
    the sum of the gathered path, in the same order, bit for bit, and the
    output is C-contiguous, as the gathered path's is, so no later sum over
    it rounds otherwise.

    An undilated layer keeps the gather. At dilation 1 the view's unit-step
    tap axis has the stride of its output axis, and numpy's ``einsum`` then
    picks another inner loop, whose sums differ in the last bits under
    every ``order`` and which took 2.3-2.6x as long (386 against 146 us at
    (1, 32, 16, 32), 2.66 against 1.15 ms at (1, 16, 64, 128), on a 2-core
    x86 box with numpy 2.4.6).

    Otherwise the k * k column matrix is gathered in blocks of whole
    channels of at most ``COL_BLOCK`` values each (at least one channel),
    and each block's ``einsum`` fills its channels of a preallocated output,
    one block or many. A training forward keeps the padded input, never
    columns, and ``backward`` gathers each block again, for the weight
    gradient and for the input gradient.

    Each output and input-gradient entry is the same sum in the same order
    whatever the block size, so blocking changes none of their bits. So is each
    weight-gradient entry for one image and a kernel wider than 1 (every
    training step and depthwise layer in this package), and for maps of at
    most 8,192 pixels. Beyond that numpy's buffered ``einsum`` splits the
    sum over images and pixels at its 8,192-element buffer boundaries, whose
    places depend on the channel count, so a blocked weight gradient may
    differ from a one-block one in the last bits.
    """

    def __init__(self, channels: int, kernel: int, dilation: int = 1, *, rng: np.random.Generator | None):
        if kernel % 2 == 0:
            # "same" padding is then asymmetric, and the backward's reversed taps would read the wrong rows
            raise ValueError(f"depthwise kernel must be odd, got {kernel}")
        self.channels = channels
        self.kernel = kernel
        self.dilation = dilation
        self.weight = Param(_he_uniform(rng, (channels, kernel, kernel), kernel * kernel))

    def local_params(self):
        return [("weight", self.weight)]

    @property
    def views_taps(self) -> bool:
        """Whether the forward and the input gradient read their taps through :meth:`_tap_sum`'s view."""
        return self.dilation > 1 and self.kernel > 1

    def _tap_sum(self, xp: np.ndarray, h: int, w: int, reverse: bool = False) -> np.ndarray:
        """``sum_t w[c, t] * tap t`` of the padded, C-contiguous ``xp`` for an (h, w) output, with no gather.

        Output (i, j) lies at flat offset ``l = i * PW + j`` of a padded
        channel of row width ``PW``, and tap (ki, kj) of every output at the
        fixed offset ``(ki * PW + kj) * d`` from it, so one view of shape
        (N, C, k, k, h * PW - (k - 1) * d) reads every tap of every output of
        a flat (N, C, h * PW) sum, whose first ``w`` columns of each row are
        the output; the rest, which straddle two rows, are dropped. With
        ``reverse`` the view starts at the last tap and steps back, for the
        input gradient. ``einsum`` adds each output's taps from +0.0 in
        (ki, kj) order, as it does over the gathered columns. ``geo.pad``
        makes ``xp`` C-contiguous here: a layer that views its taps always
        pads.
        """
        n, c, _, pw = xp.shape
        k, d = self.kernel, self.dilation
        sn, sc, sh, sw = xp.strides
        span = (k - 1) * d
        # np.ndarray over xp's buffer: ~0.5 us a call against as_strided's ~3.5, which counts at 8x8 maps
        offset, step = (span * (sh + sw), -d) if reverse else (0, d)
        view = np.ndarray((n, c, k, k, h * pw - span), xp.dtype, xp, offset, (sn, sc, step * sh, step * sw, sw))
        y = np.empty((n, c, h * pw))
        np.einsum("cij,ncijl->ncl", self.weight.data, view, out=y[:, :, :h * pw - span])
        return np.ascontiguousarray(y.reshape(n, c, h, pw)[:, :, :, :w])

    def _columns(self, geo: _ConvGeometry, xp: np.ndarray, reverse: bool = False) -> np.ndarray:
        """The (N, C, k * k, L) columns of the padded ``xp``, taps in reverse order if ``reverse``."""
        n, c = xp.shape[:2]
        cols4 = geo.im2col(xp).reshape(n, c, self.kernel * self.kernel, -1)
        return cols4[:, :, ::-1] if reverse else cols4

    def _correlate(self, geo: _ConvGeometry, xp: np.ndarray, blocks: list[slice],
                   reverse: bool = False) -> np.ndarray:
        """``sum_t w[c, t] * cols[n, c, t, l]`` over the columns of ``xp``, block by block: (N, C, L)."""
        n, c = xp.shape[:2]
        w2 = self.weight.data.reshape(c, -1)
        y = np.empty((n, c, geo.out_h * geo.out_w))
        for b in blocks:
            np.einsum("ck,nckl->ncl", w2[b], self._columns(geo, xp[:, b], reverse), out=y[:, b])
        return y

    def forward(self, x, training=False):
        n, c, h, w = x.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} input channels, got {c}")
        geo = _ConvGeometry(h, w, self.kernel, 1, self.dilation)
        xp = geo.pad(x)
        per_channel = n * self.kernel * self.kernel * geo.out_h * geo.out_w
        if self.views_taps:
            self._cache = (geo, _channel_blocks(c, per_channel), xp) if training else None
            return self._tap_sum(xp, h, w)
        blocks = _channel_blocks(c, per_channel)
        y = self._correlate(geo, xp, blocks)
        self._cache = (geo, blocks, xp) if training else None
        return y.reshape(n, c, geo.out_h, geo.out_w)

    def backward(self, dy):
        """Accumulate the weight gradient and return the input gradient.

        The input gradient is the depthwise correlation of ``dy`` with the
        taps reversed: ``dx[p] = sum_t w[t] * dyp[p + (k - 1 - t) * d]`` for
        ``dy`` padded as the forward pads ``x``. Its taps are read in
        reversed order, through :meth:`_tap_sum`'s view or from columns
        gathered by :meth:`_ConvGeometry.im2col` as the forward reads them,
        and summed by the forward's ``einsum``. That is the direct adjoint
        sum bit for bit: with an odd kernel "same" padding is symmetric, so
        reversed tap ``t`` reads the ``dy`` element that tap ``t`` joins to
        ``p``; the sum starts at +0.0 and adds the taps in order, as the
        direct sum does; and a tap that reads the padding adds a signed zero,
        which changes no sum that started at +0.0.
        """
        geo, blocks, xp = self._saved()
        n, c = dy.shape[:2]
        dym = dy.reshape(n, c, -1)
        dw = np.empty((c, self.kernel * self.kernel))
        for b in blocks:
            np.einsum("ncl,nckl->ck", dym[:, b], self._columns(geo, xp[:, b]), out=dw[b])
        self.weight.grad += dw.reshape(self.weight.data.shape)
        if self.views_taps:
            return self._tap_sum(geo.pad(dy), geo.in_h, geo.in_w, reverse=True)
        dx = self._correlate(geo, geo.pad(dy), blocks, reverse=True)
        return dx.reshape(n, c, geo.in_h, geo.in_w)


class DepthwiseSeparableConv2d(Layer):
    """Depthwise spatial convolution followed by a 1x1 pointwise convolution."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int, dilation: int = 1, *,
                 rng: np.random.Generator | None):
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

    The forward is a matmul, which gives every tap's columns, then
    :meth:`_ConvGeometry.col2im`, which sums them one residue plane at a
    time: a stride-s transposed convolution splits into s * s independent
    phases, one per output residue (Shi et al., "Real-Time Single Image and
    Video Super-Resolution Using an Efficient Sub-Pixel Convolutional Neural
    Network", CVPR 2016). The output is the unpadded view of the padded
    array, with its strides, as when each tap was added into that array
    directly.

    The column matrix of all output channels is the layer's largest
    temporary, so the layer shares the depthwise budget: the output
    channels go in blocks of at most ``COL_BLOCK`` column values (at least
    one channel; one block when all of them fit). Each block is one matmul
    of its rows of the weight, and ``col2im`` sums its residue planes
    straight into the block's channels of one C-contiguous padded array.
    Each output is the same sum of taps in the same order for any block
    size, and each column the same dot product: numpy computes a block's
    product, as it does the whole one, as a matrix product (BLAS gemm),
    which rounds an entry alike whatever the number of rows. So blocking
    changes no bit, except where a product has one row or one column (a 1x1
    kernel in blocks of one channel, or a one-pixel input): numpy then
    computes a matrix-vector product (gemv), whose rounding depends on its
    length. No layer here meets either case above the budget. A training
    forward keeps only the input, and ``backward`` gathers the columns of
    ``dy`` whole.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3, stride: int = 2, *,
                 rng: np.random.Generator | None):
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
        taps = self.kernel * self.kernel
        xp = np.empty(geo.padded_shape(n, self.out_channels))
        for b in _channel_blocks(self.out_channels, n * taps * h * w):
            # passed unnamed, so that a block's columns are freed before the next block's are made
            geo.col2im(np.matmul(w2[:, b.start * taps:b.stop * taps].T[None], xm), b.stop - b.start, out=xp[:, b])
        y = geo.unpad(xp)
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
            # x.mean and x.var, bit for bit (numpy's own recipe), with x - mean taken once
            m = x.size // self.channels
            mean = x.sum(axis=(0, 2, 3)) / m
            y = x - mean[None, :, None, None]
            var = (y * y).sum(axis=(0, 2, 3)) / m
            self.running_mean[...] = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var[...] = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            var = self.running_var
            y = x - self.running_mean[None, :, None, None]
        ivar = 1.0 / np.sqrt(var + self.eps)
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
    projection. Both 3x3 stages are depthwise-separable convolutions.
    """

    def __init__(self, in_channels: int, out_channels: int, dilation: int = 1, *, rng: np.random.Generator | None):
        self.bn1 = BatchNorm2d(in_channels)
        self.relu1 = ReLU()
        self.conv1 = DepthwiseSeparableConv2d(in_channels, out_channels, 3, dilation=dilation, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        self.relu2 = ReLU()
        self.conv2 = DepthwiseSeparableConv2d(out_channels, out_channels, 3, dilation=dilation, rng=rng)
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
