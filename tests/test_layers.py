import itertools
import tracemalloc

import numpy as np
import pytest

from detseg.net import layers
from detseg.net.layers import (
    _ConvGeometry,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    DepthwiseSeparableConv2d,
    MaxPool2x2,
    ReLU,
    ResidualBlock,
    Sequential,
    TransposedConv2d,
)
from detseg.oracles import (
    col2im_reference,
    conv2d_oracle,
    depthwise_input_grad_oracle,
    depthwise_oracle,
    finite_difference,
    gradients_close,
    transposed_conv_oracle,
)
from detseg.selftest import check_layer_gradients


def rng_for(seed):
    return np.random.default_rng(seed)


def tied_input():
    """A (1, 2, 4, 4) input on a half-unit grid, so with ties and -0.0 entries.

    Its first pooling window of channel 0 is a four-way tie, and that of
    channel 1 ties -0.0 (first) with +0.0.
    """
    x = np.round(2.0 * rng_for(43).standard_normal((1, 2, 4, 4))) / 2.0
    x[0, 0, :2, :2] = 1.5
    x[0, 1, :2, :2] = [[-0.0, 0.0], [-1.0, -2.0]]
    return x


class TestShapes:
    def test_same_padding_stride1(self):
        conv = Conv2d(2, 4, 3, rng=rng_for(0))
        y = conv.forward(np.zeros((1, 2, 10, 13)))
        assert y.shape == (1, 4, 10, 13)

    def test_same_padding_stride2(self):
        conv = Conv2d(2, 4, 3, stride=2, rng=rng_for(0))
        assert conv.forward(np.zeros((1, 2, 10, 13))).shape == (1, 4, 5, 7)
        assert conv.forward(np.zeros((1, 2, 8, 8))).shape == (1, 4, 4, 4)

    def test_dilated_shape_preserved(self):
        conv = Conv2d(2, 2, 3, dilation=3, rng=rng_for(0))
        assert conv.forward(np.zeros((1, 2, 9, 9))).shape == (1, 2, 9, 9)

    def test_transposed_doubles(self):
        up = TransposedConv2d(3, 2, 3, stride=2, rng=rng_for(0))
        assert up.forward(np.zeros((2, 3, 5, 7))).shape == (2, 2, 10, 14)

    def test_maxpool_halves(self):
        assert MaxPool2x2().forward(np.zeros((1, 2, 6, 8))).shape == (1, 2, 3, 4)
        with pytest.raises(ValueError):
            MaxPool2x2().forward(np.zeros((1, 2, 5, 8)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Conv2d(2, 4, 3, rng=rng_for(0)).forward(np.zeros((1, 3, 8, 8)))

    @pytest.mark.parametrize("kernel", [2, 4])
    def test_depthwise_even_kernel_rejected(self, kernel):
        # "same" padding of an even kernel is asymmetric, which the backward's reversed taps cannot read
        with pytest.raises(ValueError, match=f"depthwise kernel must be odd, got {kernel}"):
            DepthwiseConv2d(2, kernel, rng=rng_for(0))


# (in_channels, out_channels, kernel, stride, dilation, height, width)
CONV_CASES = [
    (2, 3, 3, 1, 1, 7, 5),    # odd sizes
    (2, 3, 3, 2, 1, 8, 6),    # stride 2: one row/column of padding, after the input
    (3, 2, 3, 2, 1, 7, 9),    # stride 2, odd sizes
    (2, 2, 3, 1, 2, 6, 7),    # dilation 2
    (1, 2, 3, 1, 3, 9, 8),    # dilation 3, wider than the padding on each side
    (3, 4, 1, 1, 1, 5, 3),    # 1x1: the column matrix is the input itself
    (3, 2, 1, 2, 1, 5, 6),    # 1x1, stride 2
]


def force_blocks(monkeypatch, per_block, shape, kernel):
    """Make a depthwise or transposed-convolution forward on input ``shape`` go in blocks of ``per_block`` channels.

    None keeps ``COL_BLOCK``. Either layer's columns take ``n * kernel ** 2 * h * w`` values a channel.
    """
    if per_block is not None:
        n, _, h, w = shape
        monkeypatch.setattr(layers, "COL_BLOCK", per_block * n * kernel * kernel * h * w)


# channels per depthwise column block: the module's budget (one block at
# these sizes), one channel, and two, which divides none of the 3 or 5 channels
BLOCKINGS = [None, 1, 2]


class TestConvolutionOracle:
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("case", CONV_CASES)
    def test_conv_matches_direct_loop(self, case, training):
        c_in, c_out, k, stride, dilation, h, w = case
        conv = Conv2d(c_in, c_out, k, stride=stride, dilation=dilation, rng=rng_for(50))
        conv.bias.data[...] = rng_for(51).standard_normal(c_out)
        x = rng_for(52).standard_normal((2, c_in, h, w))
        expected = conv2d_oracle(x, conv.weight.data, conv.bias.data, stride, dilation)
        np.testing.assert_allclose(conv.forward(x, training), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("per_block", BLOCKINGS)
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("dilation, h, w", [(1, 5, 7), (2, 6, 5), (3, 8, 9)])
    def test_depthwise_matches_direct_loop(self, dilation, h, w, training, per_block, monkeypatch):
        depthwise = DepthwiseConv2d(3, 3, dilation=dilation, rng=rng_for(53))
        x = rng_for(54).standard_normal((2, 3, h, w))
        force_blocks(monkeypatch, per_block, x.shape, 3)
        expected = depthwise_oracle(x, depthwise.weight.data, dilation)
        assert depthwise.forward(x, training).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("per_block", BLOCKINGS)
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_depthwise_input_grad_matches_direct_loop(self, n, dilation, kernel, per_block, monkeypatch):
        # dy on a half-unit grid, with exact zeros of both signs and a negative in every case
        depthwise = DepthwiseConv2d(3, kernel, dilation=dilation, rng=rng_for(55))
        for h, w in [(1, 1), (1, 6), (2, 9), (3, 3), (4, 7), (5, 5), (6, 2), (7, 8), (8, 1), (9, 9)]:
            force_blocks(monkeypatch, per_block, (n, 3, h, w), kernel)
            depthwise.forward(rng_for(56).standard_normal((n, 3, h, w)), training=True)
            dy = np.round(2.0 * rng_for(57).standard_normal((n, 3, h, w))) / 2.0
            dy[:, 0, 0, 0], dy[:, 1, -1, -1], dy[:, 2, 0, 0] = -0.0, -1.5, 0.0
            expected = depthwise_input_grad_oracle(dy, depthwise.weight.data, dilation)
            assert depthwise.backward(dy).tobytes() == expected.tobytes(), (h, w)


def per_tap_im2col(geo, xp):
    """The column matrix gathered one tap slice at a time."""
    n, c = xp.shape[:2]
    k, d, s = geo.kernel, geo.dilation, geo.stride
    cols = np.empty((n, c, k * k, geo.out_h, geo.out_w))
    for ki in range(k):
        for kj in range(k):
            cols[:, :, ki * k + kj] = xp[:, :, ki * d:ki * d + (geo.out_h - 1) * s + 1:s,
                                         kj * d:kj * d + (geo.out_w - 1) * s + 1:s]
    return cols.reshape(n, c * k * k, geo.out_h * geo.out_w)


class TestIm2col:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_one_copy_equals_per_tap_gather(self, kernel, stride, dilation, n):
        for h, w in [(1, 1), (3, 5), (7, 3), (9, 9)]:
            geo = _ConvGeometry(h, w, kernel, stride, dilation)
            xp = geo.pad(rng_for(58).standard_normal((n, 3, h, w)))
            expected = per_tap_im2col(geo, xp).tobytes()
            # views with xp's values but other strides: every other channel,
            # row and column of a larger array, and a column-major copy
            host = np.zeros((n, 6, xp.shape[2] + 2, 2 * xp.shape[3]))
            strided = host[:, ::2, 1:-1, ::2]
            strided[...] = xp
            for view in (xp, strided, np.asfortranarray(xp)):
                assert geo.im2col(view).tobytes() == expected, (h, w, view.strides)


def depthwise_run(layer, x, dy):
    """Bytes of the eval forward, the training forward, the weight gradient and the input gradient."""
    y_eval = layer.forward(x).tobytes()
    y_train = layer.forward(x, training=True).tobytes()
    layer.weight.grad[...] = 0.0
    dx = layer.backward(dy)
    return y_eval, y_train, layer.weight.grad.tobytes(), dx.tobytes()


def signed_zeros(shape, seed):
    """Normal values with every third one -0.0 and every sixth, from the second, +0.0."""
    v = rng_for(seed).standard_normal(shape)
    v.reshape(-1)[::3] = -0.0
    v.reshape(-1)[1::6] = 0.0
    return v


class TestDepthwiseBlocks:
    """Columns gathered in channel blocks give the bits of one whole-matrix gather."""

    @pytest.mark.parametrize("per_block", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_blocked_equals_one_block(self, n, dilation, kernel, per_block, monkeypatch):
        layer = DepthwiseConv2d(5, kernel, dilation=dilation, rng=rng_for(70))
        for h, w in [(1, 1), (1, 6), (3, 5), (7, 4), (9, 9)]:
            x, dy = signed_zeros((n, 5, h, w), 71), signed_zeros((n, 5, h, w), 72)
            monkeypatch.setattr(layers, "COL_BLOCK", 2**62)
            whole = depthwise_run(layer, x, dy)
            assert len(layer._cache[1]) == 1
            force_blocks(monkeypatch, per_block, x.shape, kernel)
            assert depthwise_run(layer, x, dy) == whole, (h, w)
            assert len(layer._cache[1]) == -(-5 // per_block)

    @pytest.mark.parametrize("per_block", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_blocked_eval_forward_passes_inf_and_nan(self, n, per_block, monkeypatch):
        layer = DepthwiseConv2d(5, 3, dilation=2, rng=rng_for(73))
        x = signed_zeros((n, 5, 7, 9), 74)
        x.reshape(-1)[2::7] = np.inf
        x.reshape(-1)[4::11] = -np.inf
        x.reshape(-1)[5::13] = np.nan
        monkeypatch.setattr(layers, "COL_BLOCK", 2**62)
        whole = layer.forward(x)
        assert np.isnan(whole).any() and np.isinf(whole).any()
        force_blocks(monkeypatch, per_block, x.shape, 3)
        assert layer.forward(x).tobytes() == whole.tobytes()

    def test_one_large_map_blocked_equals_one_block(self, monkeypatch):
        # 91 x 97 = 8,827 outputs per channel, more than numpy's 8,192-element
        # buffer, which einsum's weight-gradient reduction is split by
        layer = DepthwiseConv2d(3, 3, rng=rng_for(75))
        x, dy = signed_zeros((1, 3, 91, 97), 76), signed_zeros((1, 3, 91, 97), 77)
        monkeypatch.setattr(layers, "COL_BLOCK", 2**62)
        whole = depthwise_run(layer, x, dy)
        force_blocks(monkeypatch, 2, x.shape, 3)
        assert depthwise_run(layer, x, dy) == whole

    def test_finite_differences_in_blocks_of_one_channel(self, monkeypatch):
        monkeypatch.setattr(layers, "COL_BLOCK", 1)
        results = check_layer_gradients(instances=3, seed=42)
        assert {"depthwise_conv", "depthwise_dilated", "transposed_conv"} <= {name for name, _, _ in results}
        for name, err, ok in results:
            assert ok, f"{name}: max relative error {err:.3e}"

    def test_heap_thresholds_are_fixed_by_the_first_blocked_forward(self, monkeypatch):
        up = TransposedConv2d(3, 5, 3, rng=rng_for(96))
        x = rng_for(97).standard_normal((1, 3, 4, 4))
        layers.fix_heap_thresholds.cache_clear()
        try:
            up.forward(x)
            assert layers.fix_heap_thresholds.cache_info().misses == 0  # one block needs no policy
            force_blocks(monkeypatch, 1, x.shape, 3)
            for _ in range(2):
                up.forward(x)
            assert layers.fix_heap_thresholds.cache_info().misses == 1
        finally:
            layers.fix_heap_thresholds.cache_clear()

    def test_eval_forward_memory_is_bounded_by_the_block(self):
        # at the whole-matrix gather this layer's columns alone took
        # 16 * 9 * 64 * 128 * 8 B = 9.4 MB
        layer = DepthwiseConv2d(16, 3, rng=rng_for(78))
        x = rng_for(79).standard_normal((1, 16, 64, 128))
        padded, output = 16 * 66 * 130 * 8, x.nbytes
        slack = 64 * 1024  # Python objects, views and array headers
        tracemalloc.start()
        try:
            layer.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < padded + output + 8 * layers.COL_BLOCK + slack


with np.errstate(invalid="ignore"):
    # The NaN this machine's arithmetic makes. IEEE 754 leaves open which
    # operand's NaN a sum or product passes on, and numpy's loops and
    # Python's scalars need not pick alike, so an input with NaNs of two bit
    # patterns could give results that differ only in a NaN. With this one
    # as the only NaN of an input, every NaN in a result has its bits.
    MADE_NAN = np.float64(np.inf) - np.float64(np.inf)


def special_values(shape, seed):
    """:func:`signed_zeros` values with +inf, -inf and NaN among them."""
    v = signed_zeros(shape, seed)
    v.reshape(-1)[2::7] = np.inf
    v.reshape(-1)[4::11] = -np.inf
    v.reshape(-1)[5::13] = MADE_NAN
    return v


def layouts(x):
    """``x`` and arrays with its values but other strides: every other channel, every other column, column-major."""
    n, c, h, w = x.shape
    channels = np.zeros((n, 2 * c, h, w))[:, ::2]
    columns = np.zeros((n, c, h, 2 * w))[..., ::2]
    channels[...] = columns[...] = x
    return [x, channels, columns, np.asfortranarray(x)]


class TestDepthwiseTapView:
    """A dilated layer reads its taps through a view of the padded input, with the bits of the direct loops."""

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("dilation", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_direct_loops(self, n, dilation, kernel):
        layer = DepthwiseConv2d(3, kernel, dilation=dilation, rng=rng_for(100))
        assert layer.views_taps == (kernel > 1)  # a 1x1 kernel has nothing to view: its columns are its input
        for h, w in [(1, 1), (1, 6), (2, 9), (9, 9)]:
            x = special_values((n, 3, h, w), 101)
            dy = signed_zeros((n, 3, h, w), 102)
            with np.errstate(invalid="ignore"):
                y_expected = depthwise_oracle(x, layer.weight.data, dilation).tobytes()
                dx_expected = depthwise_input_grad_oracle(dy, layer.weight.data, dilation).tobytes()
                for view in layouts(x):
                    for training in (False, True):
                        y = layer.forward(view, training)
                        assert y.tobytes() == y_expected, (h, w, view.strides, training)
                        # the layout of the gathered path's output, which later sums round by
                        assert y.flags.c_contiguous or not layer.views_taps, (h, w, view.strides, training)
                    if layer.views_taps:  # the training cache is the padded input, not its columns
                        span = dilation * (kernel - 1)
                        assert layer._cache[2].shape == (n, 3, h + span, w + span)
                    dx = layer.backward(dy)
                    assert dx.tobytes() == dx_expected, (h, w, view.strides)
                    assert dx.flags.c_contiguous or not layer.views_taps, (h, w, view.strides)

    def test_eval_forward_gathers_no_columns(self):
        # a stage-3 layer of the default model at 256x128; its 9x column
        # matrix alone takes 9 * 32 * 16 * 32 * 8 B = 1.2 MB
        layer = DepthwiseConv2d(32, 3, dilation=2, rng=rng_for(103))
        x = rng_for(104).standard_normal((1, 32, 16, 32))
        tracemalloc.start()
        try:
            layer.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * x.nbytes, peak


def unpadded_view_strides(geo, n, channels):
    """The strides of the unpadded view of a C-contiguous padded (n, channels) buffer."""
    return geo.unpad(np.empty(geo.padded_shape(n, channels))).strides


# odd and even sides, and a map smaller than the kernel
SIDES = [(1, 1), (2, 3), (4, 4), (5, 6), (7, 9)]


class TestResiduePlanes:
    """``col2im`` sums in residue planes and gives the bits of one padded per-tap scatter."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_col2im_equals_padded_scatter(self, kernel, stride, dilation, n):
        for h, w in SIDES:
            geo = _ConvGeometry(h, w, kernel, stride, dilation)
            cols = special_values((n, 3 * kernel * kernel, geo.out_h * geo.out_w), 80)
            with np.errstate(invalid="ignore"):
                got, expected = geo.col2im(cols, 3), col2im_reference(geo, cols, 3)
            assert got.tobytes() == expected.tobytes(), (h, w)
            assert got.shape == geo.padded_shape(n, 3) and got.flags.c_contiguous, (h, w)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_conv_input_grad_equals_padded_scatter(self, kernel, stride, dilation, n):
        conv = Conv2d(2, 3, kernel, stride=stride, dilation=dilation, rng=rng_for(81))
        for draw, (h, w) in itertools.product((signed_zeros, special_values), SIDES):
            conv.weight.data[...] = draw(conv.weight.data.shape, 82)
            geo = _ConvGeometry(h, w, kernel, stride, dilation)
            dy = draw((n, 3, geo.out_h, geo.out_w), 84)
            with np.errstate(invalid="ignore"):
                conv.forward(rng_for(83).standard_normal((n, 2, h, w)), training=True)
                dcols = np.matmul(conv.weight.data.reshape(3, -1).T[None], dy.reshape(n, 3, -1))
                expected = geo.unpad(col2im_reference(geo, dcols, 2))
                dx = conv.backward(dy)
            assert dx.tobytes() == expected.tobytes(), (draw.__name__, h, w)
            assert dx.strides == unpadded_view_strides(geo, n, 2), (h, w)

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_transposed_matches_direct_loop(self, kernel, stride, n, training):
        # One input channel, so that each tap is one product, which the
        # layer's matmul rounds as the loop does; then ±0.0, ±inf and NaN in
        # the input and the weights.
        up = TransposedConv2d(1, 2, kernel, stride=stride, rng=rng_for(85))
        up.bias.data[...] = [0.5, -0.0]
        for draw, (h, w) in itertools.product((signed_zeros, special_values), SIDES[:4]):
            up.weight.data[...] = draw(up.weight.data.shape, 86)
            x = draw((n, 1, h, w), 87)
            geo = _ConvGeometry(h * stride, w * stride, kernel, stride, 1)
            with np.errstate(invalid="ignore"):
                y = up.forward(x, training)
                expected = transposed_conv_oracle(x, up.weight.data, up.bias.data, stride)
            assert y.tobytes() == expected.tobytes(), (draw.__name__, h, w)
            assert y.strides == unpadded_view_strides(geo, n, 2), (h, w)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [2, 3, 4, 5])
    def test_transposed_with_channels_matches_direct_loop(self, kernel, stride, n):
        # Small integers, the weights scaled by a power of two per tap: each
        # tap's sum over channels is exact in any order, with or without a
        # fused multiply-add, while the sum over taps rounds, so that it
        # shows the order the taps are added in.
        rng = rng_for(88)
        up = TransposedConv2d(3, 2, kernel, stride=stride, rng=rng)
        scale = 2.0 ** rng.integers(-40, 41, size=(kernel, kernel))
        up.weight.data[...] = rng.integers(-3, 4, size=up.weight.data.shape) * scale
        up.bias.data[...] = rng.standard_normal(2)
        for h, w in SIDES[:4]:
            x = rng.integers(-3, 4, size=(n, 3, h, w)).astype(np.float64)
            expected = transposed_conv_oracle(x, up.weight.data, up.bias.data, stride)
            assert up.forward(x).tobytes() == expected.tobytes(), (h, w)


class TestTransposedBlocks:
    """Output channels in column blocks give the bits and the strides of one whole matmul."""

    @pytest.mark.parametrize("per_block", [1, 2])
    @pytest.mark.parametrize("kernel", [2, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_blocked_equals_one_block(self, n, stride, kernel, per_block, monkeypatch):
        # 5 output channels, which blocks of 2 do not divide, and 3 input
        # channels, so that each column is a rounded sum of products
        up = TransposedConv2d(3, 5, kernel, stride=stride, rng=rng_for(90))
        up.bias.data[...] = signed_zeros(5, 91)
        blocks = []
        col2im = _ConvGeometry.col2im
        monkeypatch.setattr(_ConvGeometry, "col2im",
                            lambda geo, cols, channels, out=None: blocks.append(channels) or
                            col2im(geo, cols, channels, out))
        # sides of two pixels or more: a one-pixel input is the documented exception
        for draw, (h, w) in itertools.product((signed_zeros, special_values), [(1, 2), (2, 3), (4, 4), (7, 9)]):
            up.weight.data[...] = draw(up.weight.data.shape, 92)
            x = draw((n, 3, h, w), 93)
            for training in (False, True):
                with np.errstate(invalid="ignore"):
                    monkeypatch.setattr(layers, "COL_BLOCK", 2**62)
                    whole = up.forward(x, training)
                    force_blocks(monkeypatch, per_block, x.shape, kernel)
                    blocked = up.forward(x, training)
                assert blocked.tobytes() == whole.tobytes(), (draw.__name__, h, w, training)
                assert blocked.strides == whole.strides, (h, w)
                assert blocks == [5] + [per_block] * (5 // per_block) + [5 % per_block] * (5 % per_block > 0)
                blocks.clear()

    def test_eval_forward_memory_is_bounded_by_the_block(self):
        # the last transposed convolution of the default seg head at 256x128;
        # its one-matmul columns alone took 12 * 9 * 64 * 128 * 8 B = 7.1 MB
        up = TransposedConv2d(16, 12, 3, stride=2, rng=rng_for(94))
        x = rng_for(95).standard_normal((1, 16, 64, 128))
        padded = 12 * 129 * 257 * 8  # the output, padded by one row and column
        # a block's largest residue plane (3 channels of 73,728 column values a
        # block); the second leaves room for the in-place add's buffers
        plane = 3 * 65 * 129 * 8
        slack = 64 * 1024  # Python objects, views and array headers
        tracemalloc.start()
        try:
            up.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < padded + 8 * layers.COL_BLOCK + 2 * plane + slack, peak

    def test_col2im_holds_one_residue_plane_at_a_time(self):
        # the layer above, whose peak is then its padded output, one block's
        # columns, one residue plane, and the two buffers of numpy's
        # iterator in the in-place add of a tap: with two planes held at once
        # the peak was 66,848 B higher
        up = TransposedConv2d(16, 12, 3, stride=2, rng=rng_for(94))
        x = rng_for(95).standard_normal((1, 16, 64, 128))
        padded = 12 * 129 * 257 * 8
        columns = 3 * 9 * 64 * 128 * 8  # a block of 3 output channels
        plane = 3 * 65 * 129 * 8
        buffers = 2 * np.getbufsize() * 8
        slack = 32 * 1024  # Python objects, views and array headers
        tracemalloc.start()
        try:
            up.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < padded + columns + plane + buffers + slack, peak


class TestAlgebraicIdentities:
    def test_separable_equals_composition(self):
        rng = rng_for(1)
        sep = DepthwiseSeparableConv2d(3, 5, 3, dilation=2, rng=rng)
        depthwise = DepthwiseConv2d(3, 3, dilation=2, rng=rng_for(2))
        pointwise = Conv2d(3, 5, 1, rng=rng_for(3))
        depthwise.weight.data[...] = sep.depthwise.weight.data
        pointwise.weight.data[...] = sep.pointwise.weight.data
        pointwise.bias.data[...] = sep.pointwise.bias.data
        x = rng.standard_normal((2, 3, 7, 7))
        combined = pointwise.forward(depthwise.forward(x))
        assert np.array_equal(sep.forward(x), combined)

    def test_dilation_one_equals_plain_conv(self):
        rng = rng_for(4)
        dilated = Conv2d(2, 3, 3, dilation=1, rng=rng_for(5))
        plain = Conv2d(2, 3, 3, rng=rng_for(6))
        plain.weight.data[...] = dilated.weight.data
        plain.bias.data[...] = dilated.bias.data
        x = rng.standard_normal((1, 2, 6, 6))
        assert np.array_equal(dilated.forward(x), plain.forward(x))

    def test_transposed_is_adjoint_of_conv(self):
        # <conv(x), y> == <x, transposed(y)> for shared weights, zero bias
        rng = rng_for(7)
        conv = Conv2d(4, 3, 3, stride=2, bias=False, rng=rng_for(8))
        up = TransposedConv2d(3, 4, 3, stride=2, rng=rng_for(9))  # its bias starts at zero
        up.weight.data[...] = conv.weight.data
        x = rng.standard_normal((2, 4, 10, 10))
        y = rng.standard_normal((2, 3, 5, 5))
        lhs = float((conv.forward(x) * y).sum())
        rhs = float((x * up.forward(y)).sum())
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_maxpool_routes_to_argmax(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        pool = MaxPool2x2()
        y = pool.forward(x, training=True)
        assert y[0, 0, 0, 0] == 4.0
        dx = pool.backward(np.ones_like(y))
        expected = np.zeros_like(x)
        expected[0, 0, 1, 1] = 1.0
        assert np.array_equal(dx, expected)

    @pytest.mark.parametrize("training", [False, True])
    def test_maxpool_ties_take_the_first_maximum(self, training):
        x = tied_input()
        y = MaxPool2x2().forward(x, training)
        assert y[0, 0, 0, 0] == 1.5
        assert y[0, 1, 0, 0] == 0.0 and np.signbit(y[0, 1, 0, 0])  # the -0.0 that comes first
        pool = MaxPool2x2()
        pool.forward(x, training=True)
        dx = pool.backward(np.ones_like(y))
        assert np.flatnonzero(dx[0, 0, :2, :2]).tolist() == [0]
        assert np.flatnonzero(dx[0, 1, :2, :2]).tolist() == [0]

    def test_relu_masks(self):
        x = np.array([[[[-1.0, 2.0], [0.5, -3.0]]]])
        relu = ReLU()
        y = relu.forward(x, training=True)
        assert np.array_equal(y, np.array([[[[0.0, 2.0], [0.5, 0.0]]]]))
        dx = relu.backward(np.ones_like(x))
        assert np.array_equal(dx, np.array([[[[0.0, 1.0], [1.0, 0.0]]]]))

    @pytest.mark.parametrize("training", [False, True])
    def test_relu_values(self, training):
        # negatives and -0.0 give +0.0, +inf stays, and a NaN is passed on, not zeroed
        x = np.array([-1.0, -0.0, 0.0, 2.0, np.inf, -np.inf, np.nan]).reshape(1, 1, 1, 7)
        y = ReLU().forward(x, training)
        expected = np.array([0.0, 0.0, 0.0, 2.0, np.inf, 0.0, np.nan]).reshape(1, 1, 1, 7)
        assert np.array_equal(y, expected, equal_nan=True)
        assert not np.signbit(y[~np.isnan(y)]).any()

    def test_identity_conv_backward_of_sum_is_ones(self):
        # a 1x1 convolution with identity weights passes the all-ones
        # gradient of a plain sum straight through to its input
        conv = Conv2d(2, 2, 1, rng=rng_for(30))
        conv.weight.data[...] = np.eye(2).reshape(2, 2, 1, 1)
        conv.bias.data[...] = 0.0
        x = rng_for(31).standard_normal((1, 2, 4, 4))
        y = conv.forward(x, training=True)
        assert np.array_equal(y, x)
        dx = conv.backward(np.ones_like(y))
        assert np.array_equal(dx, np.ones_like(x))


class TestBatchNorm:
    def test_training_normalizes(self):
        rng = rng_for(11)
        bn = BatchNorm2d(3)
        x = rng.standard_normal((4, 3, 5, 5)) * 3 + 2
        y = bn.forward(x, training=True)
        assert y.mean(axis=(0, 2, 3)) == pytest.approx(np.zeros(3), abs=1e-10)
        assert y.var(axis=(0, 2, 3)) == pytest.approx(np.ones(3), rel=1e-3)

    def test_eval_uses_running_stats(self):
        rng = rng_for(12)
        bn = BatchNorm2d(2)
        for _ in range(200):
            bn.forward(rng.standard_normal((2, 2, 4, 4)) * 2 + 5, training=True)
        x = rng.standard_normal((1, 2, 4, 4)) * 2 + 5
        y = bn.forward(x, training=False)
        assert np.abs(y.mean()) < 0.5

    def test_frozen_training_matches_eval(self):
        rng = rng_for(13)
        bn = BatchNorm2d(2)
        bn.forward(rng.standard_normal((2, 2, 4, 4)), training=True)
        bn.frozen = True
        x = rng.standard_normal((1, 2, 4, 4))
        assert np.array_equal(bn.forward(x, training=True), bn.forward(x, training=False))

    def test_buffers_roundtrip(self):
        # the named buffers are the live running averages, updated in place
        bn = BatchNorm2d(2)
        buffers = dict(bn.named_buffers())
        assert sorted(buffers) == ["running_mean", "running_var"]
        buffers["running_mean"][...] = [1.0, 2.0]
        assert bn.running_mean.tolist() == [1.0, 2.0]
        x = rng_for(21).standard_normal((2, 2, 3, 3))
        bn.forward(x, training=True)
        expected = (1 - 0.1) * np.array([1.0, 2.0]) + 0.1 * x.mean(axis=(0, 2, 3))
        assert buffers["running_mean"] is bn.running_mean
        assert np.array_equal(buffers["running_mean"], expected)

    @pytest.mark.parametrize("shape", [(1, 3, 5, 7), (2, 2, 4, 4), (3, 4, 1, 9)])
    def test_batch_statistics_equal_numpy_mean_and_var(self, shape):
        # one pass over x - mean gives x.mean and x.var bit for bit, so the
        # running averages and the output are those of the two-call formula
        bn = BatchNorm2d(shape[1])
        x = rng_for(22).standard_normal(shape) * 3.0 + 1.5
        y = bn.forward(x, training=True)
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        assert np.array_equal(bn.running_mean, 0.9 * np.zeros(shape[1]) + 0.1 * mean)
        assert np.array_equal(bn.running_var, 0.9 * np.ones(shape[1]) + 0.1 * var)
        xhat = (x - mean[None, :, None, None]) * (1.0 / np.sqrt(var + bn.eps))[None, :, None, None]
        assert y.tobytes() == (xhat * 1.0 + 0.0).tobytes()


class TestGradients:
    def test_every_layer_matches_finite_differences(self):
        for name, err, ok in check_layer_gradients(instances=3, seed=42):
            assert ok, f"{name}: max relative error {err:.3e}"

    def test_sequential_backward_chains(self):
        rng = rng_for(14)
        seq = Sequential([
            Conv2d(2, 3, 3, rng=rng_for(15)),
            BatchNorm2d(3),
            ReLU(),
            Conv2d(3, 2, 1, rng=rng_for(16)),
        ])
        x = rng.standard_normal((1, 2, 5, 5))
        weight = rng.standard_normal(seq.forward(x, training=True).shape)

        def value():
            return float((seq.forward(x, training=True) * weight).sum())

        seq.forward(x, training=True)
        dx = seq.backward(weight.copy())
        fd = finite_difference(value, x)
        assert gradients_close(dx, fd)

    def test_residual_projection_path(self):
        rng = rng_for(17)
        block = ResidualBlock(2, 4, rng=rng_for(18))
        x = rng.standard_normal((1, 2, 4, 4))
        y = block.forward(x, training=True)
        assert y.shape == (1, 4, 4, 4)
        assert block.project is not None

    def test_residual_identity_path(self):
        block = ResidualBlock(3, 3, rng=rng_for(19))
        assert block.project is None


def inner(a, b):
    return float(np.dot(a.reshape(-1), b.reshape(-1)))


def assert_adjoint(layer, x):
    """``<L(x), dy> == <x, dL/dx> == <w, dL/dw>`` for a linear layer L with no bias."""
    y = layer.forward(x, training=True)
    dy = rng_for(60).standard_normal(y.shape)
    layer.weight.grad[...] = 0.0
    dx = layer.backward(dy)
    out = inner(y, dy)
    assert inner(x, dx) == pytest.approx(out, rel=1e-12)
    assert inner(layer.weight.data, layer.weight.grad) == pytest.approx(out, rel=1e-12)


class TestAdjoints:
    # exact up to rounding for a linear layer, where finite differences only reach 1e-4
    @pytest.mark.parametrize("case", CONV_CASES)
    def test_conv(self, case):
        c_in, c_out, k, stride, dilation, h, w = case
        conv = Conv2d(c_in, c_out, k, stride=stride, dilation=dilation, bias=False, rng=rng_for(61))
        assert_adjoint(conv, rng_for(62).standard_normal((2, c_in, h, w)))

    @pytest.mark.parametrize("dilation, h, w", [(1, 5, 7), (2, 7, 5), (3, 9, 7)])
    def test_depthwise(self, dilation, h, w):
        depthwise = DepthwiseConv2d(3, 3, dilation=dilation, rng=rng_for(63))
        assert_adjoint(depthwise, rng_for(64).standard_normal((2, 3, h, w)))

    def test_transposed(self):
        up = TransposedConv2d(3, 2, 3, stride=2, rng=rng_for(65))  # its bias starts at zero
        assert_adjoint(up, rng_for(66).standard_normal((2, 3, 3, 5)))


LEAVES = {
    "conv": lambda: Conv2d(2, 3, 3, rng=rng_for(40)),
    "conv1x1": lambda: Conv2d(2, 3, 1, rng=rng_for(44)),
    "depthwise": lambda: DepthwiseConv2d(2, 3, rng=rng_for(41)),
    "transposed": lambda: TransposedConv2d(2, 3, 3, stride=2, rng=rng_for(42)),
    "maxpool": MaxPool2x2,
    "relu": ReLU,
    "batchnorm": lambda: BatchNorm2d(2),
}


class TestInferenceKeepsNoCache:
    @pytest.mark.parametrize("kind", sorted(LEAVES))
    def test_backward_needs_the_last_forward_to_be_training(self, kind):
        layer = LEAVES[kind]()
        x = tied_input()
        y = layer.forward(x)
        needs_training = f"{type(layer).__name__}.backward needs a forward with training=True"
        with pytest.raises(RuntimeError, match=needs_training):
            layer.backward(np.ones_like(y))
        layer.forward(x, training=True)
        layer.backward(np.ones_like(y))
        # an eval forward clears the training forward's cache, so it cannot go stale
        layer.forward(x)
        assert layer._cache is None
        with pytest.raises(RuntimeError, match="training=True"):
            layer.backward(np.ones_like(y))
        # the two modes compute the same values, bit for bit (signed zeros
        # included), once batch norm is frozen to its running statistics
        if isinstance(layer, BatchNorm2d):
            layer.frozen = True
        assert layer.forward(x).tobytes() == layer.forward(x, training=True).tobytes()


LAYERS = {
    **LEAVES,
    "residual": lambda: ResidualBlock(2, 2, rng=rng_for(45)),
    "residual_projection": lambda: ResidualBlock(2, 3, rng=rng_for(46)),
}


class TestInputsAreNotWritten:
    # a 1x1 convolution caches a view of its input, so an in-place write into
    # a layer's input would corrupt the weight gradient of the layer before it
    @pytest.mark.parametrize("kind", sorted(LAYERS))
    def test_forward_and_backward_leave_their_inputs(self, kind):
        layer = LAYERS[kind]()
        x = tied_input()
        x_before = x.copy()
        y = layer.forward(x, training=True)
        dy = rng_for(47).standard_normal(y.shape)
        dy_before = dy.copy()
        layer.backward(dy)
        assert x.tobytes() == x_before.tobytes()
        assert dy.tobytes() == dy_before.tobytes()
        layer.forward(x)
        assert x.tobytes() == x_before.tobytes()


class TestParamNaming:
    def test_named_params_are_unique_and_stable(self):
        block = ResidualBlock(2, 3, rng=rng_for(20))
        names = [name for name, _ in block.named_params()]
        assert len(names) == len(set(names))
        assert "conv1.depthwise.weight" in names
        assert "bn2.gamma" in names
