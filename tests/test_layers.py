import numpy as np
import pytest

from detseg.net.layers import (
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
from detseg.oracles import conv2d_oracle, depthwise_oracle, finite_difference, gradients_close
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

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("dilation, h, w", [(1, 5, 7), (2, 6, 5), (3, 8, 9)])
    def test_depthwise_matches_direct_loop(self, dilation, h, w, training):
        depthwise = DepthwiseConv2d(3, 3, dilation=dilation, rng=rng_for(53))
        x = rng_for(54).standard_normal((2, 3, h, w))
        expected = depthwise_oracle(x, depthwise.weight.data, dilation)
        np.testing.assert_allclose(depthwise.forward(x, training), expected, rtol=0, atol=1e-12)


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
        block = ResidualBlock(2, 4, conv_kind="full", rng=rng_for(18))
        x = rng.standard_normal((1, 2, 4, 4))
        y = block.forward(x, training=True)
        assert y.shape == (1, 4, 4, 4)
        assert block.project is not None

    def test_residual_identity_path(self):
        block = ResidualBlock(3, 3, rng=rng_for(19))
        assert block.project is None


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
    "residual_projection": lambda: ResidualBlock(2, 3, conv_kind="full", rng=rng_for(46)),
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
