"""The backbone / two-head architecture at configurable desk scale.

The backbone downsamples by exactly 8 (one stride-2 stem convolution plus two
2x2 max poolings) and then keeps resolution, widening the receptive field
with dilated convolutions. The segmentation head restores full resolution
through three stride-2 transposed convolutions; the detection head splits
into four sibling sub-networks predicting, per anchor template and feature
cell: a two-way objectness score, a class score, four box regression deltas,
and an embedding vector.

Head channel layout: for ``T`` templates and a per-anchor width ``K`` the
output channel ``t * K + k`` holds component ``k`` of template ``t``. The
flat anchor index matching :class:`~detseg.geom.AnchorGrid` is
``(row * cols + col) * T + t``; :func:`flatten_per_anchor` converts between
the two orderings. Objectness channel pairs are (background, foreground).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .layers import (
    BatchNorm2d,
    Conv2d,
    Layer,
    MaxPool2x2,
    ReLU,
    ResidualBlock,
    Sequential,
    TransposedConv2d,
)
from .tensor import Tensor, as_data

__all__ = [
    "ModelConfig",
    "DetSegModel",
    "HEAD_NAMES",
    "flatten_per_anchor",
    "unflatten_per_anchor",
]

HEAD_NAMES = ("objectness", "class_scores", "box_deltas", "embeddings")
DOWNSAMPLE = 8
_SIZE_FIELDS = ("num_classes", "num_object_classes", "embedding_dim", "anchors_per_cell")


@dataclass(frozen=True)
class ModelConfig:
    """Channel widths and block counts; small defaults train in minutes on CPU."""

    num_classes: int = 3
    num_object_classes: int = 2
    embedding_dim: int = 4
    anchors_per_cell: int = 15
    stem_channels: int = 16
    stage_channels: tuple[int, int, int] = (16, 24, 32)
    stage_blocks: tuple[int, int, int] = (1, 1, 2)
    dilation: int = 2
    seg_head_channels: tuple[int, int, int] = (24, 16, 12)
    det_channels: int = 32
    conv_kind: str = "separable"

    def __post_init__(self) -> None:
        if self.num_classes < 2 or self.num_object_classes < 1:
            raise ValueError("need at least 2 segmentation classes and 1 object class")
        if self.embedding_dim < 1 or self.anchors_per_cell < 1:
            raise ValueError("embedding_dim and anchors_per_cell must be positive")
        if len(self.stage_channels) != 3 or len(self.stage_blocks) != 3 or len(self.seg_head_channels) != 3:
            raise ValueError("stage_channels, stage_blocks and seg_head_channels must have length 3")
        if self.conv_kind not in ("separable", "full"):
            raise ValueError(f"unknown conv_kind {self.conv_kind!r}")

    def head_widths(self) -> dict[str, int]:
        t = self.anchors_per_cell
        return {
            "objectness": 2 * t,
            "class_scores": self.num_object_classes * t,
            "box_deltas": 4 * t,
            "embeddings": self.embedding_dim * t,
        }

    def to_dict(self) -> dict:
        """Every field by name, tuples as lists (the JSON form)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelConfig":
        """Inverse of :meth:`to_dict`; the size fields are required, the others default.

        Each value is converted to the type of its field's default (int, tuple
        or str); a missing size field raises KeyError.
        """
        return cls(**{f.name: type(f.default)(data[f.name]) for f in fields(cls)
                      if f.name in _SIZE_FIELDS or f.name in data})


def flatten_per_anchor(head: np.ndarray, templates: int) -> np.ndarray:
    """(K*T, H, W) head output -> (H*W*T, K) rows in flat anchor order."""
    c, h, w = head.shape
    if c % templates:
        raise ValueError(f"channel count {c} is not a multiple of T={templates}")
    k = c // templates
    return head.reshape(templates, k, h, w).transpose(2, 3, 0, 1).reshape(h * w * templates, k)


def unflatten_per_anchor(rows: np.ndarray, templates: int, grid_rows: int, grid_cols: int) -> np.ndarray:
    """Inverse of :func:`flatten_per_anchor`."""
    k = rows.shape[1]
    return (
        rows.reshape(grid_rows, grid_cols, templates, k)
        .transpose(2, 3, 0, 1)
        .reshape(templates * k, grid_rows, grid_cols)
    )


def _blocks(in_ch: int, out_ch: int, count: int, dilation: int, kind: str,
            rng: np.random.Generator) -> list[Layer]:
    layers: list[Layer] = []
    for i in range(count):
        layers.append(ResidualBlock(in_ch if i == 0 else out_ch, out_ch,
                                    dilation=dilation, conv_kind=kind, rng=rng))
    return layers


class DetSegModel(Layer):
    """Backbone plus segmentation and detection heads, with reverse-mode grads.

    The model is the root of the layer tree: its children are ``backbone``,
    ``seg_head``, ``det_trunk`` and ``head_<name>`` per detection head, so
    parameter, buffer and checkpoint names are the dotted paths of
    :meth:`Layer.walk`, for example ``backbone.1.bn1.running_var``.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        c1, c2, c3 = config.stage_channels
        n1, n2, n3 = config.stage_blocks
        kind = config.conv_kind

        self.backbone = Sequential(
            [Conv2d(3, config.stem_channels, 3, stride=2, rng=rng)]
            + _blocks(config.stem_channels, c1, n1, 1, kind, rng)
            + [MaxPool2x2()]
            + _blocks(c1, c2, n2, 1, kind, rng)
            + [MaxPool2x2()]
            + _blocks(c2, c3, n3, config.dilation, kind, rng)
            + [BatchNorm2d(c3), ReLU()]
        )

        s1, s2, s3 = config.seg_head_channels
        self.seg_head = Sequential(
            _blocks(c3, c3, 3, config.dilation, kind, rng)
            + [
                TransposedConv2d(c3, s1, 3, stride=2, rng=rng), BatchNorm2d(s1), ReLU(),
                TransposedConv2d(s1, s2, 3, stride=2, rng=rng), BatchNorm2d(s2), ReLU(),
                TransposedConv2d(s2, s3, 3, stride=2, rng=rng), BatchNorm2d(s3), ReLU(),
                Conv2d(s3, config.num_classes, 1, rng=rng),
            ]
        )

        self.det_trunk = Sequential(_blocks(c3, c3, 3, config.dilation, kind, rng))
        dc = config.det_channels
        self.det_heads = {
            name: Sequential(
                _blocks(c3, dc, 2, config.dilation, kind, rng)
                + [BatchNorm2d(dc), ReLU(), Conv2d(dc, width, 1, rng=rng)]
            )
            for name, width in config.head_widths().items()
        }

    def children(self):
        heads = [(f"head_{name}", seq) for name, seq in self.det_heads.items()]
        return [("backbone", self.backbone), ("seg_head", self.seg_head), ("det_trunk", self.det_trunk)] + heads

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad[...] = 0.0

    def freeze_batchnorm_stats(self) -> None:
        """Make every BatchNorm use its running averages from now on.

        Training after the freeze adapts the network to exactly the
        statistics inference will see; essential for single-image batches.
        """
        for _, layer in self.walk():
            if isinstance(layer, BatchNorm2d):
                layer.frozen = True

    def state_tensors(self) -> dict[str, np.ndarray]:
        """The live parameter and buffer arrays by name, parameters first."""
        state = {name: p.data for name, p in self.named_params()}
        state.update(self.named_buffers())
        return state

    def load_state(self, tensors: Mapping[str, np.ndarray]) -> None:
        """Copy every parameter and buffer in by name; extra entries are ignored."""
        for name, target in self.state_tensors().items():
            if name not in tensors:
                raise KeyError(f"missing tensor {name!r}")
            value = np.asarray(tensors[name], dtype=np.float64)
            if value.shape != target.shape:
                raise ValueError(f"tensor {name!r} has shape {value.shape}, expected {target.shape}")
            target[...] = value

    # -- forward / backward -------------------------------------------------

    def forward(self, images, training: bool = False) -> dict[str, Tensor]:
        x = as_data(images)
        if x.ndim != 4 or x.shape[1] != 3:
            raise ValueError(f"expected N x 3 x H x W input, got shape {x.shape}")
        n, _, h, w = x.shape
        if h % DOWNSAMPLE or w % DOWNSAMPLE:
            raise ValueError(f"input spatial dims must be divisible by {DOWNSAMPLE}, got {h}x{w}")

        features = self.backbone.forward(x, training)
        assert features.shape[2:] == (h // DOWNSAMPLE, w // DOWNSAMPLE)
        seg = self.seg_head.forward(features, training)
        trunk = self.det_trunk.forward(features, training)
        outputs = {"seg_logits": seg}
        for name, head in self.det_heads.items():
            outputs[name] = head.forward(trunk, training)
        self._cache = ({k: v.shape for k, v in outputs.items()}, trunk.shape) if training else None
        return {k: Tensor(v) for k, v in outputs.items()}

    def backward(self, upstream: Mapping[str, np.ndarray]) -> np.ndarray:
        """Propagate loss gradients on the head outputs back to every parameter.

        Missing heads are treated as zero upstream gradient. Returns the
        gradient with respect to the input images. Needs a preceding forward
        with ``training=True``.
        """
        out_shapes, trunk_shape = self._saved()
        for key, g in upstream.items():
            if key not in out_shapes:
                raise KeyError(f"unknown head {key!r}")
            if np.shape(as_data(g)) != out_shapes[key]:
                raise ValueError(
                    f"upstream gradient for {key!r} has shape {np.shape(as_data(g))}, "
                    f"expected {out_shapes[key]}"
                )

        dtrunk = np.zeros(trunk_shape, dtype=np.float64)
        for name, head in self.det_heads.items():
            if name in upstream:
                dtrunk += head.backward(as_data(upstream[name]))
        dfeatures = self.det_trunk.backward(dtrunk)
        if "seg_logits" in upstream:
            dfeatures = dfeatures + self.seg_head.backward(as_data(upstream["seg_logits"]))
        return self.backbone.backward(dfeatures)
