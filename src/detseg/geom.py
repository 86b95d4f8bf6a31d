"""Box algebra, IoU computation, anchor lattices, and box-delta codecs.

Coordinate convention: continuous pixel coordinates with the origin at the
top-left image corner and max-exclusive box edges, so ``width = x_max - x_min``
and ``area = width * height`` are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "BBox",
    "AnchorTemplate",
    "AnchorGrid",
    "LOG_SIZE_CLAMP",
    "iou",
    "iou_pairs",
    "iou_matrix",
    "make_anchor_grid",
    "encode",
    "decode",
    "encode_array",
    "decode_array",
    "anchor_preset",
    "preset_names",
    "templates_from_json",
]

# Log-ratios are clamped here before exponentiation so an untrained network
# cannot decode to infinite box sizes.
LOG_SIZE_CLAMP = 10.0


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box. Degenerate (zero width/height) boxes are allowed."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min <= self.x_max and self.y_min <= self.y_max):
            raise ValueError(f"box corners out of order: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_array(self) -> np.ndarray:
        return np.array([self.x_min, self.y_min, self.x_max, self.y_max], dtype=np.float64)


@dataclass(frozen=True)
class AnchorTemplate:
    """An anchor shape given as width/height ratio and box area in pixels^2."""

    ratio: float
    area: float

    def __post_init__(self) -> None:
        if self.ratio <= 0 or self.area <= 0:
            raise ValueError(f"ratio and area must be positive: {self}")

    @property
    def width(self) -> float:
        return math.sqrt(self.area * self.ratio)

    @property
    def height(self) -> float:
        return math.sqrt(self.area / self.ratio)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when the union has zero area."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_pairs(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """IoU of float64 ``(..., 4)`` box arrays that broadcast against each other.

    One value per broadcast pair; 0.0 where the union has zero area.
    """
    iw = np.minimum(a[..., 2], g[..., 2]) - np.maximum(a[..., 0], g[..., 0])
    ih = np.minimum(a[..., 3], g[..., 3]) - np.maximum(a[..., 1], g[..., 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_g = (g[..., 2] - g[..., 0]) * (g[..., 3] - g[..., 1])
    union = area_a + area_g - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def iou_matrix(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pairwise IoU matrix of float64 (N, 4) and (M, 4) box arrays, shape (N, M)."""
    return iou_pairs(a[:, None], g[None])


@dataclass(frozen=True)
class AnchorGrid:
    """The fixed anchor lattice over one feature map.

    Anchor ``(row, col, t)`` is centered at ``((col + 0.5) * stride,
    (row + 0.5) * stride)`` and stored at flat index
    ``(row * cols + col) * T + t``. Anchors may extend beyond the image;
    they are flagged in ``outside``, never clipped.
    """

    stride: int
    rows: int
    cols: int
    templates: tuple[AnchorTemplate, ...]
    boxes: np.ndarray = field(repr=False)
    outside: np.ndarray = field(repr=False)
    image_w: int
    image_h: int

    def __len__(self) -> int:
        return self.boxes.shape[0]

    def anchor_index(self, row: int, col: int, t: int) -> int:
        return (row * self.cols + col) * len(self.templates) + t

    def box(self, index: int) -> BBox:
        x0, y0, x1, y1 = self.boxes[index]
        return BBox(float(x0), float(y0), float(x1), float(y1))


def make_anchor_grid(
    image_w: int,
    image_h: int,
    stride: int,
    templates: Sequence[AnchorTemplate],
) -> AnchorGrid:
    """Build the full anchor lattice for an image of the given size."""
    if image_w <= 0 or image_h <= 0:
        raise ValueError(f"image dimensions must be positive, got {image_w}x{image_h}")
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    if not templates:
        raise ValueError("at least one anchor template is required")
    rows = -(-image_h // stride)
    cols = -(-image_w // stride)
    t = len(templates)

    cx = (np.arange(cols, dtype=np.float64) + 0.5) * stride
    cy = (np.arange(rows, dtype=np.float64) + 0.5) * stride
    half_w = np.array([0.5 * tpl.width for tpl in templates])
    half_h = np.array([0.5 * tpl.height for tpl in templates])

    boxes = np.empty((rows, cols, t, 4), dtype=np.float64)
    boxes[..., 0] = cx[None, :, None] - half_w[None, None, :]
    boxes[..., 1] = cy[:, None, None] - half_h[None, None, :]
    boxes[..., 2] = cx[None, :, None] + half_w[None, None, :]
    boxes[..., 3] = cy[:, None, None] + half_h[None, None, :]
    boxes = boxes.reshape(rows * cols * t, 4)

    outside = (
        (boxes[:, 0] < 0.0)
        | (boxes[:, 1] < 0.0)
        | (boxes[:, 2] > image_w)
        | (boxes[:, 3] > image_h)
    )
    return AnchorGrid(
        stride=stride,
        rows=rows,
        cols=cols,
        templates=tuple(templates),
        boxes=boxes,
        outside=outside,
        image_w=image_w,
        image_h=image_h,
    )


def encode_array(anchors: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Vectorized delta encoding for aligned (N, 4) anchor/gt arrays."""
    a = np.asarray(anchors, dtype=np.float64)
    g = np.asarray(gts, dtype=np.float64)
    wa = a[..., 2] - a[..., 0]
    ha = a[..., 3] - a[..., 1]
    wg = g[..., 2] - g[..., 0]
    hg = g[..., 3] - g[..., 1]
    if np.any(wa <= 0) or np.any(ha <= 0) or np.any(wg <= 0) or np.any(hg <= 0):
        raise ValueError("encode requires positive anchor and gt sizes")
    out = np.empty(a.shape, dtype=np.float64)
    out[..., 0] = (0.5 * (g[..., 0] + g[..., 2]) - 0.5 * (a[..., 0] + a[..., 2])) / wa
    out[..., 1] = (0.5 * (g[..., 1] + g[..., 3]) - 0.5 * (a[..., 1] + a[..., 3])) / ha
    out[..., 2] = np.log(wg / wa)
    out[..., 3] = np.log(hg / ha)
    return out


def decode_array(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Vectorized inverse of :func:`encode_array`; log sizes clamped to +-10."""
    a = np.asarray(anchors, dtype=np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    wa = a[..., 2] - a[..., 0]
    ha = a[..., 3] - a[..., 1]
    if np.any(wa <= 0) or np.any(ha <= 0):
        raise ValueError("decode requires positive anchor sizes")
    cx = 0.5 * (a[..., 0] + a[..., 2]) + d[..., 0] * wa
    cy = 0.5 * (a[..., 1] + a[..., 3]) + d[..., 1] * ha
    w = wa * np.exp(np.clip(d[..., 2], -LOG_SIZE_CLAMP, LOG_SIZE_CLAMP))
    h = ha * np.exp(np.clip(d[..., 3], -LOG_SIZE_CLAMP, LOG_SIZE_CLAMP))
    out = np.empty(a.shape, dtype=np.float64)
    out[..., 0] = cx - 0.5 * w
    out[..., 1] = cy - 0.5 * h
    out[..., 2] = cx + 0.5 * w
    out[..., 3] = cy + 0.5 * h
    return out


def encode(anchor: BBox, gt: BBox) -> np.ndarray:
    """The regression offsets ``(tx, ty, tw, th)`` of a ground-truth box relative to an anchor."""
    return encode_array(anchor.as_array(), gt.as_array())


def decode(anchor: BBox, delta: np.ndarray) -> BBox:
    """Apply length-4 regression offsets to an anchor. Exact inverse of :func:`encode`."""
    x0, y0, x1, y1 = decode_array(anchor.as_array(), delta)
    return BBox(float(x0), float(y0), float(x1), float(y1))


_FULL_RATIOS = (0.25, 0.5, 1.0, 2.0, 4.0)
_FULL_AREAS = (
    32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072,
    4096, 6144, 8192, 12288, 16384, 24576, 32768, 49152, 65536, 98304,
    131072, 196608, 262144, 393216, 524288,
)

_TOY_RATIOS = (0.5, 1.0, 2.0)
_TOY_AREAS = (64, 128, 256, 512, 1024)


def _product_templates(ratios: Sequence[float], areas: Sequence[float]) -> tuple[AnchorTemplate, ...]:
    return tuple(AnchorTemplate(ratio=r, area=float(a)) for r in ratios for a in areas)


_PRESETS = {
    "paper-table1": _product_templates(_FULL_RATIOS, _FULL_AREAS),
    "toy": _product_templates(_TOY_RATIOS, _TOY_AREAS),
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def anchor_preset(name: str) -> tuple[AnchorTemplate, ...]:
    """Named anchor template sets; "paper-table1" is the 5 x 29 default."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown anchor preset {name!r}; choose from {sorted(_PRESETS)}") from None


def templates_from_json(data: Sequence[Mapping]) -> tuple[AnchorTemplate, ...]:
    """Templates from their JSON form, a list of ``{"ratio": r, "area": a}``.

    ``data`` must already satisfy ``pipeline.config.TEMPLATES_SCHEMA``.
    """
    return tuple(AnchorTemplate(ratio=float(e["ratio"]), area=float(e["area"])) for e in data)

