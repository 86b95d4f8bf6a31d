"""Synthetic desk-scale scenes: colored shapes on a textured background.

Scenes are deterministic per seed. Objects never overlap, so the label map,
instance map, polygon annotation and bounding boxes are all exact by
construction. Shapes are drawn per class: "rect" classes render axis-aligned
rectangles, everything else ellipses (with the four axis-extreme vertices in
the polygon, so the polygon bounding box equals the true one). The boxes
come from the polygons through :func:`boxes_from_polygons`, as they do for
an annotation read from disk. The scenes' classes are those of
:func:`synthetic_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..assign import GroundTruthObject
from ..net.tensor import Tensor
from .annotations import boxes_from_polygons

__all__ = ["GAP", "MAX_OBJECTS", "SceneSpec", "SceneSample", "synthetic_table", "synth_scene", "make_dataset"]

# The clear pixels between an object and the image border or another object.
GAP = 2
# The most objects a scene holds: instance maps are 8-bit with 0 for background.
MAX_OBJECTS = 255

_PLACEMENT_TRIES = 500
_ELLIPSE_VERTICES = 32

# Saturated, well-separated object colors (RGB in [0, 1]).
_PALETTE = np.array([
    (0.85, 0.15, 0.15),
    (0.15, 0.45, 0.85),
    (0.95, 0.75, 0.10),
    (0.20, 0.70, 0.30),
    (0.70, 0.25, 0.75),
    (0.95, 0.45, 0.10),
    (0.10, 0.75, 0.75),
    (0.90, 0.30, 0.55),
])


def synthetic_table() -> dict:
    """The class table document of the synthetic scenes, as ``synth`` writes it."""
    return {
        "names": ["background", "rect", "ellipse"],
        "instanceable": ["ellipse", "rect"],
        "detection": ["rect", "ellipse"],
        "categories": {"background": ["background"], "shape": ["rect", "ellipse"]},
    }


@dataclass(frozen=True)
class SceneSpec:
    width: int = 64
    height: int = 64
    min_objects: int = 1
    max_objects: int = 3
    min_size: int = 10
    max_size: int = 22

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"invalid scene size {self.width}x{self.height}")
        if not (0 <= self.min_objects <= self.max_objects <= MAX_OBJECTS):
            raise ValueError(f"need 0 <= min_objects <= max_objects <= {MAX_OBJECTS}")
        if not (2 <= self.min_size <= self.max_size):
            raise ValueError("need 2 <= min_size <= max_size")
        if self.max_size + 2 * GAP >= min(self.width, self.height):
            raise ValueError("objects do not fit in the image")


@dataclass
class SceneSample:
    image: Tensor                  # (3, H, W) float64 in [0, 1]
    label_map: Tensor              # (H, W) uint8 class ids
    instance_map: np.ndarray       # (H, W) uint8, 0 = background, else instance id
    gts: list[GroundTruthObject]
    annotation: dict               # the annotation document, as save_annotation writes it


def _textured_background(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    base = rng.uniform(0.35, 0.55, size=3)
    # 8x8 texture cells, the last row and column cut at the image edge
    coarse = rng.uniform(-0.06, 0.06, size=(3, -(-h // 8), -(-w // 8)))
    texture = np.kron(coarse, np.ones((8, 8)))[:, :h, :w]
    ramp = np.linspace(-0.05, 0.05, w)[None, None, :]
    return np.clip(base[:, None, None] + texture + ramp, 0.0, 1.0)


def _place_boxes(rng: np.random.Generator, spec: SceneSpec, count: int) -> list[tuple[int, int, int, int]]:
    placed: list[tuple[int, int, int, int]] = []
    for _ in range(count):
        for _ in range(_PLACEMENT_TRIES):
            w = int(rng.integers(spec.min_size, spec.max_size + 1))
            h = int(rng.integers(spec.min_size, spec.max_size + 1))
            x0 = int(rng.integers(GAP, spec.width - GAP - w + 1))
            y0 = int(rng.integers(GAP, spec.height - GAP - h + 1))
            candidate = (x0, y0, x0 + w, y0 + h)
            clear = all(
                candidate[2] + GAP <= other[0]
                or other[2] + GAP <= candidate[0]
                or candidate[3] + GAP <= other[1]
                or other[3] + GAP <= candidate[1]
                for other in placed
            )
            if clear:
                placed.append(candidate)
                break
        else:
            raise ValueError(
                f"could not place {count} objects of size <= {spec.max_size} "
                f"in a {spec.width}x{spec.height} image"
            )
    return placed


def synth_scene(seed, spec: SceneSpec = SceneSpec()) -> SceneSample:
    """Render one deterministic scene; ``seed`` may be an int or a sequence."""
    table = synthetic_table()
    rng = np.random.default_rng(seed)
    h, w = spec.height, spec.width

    image = _textured_background(rng, h, w)
    labels = np.zeros((h, w), dtype=np.uint8)
    instances = np.zeros((h, w), dtype=np.uint8)

    count = int(rng.integers(spec.min_objects, spec.max_objects + 1))
    boxes = _place_boxes(rng, spec, count)
    px = np.arange(w, dtype=np.float64) + 0.5
    py = np.arange(h, dtype=np.float64) + 0.5

    objects: list[dict] = []
    for idx, (x0, y0, x1, y1) in enumerate(boxes):
        instance_id = idx + 1
        name = table["detection"][int(rng.integers(0, len(table["detection"])))]
        color = _PALETTE[idx % len(_PALETTE)] * rng.uniform(0.8, 1.0)

        if name == "rect":
            mask = np.zeros((h, w), dtype=bool)
            mask[y0:y1, x0:x1] = True
            polygon = [[float(x0), float(y0)], [float(x1), float(y0)],
                       [float(x1), float(y1)], [float(x0), float(y1)]]
        else:
            cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            a, b = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
            mask = ((px[None, :] - cx) / a) ** 2 + ((py[:, None] - cy) / b) ** 2 <= 1.0
            angles = [2.0 * math.pi * k / _ELLIPSE_VERTICES for k in range(_ELLIPSE_VERTICES)]
            polygon = [[cx + a * math.cos(t), cy + b * math.sin(t)] for t in angles]

        image[:, mask] = color[:, None]
        labels[mask] = table["names"].index(name)
        instances[mask] = instance_id
        objects.append({"label": name, "polygon": polygon, "instance_id": instance_id})

    annotation = {"image_width": w, "image_height": h, "objects": objects}
    return SceneSample(
        image=Tensor(image),
        label_map=Tensor(labels),
        instance_map=instances,
        gts=boxes_from_polygons(annotation, table),
        annotation=annotation,
    )


def make_dataset(seed: int, count: int, spec: SceneSpec = SceneSpec()) -> list[SceneSample]:
    """A list of independent scenes; scene ``i`` is seeded with (seed, i)."""
    return [synth_scene((seed, i), spec) for i in range(count)]
