"""Polygon annotations and their conversion to detection ground truth.

The on-disk format is a minimal JSON document per image: image dimensions
plus a list of labeled polygons with instance ids (see docs/FORMATS.md).
Bounding boxes are the min/max of the polygon vertices.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Optional

from ..assign import GroundTruthObject
from ..geom import BBox
from ..net.checkpoint import write_atomic
from .classtable import ClassTable

__all__ = ["PolygonObject", "AnnotationFile", "load_annotation", "save_annotation", "boxes_from_polygons"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PolygonObject:
    label: str
    polygon: tuple[tuple[float, float], ...]
    instance_id: int
    occlusion: Optional[int] = None
    truncation: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.polygon:
            raise ValueError(f"polygon of {self.label!r} is empty")


@dataclass(frozen=True)
class AnnotationFile:
    image_width: int
    image_height: int
    objects: tuple[PolygonObject, ...]

    def __post_init__(self) -> None:
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError(f"invalid image size {self.image_width}x{self.image_height}")
        ids = [o.instance_id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError(f"instance ids must be unique, got {ids}")

    def to_json(self) -> dict:
        objects = []
        for o in self.objects:
            entry = {
                "label": o.label,
                "polygon": [[float(x), float(y)] for x, y in o.polygon],
                "instance_id": o.instance_id,
            }
            if o.occlusion is not None:
                entry["occlusion"] = o.occlusion
            if o.truncation is not None:
                entry["truncation"] = o.truncation
            objects.append(entry)
        return {
            "image_width": self.image_width,
            "image_height": self.image_height,
            "objects": objects,
        }

    @classmethod
    def from_json(cls, data: dict) -> "AnnotationFile":
        try:
            objects = tuple(
                PolygonObject(
                    label=str(entry["label"]),
                    polygon=tuple((float(x), float(y)) for x, y in entry["polygon"]),
                    instance_id=int(entry["instance_id"]),
                    occlusion=int(entry["occlusion"]) if "occlusion" in entry else None,
                    truncation=float(entry["truncation"]) if "truncation" in entry else None,
                )
                for entry in data["objects"]
            )
            return cls(
                image_width=int(data["image_width"]),
                image_height=int(data["image_height"]),
                objects=objects,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed annotation: {exc}") from exc


def load_annotation(path: str) -> AnnotationFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed annotation JSON in {path}: {exc}") from exc
    return AnnotationFile.from_json(data)


def save_annotation(path: str, ann: AnnotationFile) -> None:
    """Serialise first, then write atomically: a failure leaves any existing file as it was."""
    write_atomic(path, (json.dumps(ann.to_json(), indent=1) + "\n").encode("utf-8"))


def boxes_from_polygons(ann: AnnotationFile, table: ClassTable) -> list[GroundTruthObject]:
    """Extract detection ground truth from polygon annotations.

    The box is the min/max of the vertex coordinates. Labels must exist in
    the class table; labels that are not detection classes are skipped.
    Boxes of zero width or height are dropped (counted in a warning).
    """
    out: list[GroundTruthObject] = []
    dropped = 0
    for obj in ann.objects:
        if obj.label not in table.names:
            raise ValueError(f"unknown label {obj.label!r} (known: {list(table.names)})")
        if obj.label not in table.detection:
            continue
        xs = [p[0] for p in obj.polygon]
        ys = [p[1] for p in obj.polygon]
        bbox = BBox(min(xs), min(ys), max(xs), max(ys))
        if bbox.area <= 0:
            dropped += 1
            continue
        out.append(
            GroundTruthObject(
                class_id=table.detection_id_of(obj.label),
                bbox=bbox,
                instance_id=obj.instance_id,
                occlusion=obj.occlusion,
                truncation=obj.truncation,
            )
        )
    if dropped:
        log.warning("boxes_from_polygons: dropped %d degenerate (zero-area) polygon(s)", dropped)
    return out
