"""Polygon annotations and their conversion to detection ground truth.

The on-disk format is a minimal JSON document per image: image dimensions
plus a list of labeled polygons with instance ids (see docs/FORMATS.md).
Bounding boxes are the min/max of the polygon vertices.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass
from typing import Optional

from ..assign import GroundTruthObject
from ..geom import BBox
from ..net.checkpoint import write_atomic
from .classtable import ClassTable

__all__ = ["PolygonObject", "AnnotationFile", "load_annotation", "save_annotation", "boxes_from_polygons"]

log = logging.getLogger(__name__)

# the largest id or image size an int64 holds
_MAX_INT = 2**63 - 1


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
    def from_json(cls, data) -> "AnnotationFile":
        """Check a parsed annotation document field by field and build it.

        The rules are those of docs/FORMATS.md: sizes and ids are JSON
        integers (``true`` is not 1), coordinates finite numbers, occlusion
        an integer in [0, 3] and truncation a number in [0, 1]. A violation
        is a ValueError naming the field.
        """
        if type(data) is not dict or type(data.get("objects")) is not list:
            raise ValueError("expected an object with an 'objects' list")
        objects = tuple(_polygon_object(entry, f"objects/{k}") for k, entry in enumerate(data["objects"]))
        return cls(image_width=_integer(data.get("image_width"), "image_width", 1),
                   image_height=_integer(data.get("image_height"), "image_height", 1),
                   objects=objects)


def _is_number(value) -> bool:
    """A JSON number a float holds finitely; rejects booleans, NaN and infinities."""
    return type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max


def _integer(value, where: str, low: int, high: int = _MAX_INT) -> int:
    if type(value) is not int or not low <= value <= high:
        raise ValueError(f"{where} must be an integer in [{low}, {high}], got {value!r}")
    return value


def _polygon_object(entry, where: str) -> PolygonObject:
    if type(entry) is not dict:
        raise ValueError(f"{where} must be an object, got {entry!r}")
    label = entry.get("label")
    if type(label) is not str:
        raise ValueError(f"{where}/label must be a string, got {label!r}")
    polygon = entry.get("polygon")
    if type(polygon) is not list or not polygon or any(type(v) is not list or len(v) != 2 for v in polygon):
        raise ValueError(f"{where}/polygon must be a non-empty list of [x, y] pairs")
    if not all(_is_number(c) for vertex in polygon for c in vertex):
        raise ValueError(f"{where}/polygon coordinates must be finite numbers")
    truncation = entry.get("truncation")
    if "truncation" in entry and not (_is_number(truncation) and 0 <= truncation <= 1):
        raise ValueError(f"{where}/truncation must be a number in [0, 1], got {truncation!r}")
    return PolygonObject(
        label=label,
        polygon=tuple((float(x), float(y)) for x, y in polygon),
        instance_id=_integer(entry.get("instance_id"), f"{where}/instance_id", 0),
        occlusion=_integer(entry["occlusion"], f"{where}/occlusion", 0, 3) if "occlusion" in entry else None,
        truncation=None if truncation is None else float(truncation),
    )


def load_annotation(path: str) -> AnnotationFile:
    """The annotation file at ``path``; every error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return AnnotationFile.from_json(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ValueError(f"annotation {path}: malformed JSON: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"annotation {path}: {exc}") from exc


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
                class_id=table.detection.index(obj.label),
                bbox=bbox,
                instance_id=obj.instance_id,
                occlusion=obj.occlusion,
                truncation=obj.truncation,
            )
        )
    if dropped:
        log.warning("boxes_from_polygons: dropped %d degenerate (zero-area) polygon(s)", dropped)
    return out
