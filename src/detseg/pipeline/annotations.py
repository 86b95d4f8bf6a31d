"""Polygon annotations and their conversion to detection ground truth.

The on-disk format is a minimal JSON document per image: image dimensions
plus a list of labeled polygons with instance ids (see docs/FORMATS.md),
checked against :data:`ANNOTATION_SCHEMA` by the package's JSON document
checker. Bounding boxes are the min/max of the polygon vertices.
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
from .schema import check, load_json

__all__ = ["ANNOTATION_SCHEMA", "PolygonObject", "AnnotationFile", "load_annotation", "save_annotation",
           "boxes_from_polygons", "load_ground_truth"]

log = logging.getLogger(__name__)

# the largest id or image size an int64 holds
_MAX_INT = 2**63 - 1
_SIZE = {"type": "integer", "minimum": 1, "maximum": _MAX_INT}

# Unknown keys are ignored. ``AnnotationFile`` itself checks that instance
# ids are unique within a file, which a schema cannot express.
ANNOTATION_SCHEMA = {
    "type": "object",
    "required": ["image_width", "image_height", "objects"],
    "properties": {
        "image_width": _SIZE,
        "image_height": _SIZE,
        "objects": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "polygon", "instance_id"],
                "properties": {
                    "label": {"type": "string"},
                    "polygon": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
                    },
                    "instance_id": {"type": "integer", "minimum": 0, "maximum": _MAX_INT},
                    "occlusion": {"type": "integer", "minimum": 0, "maximum": 3},
                    "truncation": {"type": "number", "minimum": 0, "maximum": 1},
                },
            },
        },
    },
}


@dataclass(frozen=True)
class PolygonObject:
    label: str
    polygon: tuple[tuple[float, float], ...]
    instance_id: int
    occlusion: Optional[int] = None
    truncation: Optional[float] = None


@dataclass(frozen=True)
class AnnotationFile:
    image_width: int
    image_height: int
    objects: tuple[PolygonObject, ...]

    def __post_init__(self) -> None:
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
        """``data`` must already satisfy :data:`ANNOTATION_SCHEMA`."""
        objects = tuple(
            PolygonObject(
                label=entry["label"],
                polygon=tuple((float(x), float(y)) for x, y in entry["polygon"]),
                instance_id=entry["instance_id"],
                occlusion=entry.get("occlusion"),
                truncation=float(entry["truncation"]) if "truncation" in entry else None,
            )
            for entry in data["objects"]
        )
        return cls(image_width=data["image_width"], image_height=data["image_height"], objects=objects)


def load_annotation(path: str) -> AnnotationFile:
    """The annotation file at ``path``; every error names the file."""
    try:
        data = load_json(path)
        check(ANNOTATION_SCHEMA, data, "annotation")
        return AnnotationFile.from_json(data)
    except ValueError as exc:
        raise ValueError(f"annotation {path}: {exc}") from exc


def save_annotation(path: str, ann: AnnotationFile) -> None:
    """Serialise first, then write atomically: a failure leaves any existing file as it was."""
    write_atomic(path, (json.dumps(ann.to_json(), indent=1) + "\n").encode("utf-8"))


def boxes_from_polygons(ann: AnnotationFile, table: ClassTable) -> list[GroundTruthObject]:
    """Extract detection ground truth from polygon annotations.

    The box is the min/max of the vertex coordinates. Labels must exist in
    the class table; labels that are not detection classes are skipped.
    Boxes of zero width or height are dropped.
    """
    out: list[GroundTruthObject] = []
    for obj in ann.objects:
        if obj.label not in table.names:
            raise ValueError(f"unknown label {obj.label!r} (known: {list(table.names)})")
        if obj.label not in table.detection:
            continue
        xs = [p[0] for p in obj.polygon]
        ys = [p[1] for p in obj.polygon]
        bbox = BBox(min(xs), min(ys), max(xs), max(ys))
        if bbox.area <= 0:
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
    return out


def load_ground_truth(path: str, table: ClassTable) -> tuple[AnnotationFile, list[GroundTruthObject]]:
    """The annotation file at ``path`` and its detection ground truth.

    Every error names the file, and so does the warning that counts the
    degenerate (zero-area) polygons that :func:`boxes_from_polygons` dropped.
    """
    ann = load_annotation(path)
    try:
        gts = boxes_from_polygons(ann, table)
    except ValueError as exc:
        raise ValueError(f"annotation {path}: {exc}") from exc
    dropped = sum(obj.label in table.detection for obj in ann.objects) - len(gts)
    if dropped:
        log.warning("annotation %s: dropped %d degenerate (zero-area) polygon(s)", path, dropped)
    return ann, gts
