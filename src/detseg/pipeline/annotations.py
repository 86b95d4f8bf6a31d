"""Polygon annotations and their conversion to detection ground truth.

The on-disk format is a minimal JSON document per image: image dimensions
plus a list of labeled polygons with instance ids (see docs/FORMATS.md).
In memory an annotation is that document itself, a dict, checked against
:data:`ANNOTATION_SCHEMA` by the package's JSON document checker on load
and on save. Bounding boxes are the min/max of the polygon vertices.
"""

from __future__ import annotations

import json
import logging

from ..assign import GroundTruthObject
from ..geom import BBox
from ..net.checkpoint import write_atomic
from .schema import check, load_document

__all__ = ["ANNOTATION_SCHEMA", "load_annotation", "save_annotation", "boxes_from_polygons", "load_ground_truth"]

log = logging.getLogger(__name__)

# the largest id or image size an int64 holds
_MAX_INT = 2**63 - 1
_SIZE = {"type": "integer", "minimum": 1, "maximum": _MAX_INT}

# Unknown keys are ignored. ``_checked`` adds the one rule a schema cannot
# express: instance ids are unique within a file.
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


def _checked(document):
    """``document`` if it is a valid annotation file, else a ValueError: the schema, then unique ids."""
    check(ANNOTATION_SCHEMA, document, "annotation")
    ids = [obj["instance_id"] for obj in document["objects"]]
    if len(set(ids)) != len(ids):
        raise ValueError(f"instance ids must be unique, got {ids}")
    return document


def load_annotation(path: str) -> dict:
    """The checked annotation document at ``path``; every error names the file."""
    return load_document(path, "annotation", _checked)


def save_annotation(path: str, document: dict) -> None:
    """Check and serialise first, then write atomically: a failure leaves any existing file as it was.

    ``document`` must pass the checks :func:`load_annotation` makes, and a
    refusal has the message a load of it would have.
    """
    try:
        _checked(document)
    except ValueError as exc:
        raise ValueError(f"annotation {path}: {exc}") from exc
    write_atomic(path, (json.dumps(document, indent=1) + "\n").encode("utf-8"))


def boxes_from_polygons(document: dict, table: dict) -> list[GroundTruthObject]:
    """Extract detection ground truth from a checked annotation document and class table.

    The box is the min/max of the vertex coordinates. Corners and
    truncation are floats, whether the file wrote them as JSON integers or
    not, and an absent occlusion or truncation is 0. Labels must exist in
    the class table; labels that are not detection classes are skipped.
    Boxes of zero width or height are dropped.
    """
    out: list[GroundTruthObject] = []
    for obj in document["objects"]:
        label = obj["label"]
        if label not in table["names"]:
            raise ValueError(f"unknown label {label!r} (known: {table['names']})")
        if label not in table["detection"]:
            continue
        xs = [x for x, _ in obj["polygon"]]
        ys = [y for _, y in obj["polygon"]]
        bbox = BBox(float(min(xs)), float(min(ys)), float(max(xs)), float(max(ys)))
        if bbox.area <= 0:
            continue
        out.append(
            GroundTruthObject(
                class_id=table["detection"].index(label),
                bbox=bbox,
                instance_id=obj["instance_id"],
                occlusion=obj.get("occlusion", 0),
                truncation=float(obj.get("truncation", 0.0)),
            )
        )
    return out


def load_ground_truth(path: str, table: dict) -> tuple[dict, list[GroundTruthObject]]:
    """The checked annotation document at ``path`` and its detection ground truth.

    Every error names the file, and so does the warning that counts the
    degenerate (zero-area) polygons that :func:`boxes_from_polygons` dropped.
    """
    document = load_annotation(path)
    try:
        gts = boxes_from_polygons(document, table)
    except ValueError as exc:
        raise ValueError(f"annotation {path}: {exc}") from exc
    dropped = sum(obj["label"] in table["detection"] for obj in document["objects"]) - len(gts)
    if dropped:
        log.warning("annotation %s: dropped %d degenerate (zero-area) polygon(s)", path, dropped)
    return document, gts
