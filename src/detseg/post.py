"""Post-processing: raw head outputs to final detections.

Detections are ranked and thresholded by the two-way softmax objectness
probability; the class head only decides which class a kept detection gets.
NMS is greedy and runs per class. One image's detections travel as one
dense :class:`Detections` record from decoding through NMS, the JSON-lines
format and evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .geom import AnchorGrid, decode_array, iou_matrix
from .net.model import flatten_per_anchor

__all__ = ["Detections", "decode_detections", "nms", "detections_to_jsonl", "detections_from_jsonl"]

# NMS compares boxes in square tiles of this many rows and columns, so each
# IoU temporary holds 2^16 values whatever the number of candidates.
NMS_BLOCK = 256


@dataclass(frozen=True, eq=False)
class Detections:
    """One image's detections as dense rows.

    ``boxes`` (N, 4) holds max-exclusive corners, ``class_ids`` (N,) the
    detection class, ``scores`` (N,) the objectness probability and
    ``embeddings`` (N, E) the instance embeddings. :func:`decode_detections`
    ranks rows by descending score with anchor index breaking ties, and
    :func:`nms` keeps that ranking.
    """

    boxes: np.ndarray
    class_ids: np.ndarray
    scores: np.ndarray
    embeddings: np.ndarray

    def __post_init__(self) -> None:
        n = self.boxes.shape[0]
        if self.boxes.shape != (n, 4) or self.class_ids.shape != (n,) or self.scores.shape != (n,) \
                or self.embeddings.ndim != 2 or self.embeddings.shape[0] != n:
            raise ValueError(
                f"inconsistent detection rows: boxes {self.boxes.shape}, class_ids "
                f"{self.class_ids.shape}, scores {self.scores.shape}, embeddings {self.embeddings.shape}"
            )
        if not np.all((self.scores >= 0.0) & (self.scores <= 1.0)):
            raise ValueError("objectness scores must be probabilities")
        if not (np.isfinite(self.boxes).all() and np.isfinite(self.embeddings).all()):
            raise ValueError("box coordinates and embeddings must be finite")
        if not np.all((self.boxes[:, 0] <= self.boxes[:, 2]) & (self.boxes[:, 1] <= self.boxes[:, 3])):
            raise ValueError("box corners out of order")

    def __len__(self) -> int:
        return self.boxes.shape[0]

    @classmethod
    def empty(cls, embedding_dim: int = 0) -> "Detections":
        return cls(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), np.zeros(0),
                   np.zeros((0, embedding_dim)))

    def take(self, rows: np.ndarray) -> "Detections":
        """The record of the given rows, in the given order."""
        return Detections(self.boxes[rows], self.class_ids[rows], self.scores[rows],
                          self.embeddings[rows])


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def decode_detections(
    outputs: Mapping[str, np.ndarray],
    grid: AnchorGrid,
    score_threshold: float = 0.5,
) -> Detections:
    """Convert one image's head outputs into thresholded detections.

    ``outputs`` maps head names to (C, H, W) float64 arrays for a single
    image. Every anchor whose foreground probability reaches the threshold
    yields one row; rows are ordered by descending objectness with anchor
    index breaking ties. Non-finite head values are rejected.
    """
    t = len(grid.templates)
    heads = {}
    for name, per_anchor in (("objectness", 2), ("class_scores", None), ("box_deltas", 4), ("embeddings", None)):
        if name not in outputs:
            raise KeyError(f"missing head {name!r}")
        arr = outputs[name]
        if arr.ndim != 3:
            raise ValueError(f"{name} must be (C, H, W) for one image, got shape {arr.shape}")
        if arr.shape[1] != grid.rows or arr.shape[2] != grid.cols:
            raise ValueError(
                f"{name} spatial size {arr.shape[1]}x{arr.shape[2]} does not match "
                f"grid {grid.rows}x{grid.cols}"
            )
        if per_anchor is not None and arr.shape[0] != per_anchor * t:
            raise ValueError(f"{name} has {arr.shape[0]} channels, expected {per_anchor * t}")
        if arr.shape[0] % t:
            raise ValueError(f"{name} channel count {arr.shape[0]} is not a multiple of T={t}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has non-finite values")
        heads[name] = flatten_per_anchor(arr, t)

    obj_prob = _softmax_rows(heads["objectness"])[:, 1]
    keep = np.flatnonzero(obj_prob >= score_threshold)
    keep = keep[np.lexsort((keep, -obj_prob[keep]))]
    return Detections(
        boxes=decode_array(grid.boxes[keep], heads["box_deltas"][keep]),
        class_ids=_softmax_rows(heads["class_scores"][keep]).argmax(axis=1),
        scores=obj_prob[keep],
        embeddings=heads["embeddings"][keep],
    )


def _nms_ranked(boxes: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Keep mask of greedy NMS over score-ranked boxes of one class.

    Tiles of ``NMS_BLOCK`` boxes are resolved in rank order. Inside a tile,
    only boxes with an earlier overlapping box of the same tile are visited;
    the tile's survivors then suppress every later tile at once.
    """
    n = boxes.shape[0]
    suppressed = np.zeros(n, dtype=bool)
    for start in range(0, n, NMS_BLOCK):
        stop = min(start + NMS_BLOCK, n)
        block = boxes[start:stop]
        overlap = np.triu(iou_matrix(block, block) > iou_threshold, k=1)
        local = suppressed[start:stop]
        for j in np.flatnonzero(overlap.any(axis=0) & ~local).tolist():
            # j falls when one of the earlier boxes it overlaps was kept
            if not local[:j][overlap[:j, j]].all():
                local[j] = True
        survivors = block[~local]
        for later in range(stop, n, NMS_BLOCK):
            end = min(later + NMS_BLOCK, n)
            suppressed[later:end] |= (iou_matrix(survivors, boxes[later:end]) > iou_threshold).any(axis=0)
    return ~suppressed


def nms(dets: Detections, iou_threshold: float = 0.5) -> Detections:
    """Greedy per-class non-maximum suppression.

    Detections are visited in descending score (stable on ties); keeping one
    suppresses all later detections of the same class with IoU strictly
    above the threshold. Classes do not suppress each other. The kept rows
    come back in visiting order.
    """
    order = np.argsort(-dets.scores, kind="stable")
    keep = np.zeros(len(order), dtype=bool)
    classes = dets.class_ids[order]
    for class_id in set(classes.tolist()):
        ranks = np.flatnonzero(classes == class_id)
        keep[ranks] = _nms_ranked(dets.boxes[order[ranks]], iou_threshold)
    return dets.take(order[keep])


def detections_to_jsonl(items: Iterable[tuple[str, Detections]]) -> str:
    """Serialize (image_id, record) pairs, one JSON object per detection (docs/FORMATS.md)."""
    lines = []
    for image_id, dets in items:
        rows = zip(dets.class_ids.tolist(), dets.scores.tolist(), dets.boxes.tolist(),
                   dets.embeddings.tolist())
        for class_id, score, (x0, y0, x1, y1), embedding in rows:
            lines.append(json.dumps({
                "image_id": image_id, "class": class_id, "score": score,
                "x_min": x0, "y_min": y0, "x_max": x1, "y_max": y1, "embedding": embedding,
            }))
    return "\n".join(lines) + ("\n" if lines else "")


_MAX_CLASS_ID = np.iinfo(np.int64).max


def _parse_row(record) -> tuple:
    """One detection object as (image_id, class, score, box, embedding); raises on bad fields."""
    class_id = record["class"]
    if type(class_id) is not int or not 0 <= class_id <= _MAX_CLASS_ID:
        raise ValueError(f"class must be a non-negative integer below 2**63, got {class_id!r}")
    score = float(record["score"])
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score!r}")
    box = (float(record["x_min"]), float(record["y_min"]), float(record["x_max"]), float(record["y_max"]))
    if not all(map(math.isfinite, box)):
        raise ValueError(f"box coordinates must be finite, got {box}")
    if not (box[0] <= box[2] and box[1] <= box[3]):
        raise ValueError(f"box corners out of order: {box}")
    embedding = list(map(float, record.get("embedding", [])))
    if not all(map(math.isfinite, embedding)):
        raise ValueError("embedding values must be finite")
    return str(record["image_id"]), class_id, score, box, embedding


def detections_from_jsonl(text: str) -> dict[str, Detections]:
    """Parse the JSON-lines detection format into one record per image id.

    Rows keep their file order. Every line is validated; the first bad one
    is reported with its line number. The rows of one image must share an
    embedding length.
    """
    rows: dict[str, list] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            image_id, *row = _parse_row(json.loads(line))
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise ValueError(f"malformed detection on line {lineno}: {exc}") from exc
        per_image = rows.setdefault(image_id, [])
        if per_image and len(row[3]) != len(per_image[0][3]):
            raise ValueError(f"malformed detection on line {lineno}: embedding length {len(row[3])} "
                             f"differs from {len(per_image[0][3])} in earlier rows of image {image_id!r}")
        per_image.append(row)
    out = {}
    for image_id, image_rows in rows.items():
        class_ids, scores, boxes, embeddings = zip(*image_rows)
        out[image_id] = Detections(
            boxes=np.array(boxes, dtype=np.float64),
            class_ids=np.array(class_ids, dtype=np.int64),
            scores=np.array(scores, dtype=np.float64),
            embeddings=np.array(embeddings, dtype=np.float64),
        )
    return out
