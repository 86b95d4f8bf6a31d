"""Independent reference implementations and the scenes they are checked on.

The tests and the ``selftest`` command both compare against these. Everything
here is deliberately plain per-element Python against the documented rules,
built on the scalar :func:`detseg.geom.iou`, and calls none of the vectorized
functions it checks; the expected box deltas are written out per element
(:func:`encode_oracle`), because the scalar :func:`detseg.geom.encode` wraps
:func:`detseg.geom.encode_array`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .assign import AssignConfig, GroundTruthObject
from .geom import AnchorGrid, AnchorTemplate, BBox, iou, make_anchor_grid
from .post import Detections

FD_STEP = 1e-5
FD_TOLERANCE = 1e-4


def finite_difference(value_fn, array: np.ndarray, step: float = FD_STEP,
                      indices: Optional[np.ndarray] = None) -> np.ndarray:
    """Central-difference gradient of a scalar function in the array entries.

    With ``indices`` (flat positions in ``array``) only those entries are
    probed, and the result is the 1-D gradient at them, in that order.
    """
    flat = array.reshape(-1)
    probe = range(flat.size) if indices is None else indices
    grad = np.zeros(len(probe))
    for out, i in enumerate(probe):
        original = flat[i]
        flat[i] = original + step
        hi = value_fn()
        flat[i] = original - step
        lo = value_fn()
        flat[i] = original
        grad[out] = (hi - lo) / (2.0 * step)
    return grad.reshape(array.shape) if indices is None else grad


def relative_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Largest absolute difference over the larger of the two magnitudes (at least 1e-3)."""
    scale = max(float(np.abs(reference).max(initial=0.0)),
                float(np.abs(analytic).max(initial=0.0)), 1e-3)
    return float(np.abs(analytic - reference).max(initial=0.0)) / scale


def gradients_close(analytic: np.ndarray, reference: np.ndarray, tol: float = FD_TOLERANCE) -> bool:
    return relative_error(analytic, reference) <= tol


def conv2d_oracle(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None,
                  stride: int = 1, dilation: int = 1) -> np.ndarray:
    """Direct-loop "same" convolution of (N, Ci, H, W) by (Co, Ci, k, k) weights.

    Output sizes are ``ceil(in / stride)``; the input is zero-padded by the
    total the last tap needs, the smaller half before the first row/column.
    """
    n, c_in, h, w = x.shape
    c_out, _, k, _ = weight.shape
    out_h, out_w = math.ceil(h / stride), math.ceil(w / stride)
    span = dilation * (k - 1) + 1
    pad_h = max((out_h - 1) * stride + span - h, 0)
    pad_w = max((out_w - 1) * stride + span - w, 0)
    padded = np.zeros((n, c_in, h + pad_h, w + pad_w))
    for b in range(n):
        for c in range(c_in):
            for i in range(h):
                for j in range(w):
                    padded[b, c, pad_h // 2 + i, pad_w // 2 + j] = x[b, c, i, j]
    y = np.zeros((n, c_out, out_h, out_w))
    for b in range(n):
        for o in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    total = 0.0 if bias is None else float(bias[o])
                    for c in range(c_in):
                        for ki in range(k):
                            for kj in range(k):
                                total += (weight[o, c, ki, kj]
                                          * padded[b, c, i * stride + ki * dilation, j * stride + kj * dilation])
                    y[b, o, i, j] = total
    return y


def depthwise_oracle(x: np.ndarray, weight: np.ndarray, dilation: int = 1) -> np.ndarray:
    """Per-channel "same" convolution, stride 1: output channel c is input channel c by ``weight[c]``."""
    return np.concatenate([conv2d_oracle(x[:, c:c + 1], weight[c][None, None], dilation=dilation)
                           for c in range(x.shape[1])], axis=1)


def assign_oracle(
    grid: AnchorGrid,
    gts: list[GroundTruthObject],
    image_w: float,
    image_h: float,
    cfg: AssignConfig,
) -> tuple[list[str], list]:
    """Brute-force application of the assignment rule list, one anchor at a time.

    Returns per-anchor states as strings and per-anchor owners: the index of
    the ground truth an active anchor regresses to, None for the others.
    Rule provenance is tracked so the fallback can tell band don't-cares and
    default inactives from the rest.
    """
    states = ["inactive"] * len(grid)
    provenance = ["default"] * len(grid)
    owner = [None] * len(grid)
    if not gts:
        return states, owner

    all_overlaps = []
    for index in range(len(grid)):
        anchor = grid.box(index)
        overlaps = [iou(anchor, gt.bbox) for gt in gts]
        all_overlaps.append(overlaps)

        best_gt = 0
        for j in range(1, len(gts)):
            if overlaps[j] > overlaps[best_gt]:
                best_gt = j
        b1 = overlaps[best_gt]
        b2 = max((overlaps[j] for j in range(len(gts)) if j != best_gt), default=0.0)

        crosses_border = (
            anchor.x_min < 0
            or anchor.y_min < 0
            or anchor.x_max > image_w
            or anchor.y_max > image_h
        )
        if crosses_border and b1 >= cfg.dontcare_iou:
            states[index], provenance[index] = "dontcare", "border"
        elif b1 >= cfg.dontcare_iou and b2 >= cfg.dontcare_iou and (b1 - b2) < cfg.ambiguity_gap:
            states[index], provenance[index] = "inactive", "ambiguous"
        elif b1 > cfg.active_iou:
            states[index], provenance[index] = "active", "threshold"
            owner[index] = best_gt
        elif b1 > cfg.dontcare_iou:
            states[index], provenance[index] = "dontcare", "band"

    for j in range(len(gts)):
        if any(owner[i] == j and states[i] == "active" for i in range(len(grid))):
            continue
        best_anchor = 0
        for i in range(1, len(grid)):
            if all_overlaps[i][j] > all_overlaps[best_anchor][j]:
                best_anchor = i
        if all_overlaps[best_anchor][j] > cfg.dontcare_iou and provenance[best_anchor] in ("default", "band"):
            states[best_anchor], provenance[best_anchor] = "active", "fallback"
            owner[best_anchor] = j
    return states, owner


def assign_oracle_rows(grid, gts, image_w, image_h, cfg) -> list[tuple]:
    """The oracle's target of every anchor as ``(state, class_id, instance_id, delta)``.

    An active anchor carries its owner's class and instance id and the
    :func:`encode_oracle` delta of its box against the owner's box; every
    other anchor carries -1 ids and a zero delta.
    """
    states, owners = assign_oracle(grid, gts, image_w, image_h, cfg)
    rows = []
    for index, (state, owner) in enumerate(zip(states, owners)):
        if owner is None:
            rows.append((state, -1, -1, (0.0, 0.0, 0.0, 0.0)))
        else:
            gt = gts[owner]
            rows.append((state, gt.class_id, gt.instance_id, encode_oracle(grid.box(index), gt.bbox)))
    return rows


def encode_oracle(anchor: BBox, gt: BBox) -> tuple[float, float, float, float]:
    """The documented box delta ``(tx, ty, tw, th)`` of ``gt`` against ``anchor``, one float at a time.

    The logs are scalar ``np.log``, which rounds as the vectorised encoder
    does (``math.log`` can differ in the last bit).
    """
    wa, ha = anchor.x_max - anchor.x_min, anchor.y_max - anchor.y_min
    wg, hg = gt.x_max - gt.x_min, gt.y_max - gt.y_min
    tx = (0.5 * (gt.x_min + gt.x_max) - 0.5 * (anchor.x_min + anchor.x_max)) / wa
    ty = (0.5 * (gt.y_min + gt.y_max) - 0.5 * (anchor.y_min + anchor.y_max)) / ha
    return tx, ty, float(np.log(wg / wa)), float(np.log(hg / ha))


def target_rows(targets) -> list[tuple]:
    """The dense assignment record as per-anchor rows, comparable to :func:`assign_oracle_rows`."""
    return list(zip(targets.states(), targets.class_targets.tolist(), targets.instance_ids.tolist(),
                    map(tuple, targets.deltas.tolist())))


def random_assignment_scene(rng: np.random.Generator):
    """A small random grid/ground-truth pair for oracle comparison."""
    stride = int(rng.integers(4, 10))
    rows = int(rng.integers(1, 5))
    cols = int(rng.integers(1, 5))
    templates = [
        AnchorTemplate(ratio=float(rng.uniform(0.25, 4.0)), area=float(rng.uniform(9, 1200)))
        for _ in range(int(rng.integers(1, 11)))
    ]
    image_w = cols * stride
    image_h = rows * stride
    grid = make_anchor_grid(image_w, image_h, stride, templates)
    gts = []
    for k in range(int(rng.integers(0, 5))):
        w = float(rng.uniform(2, image_w * 1.2))
        h = float(rng.uniform(2, image_h * 1.2))
        x0 = float(rng.uniform(-8, image_w - w + 8))
        y0 = float(rng.uniform(-8, image_h - h + 8))
        gts.append(
            GroundTruthObject(
                class_id=int(rng.integers(0, 3)),
                bbox=BBox(x0, y0, x0 + w, y0 + h),
                instance_id=k,
            )
        )
    return grid, gts, image_w, image_h


def anchor_aligned_scene(rng: np.random.Generator):
    """A random grid whose objects are jittered copies of its anchors.

    Objects placed at random rarely reach the active threshold on these
    coarse grids; copies of anchors inside the image mostly do, so the
    active payload gets checked.
    """
    inside = np.zeros(0, dtype=np.int64)
    while inside.size == 0:
        grid, _, image_w, image_h = random_assignment_scene(rng)
        inside = np.flatnonzero(~grid.outside)
    gts = []
    for k in range(int(rng.integers(1, 5))):
        x0, y0, x1, y1 = grid.boxes[int(rng.choice(inside))]
        dx0, dy0, dx1, dy1 = rng.uniform(-0.3, 0.3, size=4) * [x1 - x0, y1 - y0, x1 - x0, y1 - y0]
        gts.append(
            GroundTruthObject(
                class_id=int(rng.integers(0, 3)),
                bbox=BBox(float(x0 + dx0), float(y0 + dy0), float(x1 + dx1), float(y1 + dy1)),
                instance_id=k,
            )
        )
    return grid, gts, image_w, image_h


def _record(boxes, classes, scores) -> Detections:
    return Detections(np.array(boxes, dtype=np.float64).reshape(-1, 4), np.array(classes, dtype=np.int64),
                      np.array(scores, dtype=np.float64), np.zeros((len(boxes), 0)))


def sparse_nms_instance(rng: np.random.Generator, count: int = 50) -> Detections:
    """Boxes of 4 to 30 pixels scattered over a 110x110 canvas, three classes, uniform scores."""
    boxes, class_ids, scores = [], [], []
    for _ in range(count):
        x0 = float(rng.uniform(0, 80))
        y0 = float(rng.uniform(0, 80))
        w = float(rng.uniform(4, 30))
        h = float(rng.uniform(4, 30))
        boxes.append((x0, y0, x0 + w, y0 + h))
        class_ids.append(int(rng.integers(0, 3)))
        scores.append(float(rng.random()))
    return _record(boxes, class_ids, scores)


def dense_nms_instance(rng: np.random.Generator, count: int) -> Detections:
    """Integer boxes crowded on a 64x64 canvas, two classes and 16 score levels.

    Every other box comes with a twin of the same class and score shifted by
    a third of its width, at IoU exactly 0.5, so ties and IoUs at the
    threshold both occur many times.
    """
    boxes, classes, scores = [], [], []
    while len(boxes) < count:
        s = int(rng.integers(2, 7))
        h = int(rng.integers(4, 20))
        x0 = int(rng.integers(0, 64 - 4 * s))
        y0 = int(rng.integers(0, 64 - h))
        group = [(x0, y0, x0 + 3 * s, y0 + h)]
        if len(boxes) % 2 == 0:
            group.append((x0 + s, y0, x0 + 4 * s, y0 + h))
        boxes += group
        classes += [int(rng.integers(0, 2))] * len(group)
        scores += [int(rng.integers(0, 16)) / 15.0] * len(group)
    return _record(boxes[:count], classes[:count], scores[:count])


def nms_oracle(dets: Detections, threshold: float) -> Detections:
    """Textbook greedy NMS on index lists; returns the kept rows in keep order."""
    boxes = [BBox(*b) for b in dets.boxes.tolist()]
    scores = dets.scores.tolist()
    classes = dets.class_ids.tolist()
    remaining = sorted(range(len(boxes)), key=lambda i: -scores[i])
    kept: list[int] = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        survivors = []
        for i in remaining:
            if classes[i] == classes[best] and iou(boxes[i], boxes[best]) > threshold:
                continue
            survivors.append(i)
        remaining = survivors
    return dets.take(np.array(kept, dtype=np.int64))


def detection_rows(dets) -> list[tuple]:
    """A detection record as per-row ``(class_id, score, box)`` tuples."""
    return list(zip(dets.class_ids.tolist(), dets.scores.tolist(), map(tuple, dets.boxes.tolist())))


def match_oracle(rows: list[tuple], gts: list[GroundTruthObject], thresholds: dict[int, float],
                 counts) -> list[str]:
    """Greedy detection matching, one detection and one ground truth at a time.

    ``rows`` are ``(class_id, score, box)`` tuples; ``counts(gt)`` tells
    whether a ground truth counts at the difficulty level. Per class, in
    descending score order (stable), a detection takes the unmatched counted
    ground truth of highest IoU at or above the class threshold (the first
    such on ties); failing that it is "ignored" if it reaches the threshold
    with a don't-care ground truth, else "fp".
    """
    flags = ["fp"] * len(rows)
    matched: set[int] = set()
    for i in sorted(range(len(rows)), key=lambda i: -rows[i][1]):
        class_id, _, box = rows[i]
        threshold = thresholds[class_id]
        best = None
        for j, gt in enumerate(gts):
            if gt.class_id != class_id or not counts(gt) or j in matched:
                continue
            overlap = iou(BBox(*box), gt.bbox)
            if overlap >= threshold and (best is None or overlap > best[0]):
                best = (overlap, j)
        if best is not None:
            matched.add(best[1])
            flags[i] = "tp"
        elif any(gt.class_id == class_id and not counts(gt) and iou(BBox(*box), gt.bbox) >= threshold
                 for gt in gts):
            flags[i] = "ignored"
    return flags


def pr_points_oracle(flags: list[str], scores: list[float], gt_count: int) -> list[tuple[float, float]]:
    """(recall, precision) after each non-ignored detection, in descending score order (stable)."""
    points = []
    tp = fp = 0
    for i in sorted(range(len(flags)), key=lambda i: -scores[i]):
        if flags[i] == "ignored":
            continue
        tp += flags[i] == "tp"
        fp += flags[i] == "fp"
        points.append((tp / gt_count, tp / (tp + fp)))
    return points


def eleven_point_ap(recalls: list[float], precisions: list[float]) -> float:
    """Hand-rolled 11-point interpolation over a finished PR sweep."""
    total = 0.0
    for k in range(11):
        r = k / 10.0
        best = 0.0
        for rec, prec in zip(recalls, precisions):
            if rec >= r and prec > best:
                best = prec
        total += best
    return total / 11.0
