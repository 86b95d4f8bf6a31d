"""Per-anchor training target generation.

Each anchor ends up in exactly one of three states: inactive (supervised
background), don't-care (excluded from every loss), or active (supervised
positive carrying class, regression delta and instance id). The rules are
applied in a fixed precedence order; see :func:`assign_targets`. The result,
:class:`AnchorTargetArrays`, holds every anchor's rule code and a row of
class, delta and instance id for each active anchor only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .geom import AnchorGrid, BBox, encode_array, iou_pairs
from .losses import BACKGROUND, FOREGROUND, IGNORE

__all__ = [
    "AssignRule",
    "GroundTruthObject",
    "AnchorTargetArrays",
    "ACTIVE_IOU",
    "DONTCARE_IOU",
    "AMBIGUITY_GAP",
    "TargetSummary",
    "assign_targets",
    "assign_targets_detailed",
    "summarize_targets",
]

class AssignRule(IntEnum):
    """Which rule produced an anchor's state (useful for tests and debugging)."""

    DEFAULT = 1      # inactive, nothing matched
    BORDER = 2       # don't-care: crosses the image border and overlaps an object
    AMBIGUOUS = 3    # inactive: two objects overlap it almost equally
    BEST = 4         # active via the IoU threshold
    BAND = 5         # don't-care: IoU in the band between the two thresholds
    FALLBACK = 6     # active: adopted by an otherwise unassigned ground truth


# The objectness label of each rule, indexed by rule code (code 0 is unused).
_LABEL_OF_RULE = np.array([BACKGROUND, BACKGROUND, IGNORE, BACKGROUND, FOREGROUND, IGNORE, FOREGROUND],
                          dtype=np.int64)
# The state name of each rule, as the CLI writes it.
_STATE_OF_RULE = [{BACKGROUND: "inactive", IGNORE: "dontcare", FOREGROUND: "active"}[label]
                  for label in _LABEL_OF_RULE.tolist()]

# The codes of the rules that IoU thresholds select, in precedence order, as
# int8 scalars: np.select then builds the int8 rule array without conversions.
_THRESHOLD_RULES = np.array([AssignRule.BORDER, AssignRule.AMBIGUOUS, AssignRule.BEST, AssignRule.BAND],
                            dtype=np.int8)


@dataclass(frozen=True)
class GroundTruthObject:
    """One annotated object: detection class, box, per-image instance id, KITTI occlusion and truncation."""

    class_id: int
    bbox: BBox
    instance_id: int
    occlusion: int = 0
    truncation: float = 0.0

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")
        if self.instance_id < 0:
            raise ValueError(f"instance_id must be non-negative, got {self.instance_id}")
        if self.bbox.area <= 0:
            raise ValueError(f"ground truth box must have positive area: {self.bbox}")


@dataclass
class AnchorTargetArrays:
    """Training targets of one grid: every anchor's rule code, and a row per active (BEST or
    FALLBACK) anchor, in the sorted order ``np.flatnonzero`` gives their indices."""

    rules: np.ndarray             # (A,) int8 AssignRule code of every anchor
    active_index: np.ndarray      # (K,) int64 indices of the active anchors, ascending
    active_classes: np.ndarray    # (K,) int64 class id of each active anchor
    active_deltas: np.ndarray     # (K, 4) regression target of each active anchor
    active_instances: np.ndarray  # (K,) int64 instance id of each active anchor

    def __len__(self) -> int:
        return len(self.rules)

    def states(self) -> list[str]:
        """Per-anchor state names as written by the CLI: inactive, dontcare or active."""
        return [_STATE_OF_RULE[rule] for rule in self.rules.tolist()]

    # Dense per-anchor views, built anew on each read; training, the summary and the CLI read none.
    # The objectness label, the active mask, and the delta and instance id (zero and -1 off the active rows):
    labels = property(lambda self: _LABEL_OF_RULE[self.rules])
    active = property(lambda self: self._dense(np.zeros(len(self), dtype=bool), True))
    deltas = property(lambda self: self._dense(np.zeros((len(self), 4)), self.active_deltas))
    instance_ids = property(lambda self: self._dense(np.full(len(self), -1, dtype=np.int64), self.active_instances))

    def _dense(self, background: np.ndarray, rows) -> np.ndarray:
        background[self.active_index] = rows
        return background


# The IoU thresholds of the assignment rules (see :func:`assign_targets`).
ACTIVE_IOU = 0.5
DONTCARE_IOU = 0.4
AMBIGUITY_GAP = 0.2


# Template/object pairs whose size bound is below DONTCARE_IOU - BOUND_SLACK
# are skipped. The slack covers rounding in the bound and in the IoUs it
# stands for: anchor widths differ between cells by about 1e-16 x image
# extent / template width, and each IoU carries a few ulp. That stays
# orders of magnitude below 1e-6 unless a template is narrower than about
# 1e-8 of the image extent.
BOUND_SLACK = 1e-6


def _live_anchors(grid: AnchorGrid, gt_boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The anchors with IoU >= DONTCARE_IOU against some object, and those IoUs.

    Returns the sorted anchor indices and their (anchors, objects) matrix,
    which holds every IoU that reaches ``DONTCARE_IOU`` and 0 in place of
    the smaller ones.

    Two axis-aligned boxes overlap most when aligned, so a template and an
    object reach at most ``I / (area_t + area_g - I)`` with
    ``I = min(w) * min(h)``; the pairs below ``DONTCARE_IOU`` are skipped.

    Each other pair is evaluated only on a window of cells. An IoU of at
    least ``DONTCARE_IOU`` needs an intersection of at least
    ``I_min = DONTCARE_IOU * (area_t + area_g) / (1 + DONTCARE_IOU)``, and
    so an x overlap of at least ``I_min / min(h)``: the anchor's right edge
    lies that far past the object's left edge, and its left edge that far
    before the object's right edge. The cell centre is thus within
    ``w_t / 2 - I_min / min(h)`` of the object's x extent, and likewise in
    y. The window holds these cells, widened by one cell on each side so
    that rounding in the bound or in the anchor boxes can never drop one,
    and clipped to the lattice. Its IoUs are the ``iou_pairs`` values of
    the same ``grid.boxes`` rows as on the whole lattice, so the result is
    the whole lattice's, bit for bit.
    """
    n_templates = len(grid.templates)
    t_size = grid.boxes[:n_templates, 2:] - grid.boxes[:n_templates, :2]  # cell 0's anchors
    g_size = gt_boxes[:, 2:] - gt_boxes[:, :2]
    common = np.minimum(t_size[:, None], g_size)  # (templates, objects, 2): the aligned overlap
    aligned = common[..., 0] * common[..., 1]
    areas = (t_size[:, 0] * t_size[:, 1])[:, None] + g_size[:, 0] * g_size[:, 1]
    t, g = np.nonzero(aligned / (areas - aligned) >= DONTCARE_IOU - BOUND_SLACK)
    min_inter = DONTCARE_IOU / (1.0 + DONTCARE_IOU) * areas[t, g]
    # How far each pair's window reaches past its object's extent in x and
    # in y, one cell more than the bound; then its (x0, y0, x1, y1) edges in
    # cell coordinates, where cell i is centred at i.
    reach = t_size[t] / 2 - min_inter[:, None] / common[t, g, ::-1] + grid.stride
    edges = (gt_boxes[g] + np.concatenate([-reach, reach], axis=1)) / grid.stride - 0.5
    lo = np.minimum(np.maximum(np.ceil(edges[:, :2]), 0), [grid.cols, grid.rows])
    size = np.maximum(np.minimum(np.floor(edges[:, 2:]), [grid.cols - 1, grid.rows - 1]) - lo + 1, 0)
    lo, size = lo.astype(np.int64), size.astype(np.int64)
    # Pair k owns size[k].prod() consecutive (cell, pair) triples, row by row.
    counts = size[:, 0] * size[:, 1]
    pair = np.repeat(np.arange(len(t)), counts)
    row, col = np.divmod(np.arange(len(pair)) - np.repeat(np.cumsum(counts) - counts, counts), size[pair, 0])
    first = (lo[:, 1] * grid.cols + lo[:, 0]) * n_templates + t
    anchor = first[pair] + (row * grid.cols + col) * n_templates
    ious = iou_pairs(grid.boxes[anchor], np.repeat(gt_boxes[g], counts, axis=0))
    hit = np.flatnonzero(ious >= DONTCARE_IOU)
    is_live = np.zeros(len(grid), dtype=bool)
    is_live[anchor[hit]] = True
    live = np.flatnonzero(is_live)
    overlaps = np.zeros((len(live), len(gt_boxes)))
    overlaps[np.searchsorted(live, anchor[hit]), g[pair[hit]]] = ious[hit]
    return live, overlaps


def _apply_rules(overlaps: np.ndarray, outside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rule ids and owning object (-1 unless active) of at least one anchor.

    ``overlaps`` is the anchors' (anchors, objects) IoU matrix and
    ``outside`` their border flags. The rules read only the IoUs that
    reach ``DONTCARE_IOU``, so the smaller ones may be given as 0.
    """
    n_anchors, n_gts = overlaps.shape
    best_gt = overlaps.argmax(axis=1)  # ties -> lowest gt index
    best = overlaps[np.arange(n_anchors), best_gt]  # = max, but cheaper
    if n_gts >= 2:
        second = np.partition(overlaps, n_gts - 2, axis=1)[:, n_gts - 2]
    else:
        second = np.zeros(n_anchors)

    # The rules of assign_targets in precedence order: the first that holds wins.
    reaches = best >= DONTCARE_IOU
    rules = np.select(
        [outside & reaches,
         reaches & (second >= DONTCARE_IOU) & (best - second < AMBIGUITY_GAP),
         best > ACTIVE_IOU,
         best > DONTCARE_IOU],
        _THRESHOLD_RULES,
        np.int8(AssignRule.DEFAULT),
    )
    active = rules == AssignRule.BEST
    assigned_gt = np.where(active, best_gt, -1)

    # Unassigned ground truths adopt their best anchor, provided that
    # anchor is only a default-inactive or band don't-care. Border and
    # ambiguity states, and anchors already active for another object,
    # are never overridden.
    has_active = np.zeros(n_gts, dtype=bool)
    has_active[best_gt[active]] = True
    for g in range(n_gts):
        if has_active[g]:
            continue
        col = overlaps[:, g]
        a_star = int(col.argmax())  # ties -> lowest anchor index
        if col[a_star] > DONTCARE_IOU and rules[a_star] in (
            AssignRule.DEFAULT,
            AssignRule.BAND,
        ):
            rules[a_star] = AssignRule.FALLBACK
            assigned_gt[a_star] = g
    return rules, assigned_gt


def assign_targets_detailed(
    grid: AnchorGrid,
    gts: Sequence[GroundTruthObject],
    image_w: int,
    image_h: int,
) -> tuple[AnchorTargetArrays, np.ndarray]:
    """Like :func:`assign_targets` but also returns the per-anchor rule ids (int8 :class:`AssignRule` codes).

    Anchors that reach ``DONTCARE_IOU`` against no object keep
    :attr:`AssignRule.DEFAULT` without entering the rules.
    """
    if grid.image_w != image_w or grid.image_h != image_h:
        raise ValueError(
            f"grid was built for {grid.image_w}x{grid.image_h}, "
            f"not {image_w}x{image_h}"
        )
    boxes, class_ids, instance_ids = [], [], []
    for g in gts:
        b = g.bbox
        boxes.append((b.x_min, b.y_min, b.x_max, b.y_max))
        class_ids.append(g.class_id)
        instance_ids.append(g.instance_id)
    if len(set(instance_ids)) != len(instance_ids):
        raise ValueError(f"instance ids must be unique within an image, got {instance_ids}")

    gt_boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    # Every rule but the default needs an IoU >= DONTCARE_IOU, so all other
    # anchors stay default. The live rows hold the same IoUs as on the whole
    # lattice wherever they reach DONTCARE_IOU, and ``live`` is sorted, so
    # argmax ties still go to the lowest anchor index.
    live, overlaps = _live_anchors(grid, gt_boxes)
    rules = np.full(len(grid), AssignRule.DEFAULT, dtype=np.int8)
    idx = owner = np.zeros(0, dtype=np.int64)
    if live.size:
        live_rules, assigned_gt = _apply_rules(overlaps, grid.outside[live])
        rules[live] = live_rules
        hit = np.flatnonzero(assigned_gt >= 0)
        idx, owner = live[hit], assigned_gt[hit]

    return AnchorTargetArrays(rules, idx, np.array(class_ids, dtype=np.int64)[owner],
                              encode_array(grid.boxes[idx], gt_boxes[owner]),
                              np.array(instance_ids, dtype=np.int64)[owner]), rules


def assign_targets(
    grid: AnchorGrid,
    gts: Sequence[GroundTruthObject],
    image_w: int,
    image_h: int,
) -> AnchorTargetArrays:
    """Assign a training state to every anchor of the grid.

    Per anchor, with ``b1``/``b2`` the best and second-best IoU over the
    ground truths, the first matching rule wins:

    1. default: inactive.
    2. the anchor extends outside the image and ``b1 >= DONTCARE_IOU``:
       don't-care.
    3. ``b1 >= DONTCARE_IOU`` and ``b2 >= DONTCARE_IOU`` and
       ``b1 - b2 < AMBIGUITY_GAP``: inactive (two objects compete and the
       regression target would average out between them).
    4. ``b1 > ACTIVE_IOU``: active for the best ground truth (lowest index
       on ties).
    5. ``DONTCARE_IOU < b1 <= ACTIVE_IOU``: don't-care.

    Afterwards every ground truth without an active anchor adopts its
    highest-IoU anchor if that IoU exceeds ``DONTCARE_IOU`` and the anchor is
    in state 1 or 5; this catches small objects falling between the lattice.

    Only the anchors that reach ``DONTCARE_IOU`` against some object are
    evaluated: a size bound skips the template/object pairs that cannot,
    and each remaining pair computes IoUs only in a window of cells around
    its object. The window holds every cell whose anchor can reach
    ``DONTCARE_IOU``, since that IoU needs a minimum overlap along each
    axis, plus one cell on each side against rounding. The targets equal
    those of the whole lattice, because rules 2-5 and the fallback each
    need an IoU of at least ``DONTCARE_IOU``, every such IoU is computed
    with the same arithmetic, and ties still go to the lowest index.
    """
    targets, _ = assign_targets_detailed(grid, gts, image_w, image_h)
    return targets


@dataclass(frozen=True)
class TargetSummary:
    inactive: int
    dontcare: int
    active: int
    active_per_class: dict[int, int]

    @property
    def total(self) -> int:
        return self.inactive + self.dontcare + self.active


def summarize_targets(targets: AnchorTargetArrays) -> TargetSummary:
    """Count anchors per state and active anchors per class."""
    # int8 comparisons: np.bincount would copy the codes to intp, and an IntEnum operand is ~3x slower
    codes = (np.int8(AssignRule.BORDER), np.int8(AssignRule.BAND))
    dontcare = sum(int(np.count_nonzero(targets.rules == code)) for code in codes)
    classes, counts = np.unique(targets.active_classes, return_counts=True)
    return TargetSummary(
        inactive=len(targets) - dontcare - len(targets.active_index),
        dontcare=dontcare,
        active=len(targets.active_index),
        active_per_class=dict(zip(classes.tolist(), counts.tolist())),
    )
