"""Per-anchor training target generation.

Each anchor ends up in exactly one of three states: inactive (supervised
background), don't-care (excluded from every loss), or active (supervised
positive carrying class, regression delta and instance id). The rules are
applied in a fixed precedence order; see :func:`assign_targets`. The result
is one dense record with a row per anchor, :class:`AnchorTargetArrays`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np

from .geom import AnchorGrid, BBox, encode_array, iou_matrix
from .losses import BACKGROUND, FOREGROUND, IGNORE

__all__ = [
    "AssignRule",
    "GroundTruthObject",
    "AnchorTargetArrays",
    "AssignConfig",
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
_STATE_OF_LABEL = {BACKGROUND: "inactive", IGNORE: "dontcare", FOREGROUND: "active"}


@dataclass(frozen=True)
class GroundTruthObject:
    """One annotated object: detection class, box, and per-image instance id."""

    class_id: int
    bbox: BBox
    instance_id: int
    occlusion: Optional[int] = None
    truncation: Optional[float] = None

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")
        if self.instance_id < 0:
            raise ValueError(f"instance_id must be non-negative, got {self.instance_id}")
        if self.bbox.area <= 0:
            raise ValueError(f"ground truth box must have positive area: {self.bbox}")


@dataclass
class AnchorTargetArrays:
    """Dense per-anchor training targets, one row per anchor of the grid."""

    labels: np.ndarray         # (A,) FOREGROUND (active) / BACKGROUND (inactive) / IGNORE (don't-care)
    class_targets: np.ndarray  # (A,) class id for active anchors, else -1
    deltas: np.ndarray         # (A, 4) regression targets, zero when not active
    active: np.ndarray         # (A,) bool
    instance_ids: np.ndarray   # (A,) instance id for active anchors, else -1

    def __len__(self) -> int:
        return len(self.labels)

    def states(self) -> list[str]:
        """Per-anchor state names as written by the CLI: inactive, dontcare or active."""
        return [_STATE_OF_LABEL[label] for label in self.labels.tolist()]


@dataclass(frozen=True)
class AssignConfig:
    """IoU thresholds of the assignment procedure."""

    active_iou: float = 0.5
    dontcare_iou: float = 0.4
    ambiguity_gap: float = 0.2

    def __post_init__(self) -> None:
        if not (0.0 <= self.dontcare_iou < self.active_iou <= 1.0):
            raise ValueError(f"need 0 <= dontcare_iou < active_iou <= 1, got {self}")
        if self.ambiguity_gap <= 0:
            raise ValueError(f"ambiguity_gap must be positive, got {self.ambiguity_gap}")


def _check_unique_instances(gts: Sequence[GroundTruthObject]) -> None:
    ids = [g.instance_id for g in gts]
    if len(set(ids)) != len(ids):
        raise ValueError(f"instance ids must be unique within an image, got {ids}")


def assign_targets_detailed(
    grid: AnchorGrid,
    gts: Sequence[GroundTruthObject],
    image_w: int,
    image_h: int,
    cfg: AssignConfig = AssignConfig(),
) -> tuple[AnchorTargetArrays, np.ndarray]:
    """Like :func:`assign_targets` but also returns the per-anchor rule ids."""
    if grid.image_w != image_w or grid.image_h != image_h:
        raise ValueError(
            f"grid was built for {grid.image_w}x{grid.image_h}, "
            f"not {image_w}x{image_h}"
        )
    _check_unique_instances(gts)

    n_anchors = len(grid)
    rules = np.full(n_anchors, AssignRule.DEFAULT, dtype=np.int64)
    assigned_gt = np.full(n_anchors, -1, dtype=np.int64)
    n_gts = len(gts)

    if n_gts > 0:
        overlaps = iou_matrix(grid.boxes, [g.bbox for g in gts])
        best_gt = overlaps.argmax(axis=1)  # ties -> lowest gt index
        best = np.take_along_axis(overlaps, best_gt[:, None], axis=1)[:, 0]  # = max, but cheaper
        if n_gts >= 2:
            second = np.partition(overlaps, n_gts - 2, axis=1)[:, n_gts - 2]
        else:
            second = np.zeros(n_anchors)

        border = grid.outside & (best >= cfg.dontcare_iou)
        ambiguous = (
            ~border
            & (best >= cfg.dontcare_iou)
            & (second >= cfg.dontcare_iou)
            & ((best - second) < cfg.ambiguity_gap)
        )
        active = ~border & ~ambiguous & (best > cfg.active_iou)
        band = ~border & ~ambiguous & ~active & (best > cfg.dontcare_iou)

        rules[border] = AssignRule.BORDER
        rules[ambiguous] = AssignRule.AMBIGUOUS
        rules[active] = AssignRule.BEST
        rules[band] = AssignRule.BAND
        assigned_gt[active] = best_gt[active]

        # Unassigned ground truths adopt their best anchor, provided that
        # anchor is only a default-inactive or band don't-care. Border and
        # ambiguity states, and anchors already active for another object,
        # are never overridden.
        has_active = np.zeros(n_gts, dtype=bool)
        has_active[np.unique(assigned_gt[active])] = True
        for g in range(n_gts):
            if has_active[g]:
                continue
            col = overlaps[:, g]
            a_star = int(col.argmax())  # ties -> lowest anchor index
            if col[a_star] > cfg.dontcare_iou and rules[a_star] in (
                AssignRule.DEFAULT,
                AssignRule.BAND,
            ):
                rules[a_star] = AssignRule.FALLBACK
                assigned_gt[a_star] = g

    labels = _LABEL_OF_RULE[rules]
    active = labels == FOREGROUND
    idx = np.flatnonzero(active)
    owner = assigned_gt[idx]
    class_targets = np.full(n_anchors, -1, dtype=np.int64)
    class_targets[idx] = np.array([g.class_id for g in gts], dtype=np.int64)[owner]
    instance_ids = np.full(n_anchors, -1, dtype=np.int64)
    instance_ids[idx] = np.array([g.instance_id for g in gts], dtype=np.int64)[owner]
    gt_boxes = np.array([g.bbox.as_array() for g in gts], dtype=np.float64).reshape(-1, 4)
    deltas = np.zeros((n_anchors, 4), dtype=np.float64)
    deltas[idx] = encode_array(grid.boxes[idx], gt_boxes[owner])
    return AnchorTargetArrays(labels, class_targets, deltas, active, instance_ids), rules


def assign_targets(
    grid: AnchorGrid,
    gts: Sequence[GroundTruthObject],
    image_w: int,
    image_h: int,
    cfg: AssignConfig = AssignConfig(),
) -> AnchorTargetArrays:
    """Assign a training state to every anchor of the grid.

    Per anchor, with ``b1``/``b2`` the best and second-best IoU over the
    ground truths, the first matching rule wins:

    1. default: inactive.
    2. the anchor extends outside the image and ``b1 >= dontcare_iou``:
       don't-care.
    3. ``b1 >= dontcare_iou`` and ``b2 >= dontcare_iou`` and
       ``b1 - b2 < ambiguity_gap``: inactive (two objects compete and the
       regression target would average out between them).
    4. ``b1 > active_iou``: active for the best ground truth (lowest index
       on ties).
    5. ``dontcare_iou < b1 <= active_iou``: don't-care.

    Afterwards every ground truth without an active anchor adopts its
    highest-IoU anchor if that IoU exceeds ``dontcare_iou`` and the anchor is
    in state 1 or 5; this catches small objects falling between the lattice.
    """
    targets, _ = assign_targets_detailed(grid, gts, image_w, image_h, cfg)
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
    classes, counts = np.unique(targets.class_targets[targets.active], return_counts=True)
    return TargetSummary(
        inactive=int(np.count_nonzero(targets.labels == BACKGROUND)),
        dontcare=int(np.count_nonzero(targets.labels == IGNORE)),
        active=int(np.count_nonzero(targets.active)),
        active_per_class=dict(zip(classes.tolist(), counts.tolist())),
    )
