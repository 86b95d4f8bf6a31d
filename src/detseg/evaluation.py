"""Evaluation protocols: segmentation IoU / iIoU and detection PR / AP.

Segmentation metrics come from a pixelwise confusion matrix; the
instance-weighted iIoU additionally weights every ground-truth-instance
pixel by (average instance size of the class) / (size of that instance),
leaving false positives unweighted. Detection AP follows the classic
tooling: greedy score-ordered matching per image, difficulty levels that
turn filtered ground truths into don't-care regions, and 11-point
interpolated average precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .assign import GroundTruthObject
from .geom import iou_matrix
from .losses import SEG_IGNORE
from .post import Detections

__all__ = [
    "SegMetrics",
    "PredictionIdError",
    "seg_confusion",
    "collect_instance_stats",
    "seg_metrics",
    "pixel_accuracy",
    "DifficultyLevel",
    "cityscapes_adjusted_levels",
    "kitti_levels",
    "MatchResult",
    "match_detections",
    "PRCurve",
    "average_precision",
    "evaluate_detections",
    "DEFAULT_IOU_THRESHOLDS",
]

# Matching thresholds of the classic benchmark tool; everything else
# defaults to 0.5.
DEFAULT_IOU_THRESHOLDS = {"car": 0.7, "pedestrian": 0.5, "person": 0.5}


class PredictionIdError(ValueError):
    """A prediction holds a class id outside the class range, where the ground truth is labelled."""


def seg_confusion(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """Count matrix with entry (g, p) = pixels of gt class g predicted as p.

    Pixels whose ground truth is the ignore id are excluded entirely. An
    out-of-range prediction id raises :class:`PredictionIdError`, any other
    fault a plain ValueError.
    """
    if pred.shape != gt.shape:
        raise ValueError(f"prediction {pred.shape} and ground truth {gt.shape} differ in size")
    valid = gt != SEG_IGNORE
    g_valid = gt[valid].astype(np.int64)
    p_valid = pred[valid].astype(np.int64)
    if g_valid.size and (g_valid.min() < 0 or g_valid.max() >= num_classes):
        raise ValueError(f"ground truth ids outside [0, {num_classes})")
    if p_valid.size and (p_valid.min() < 0 or p_valid.max() >= num_classes):
        raise PredictionIdError(f"prediction ids outside [0, {num_classes})")
    counts = np.bincount(g_valid * num_classes + p_valid, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def pixel_accuracy(pred: np.ndarray, gt: np.ndarray) -> float:
    """Fraction of non-ignored pixels predicted correctly."""
    valid = gt != SEG_IGNORE
    total = int(valid.sum())
    if total == 0:
        return 1.0
    return float((pred[valid] == gt[valid]).sum() / total)


# instance stats: class id -> list of (instance size, correctly predicted pixels)
InstanceStats = Mapping[int, Sequence[tuple[int, int]]]


def collect_instance_stats(
    pred: np.ndarray,
    gt: np.ndarray,
    gt_instances: np.ndarray,
    class_ids: Sequence[int],
) -> dict[int, list[tuple[int, int]]]:
    """Per-instance (size, matched-pixel) pairs for the given classes.

    ``gt_instances`` assigns a positive instance id to every instance pixel
    and 0 elsewhere.
    """
    if pred.shape != gt.shape or gt_instances.shape != gt.shape:
        raise ValueError("prediction, ground truth and instance map sizes differ")
    wanted = set(int(c) for c in class_ids)
    stats: dict[int, list[tuple[int, int]]] = {c: [] for c in wanted}
    for instance_id in np.unique(gt_instances):
        if instance_id == 0:
            continue
        region = gt_instances == instance_id
        classes = np.unique(gt[region])
        if len(classes) != 1:
            raise ValueError(f"instance {instance_id} spans multiple classes: {classes.tolist()}")
        class_id = int(classes[0])
        if class_id not in wanted:
            continue
        size = int(region.sum())
        matched = int((pred[region] == class_id).sum())
        stats[class_id].append((size, matched))
    return stats


@dataclass(frozen=True)
class SegMetrics:
    """Per-class and aggregate segmentation scores; None marks absent classes."""

    iou: dict[int, Optional[float]]
    iiou: dict[int, Optional[float]]
    mean_iou: Optional[float]
    mean_iiou: Optional[float]
    category_iou: dict[str, Optional[float]] = field(default_factory=dict)
    category_iiou: dict[str, Optional[float]] = field(default_factory=dict)


def _iou_from_counts(tp: float, fp: float, fn: float) -> Optional[float]:
    denom = tp + fp + fn
    if denom == 0:
        return None
    return tp / denom


def _weighted_iou(instances: Sequence[tuple[int, int]], fp: float) -> Optional[float]:
    if not instances:
        return None
    sizes = np.array([s for s, _ in instances], dtype=np.float64)
    matched = np.array([m for _, m in instances], dtype=np.float64)
    weights = sizes.mean() / sizes
    itp = float((weights * matched).sum())
    ifn = float((weights * (sizes - matched)).sum())
    return _iou_from_counts(itp, fp, ifn)


def _mean_present(values) -> Optional[float]:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(np.mean(present))


def seg_metrics(
    confusion: np.ndarray,
    instance_stats: Optional[InstanceStats] = None,
    categories: Optional[Mapping[str, Sequence[int]]] = None,
) -> SegMetrics:
    """Reduce a confusion matrix (and optional instance stats) to scores.

    ``IoU_c = TP / (TP + FP + FN)``; ``iIoU_c`` replaces TP and FN by their
    instance-weighted counterparts. ``categories`` maps a category name to
    the class ids it merges; category scores are computed on the merged
    confusion matrix and the pooled instances of those classes.
    """
    confusion = np.asarray(confusion, dtype=np.float64)
    n = confusion.shape[0]
    if confusion.shape != (n, n):
        raise ValueError(f"confusion matrix must be square, got {confusion.shape}")

    diag = np.diag(confusion)
    fp = confusion.sum(axis=0) - diag
    fn = confusion.sum(axis=1) - diag
    iou = {c: _iou_from_counts(diag[c], fp[c], fn[c]) for c in range(n)}

    iiou: dict[int, Optional[float]] = {}
    if instance_stats is not None:
        for c, instances in instance_stats.items():
            iiou[int(c)] = _weighted_iou(instances, fp[int(c)])

    category_iou: dict[str, Optional[float]] = {}
    category_iiou: dict[str, Optional[float]] = {}
    if categories is not None:
        ids_of = {name: np.asarray(list(ids), dtype=np.int64) for name, ids in categories.items()}
        for name, ids in ids_of.items():
            merged_tp = confusion[np.ix_(ids, ids)].sum()
            cat_fp = confusion[:, ids].sum() - confusion[np.ix_(ids, ids)].sum()
            cat_fn = confusion[ids, :].sum() - confusion[np.ix_(ids, ids)].sum()
            category_iou[name] = _iou_from_counts(merged_tp, cat_fp, cat_fn)
            if instance_stats is not None:
                pooled = [pair for c in ids.tolist() for pair in instance_stats.get(c, [])]
                category_iiou[name] = _weighted_iou(pooled, cat_fp)

    return SegMetrics(
        iou=iou,
        iiou=iiou,
        mean_iou=_mean_present(iou.values()),
        mean_iiou=_mean_present(iiou.values()),
        category_iou=category_iou,
        category_iiou=category_iiou,
    )


@dataclass(frozen=True)
class DifficultyLevel:
    """Filter deciding which ground truths count toward recall.

    Filtered-out objects become don't-care: detections matching only them
    are neither true nor false positives.
    """

    name: str
    min_height: float
    min_width: Optional[float] = None
    max_occlusion: Optional[int] = None
    max_truncation: Optional[float] = None

    def counts(self, gt: GroundTruthObject) -> bool:
        if gt.bbox.height < self.min_height:
            return False
        if self.min_width is not None and gt.bbox.width < self.min_width:
            return False
        if self.max_occlusion is not None:
            occlusion = 0 if gt.occlusion is None else gt.occlusion
            if occlusion > self.max_occlusion:
                return False
        if self.max_truncation is not None:
            truncation = 0.0 if gt.truncation is None else gt.truncation
            if truncation > self.max_truncation:
                return False
        return True


def cityscapes_adjusted_levels() -> tuple[DifficultyLevel, ...]:
    """Size-only difficulty levels for datasets without occlusion labels."""
    return (
        DifficultyLevel("easy", min_height=100, min_width=100),
        DifficultyLevel("moderate", min_height=50, min_width=50),
        DifficultyLevel("hard", min_height=10, min_width=10),
    )


def kitti_levels() -> tuple[DifficultyLevel, ...]:
    """The official height / occlusion / truncation difficulty presets."""
    return (
        DifficultyLevel("easy", min_height=40, max_occlusion=0, max_truncation=0.15),
        DifficultyLevel("moderate", min_height=25, max_occlusion=1, max_truncation=0.30),
        DifficultyLevel("hard", min_height=25, max_occlusion=2, max_truncation=0.50),
    )


TP, FP, IGNORED = "tp", "fp", "ignored"


@dataclass(frozen=True)
class MatchResult:
    flags: np.ndarray           # "tp" / "fp" / "ignored", aligned with the input rows
    counted: dict[int, int]     # per class, ground truths passing the level


def match_detections(
    dets: Detections,
    gts: Sequence[GroundTruthObject],
    iou_thresholds: Mapping[int, float],
    level: DifficultyLevel,
) -> MatchResult:
    """Greedily match one image's detections against its ground truths.

    ``iou_thresholds`` maps every class id of the detections and ground
    truths to its matching threshold. Detections are processed per class in descending score order. Each may
    claim at most one still-unmatched counted ground truth (highest IoU at or
    above the class threshold, the earliest on ties); otherwise, if it
    overlaps a don't-care ground truth at the threshold it is ignored;
    otherwise it is a false positive. Detections without any counted ground
    truth at the threshold are settled at once; only the rest are matched
    one by one.
    """
    flags = np.full(len(dets), FP, dtype="<U7")
    gt_classes = np.array([g.class_id for g in gts], dtype=np.int64)
    gt_counts = np.array([level.counts(g) for g in gts], dtype=bool)
    gt_boxes = np.array([g.bbox.as_array() for g in gts], dtype=np.float64).reshape(-1, 4)
    counted_totals: dict[int, int] = {}
    for class_id in sorted(set(gt_classes.tolist()) | set(dets.class_ids.tolist())):
        det_idx = np.flatnonzero(dets.class_ids == class_id)
        det_idx = det_idx[np.argsort(-dets.scores[det_idx], kind="stable")]
        of_class = gt_classes == class_id
        counted = int(np.count_nonzero(of_class & gt_counts))
        counted_totals[class_id] = counted
        if not det_idx.size:
            continue

        threshold = iou_thresholds[class_id]
        # counted ground truths first, then the don't-care ones
        columns = np.concatenate([np.flatnonzero(of_class & gt_counts), np.flatnonzero(of_class & ~gt_counts)])
        overlaps = iou_matrix(dets.boxes[det_idx], gt_boxes[columns])
        near = overlaps >= threshold
        contested = near[:, :counted].any(axis=1)
        ignored = near[:, counted:].any(axis=1)
        flags[det_idx[ignored]] = IGNORED
        matched = np.zeros(counted, dtype=bool)
        for row in np.flatnonzero(contested).tolist():
            candidates = np.where(matched, -np.inf, overlaps[row, :counted])
            best = int(candidates.argmax())
            if candidates[best] >= threshold:
                matched[best] = True
                flags[det_idx[row]] = TP
    return MatchResult(flags=flags, counted=counted_totals)


@dataclass(frozen=True)
class PRCurve:
    """Precision/recall per score cut plus 11-point interpolated AP."""

    points: list[tuple[float, float]]
    ap: Optional[float]


def average_precision(
    flags: Sequence[str],
    scores: Sequence[float],
    gt_count: int,
) -> PRCurve:
    """PR sweep and 11-point AP for one class.

    ``flags``/``scores`` are aligned detections ("tp" / "fp" / "ignored";
    ignored entries do not enter the curve). With no counted ground truths
    the AP is undefined and reported as None.
    """
    flags = np.asarray(flags, dtype=str)
    scores = np.asarray(scores, dtype=np.float64)
    if len(flags) != len(scores):
        raise ValueError("flags and scores must have equal length")
    if gt_count == 0:
        return PRCurve(points=[], ap=None)

    ranked = flags[np.argsort(-scores, kind="stable")]
    ranked = ranked[ranked != IGNORED]
    tp = np.cumsum(ranked == TP)
    recall = tp / gt_count
    precision = tp / np.arange(1, len(ranked) + 1)
    # best precision at or after each cut; recall never decreases along the sweep
    best_after = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    for k in range(11):
        first = int(np.searchsorted(recall, k / 10.0, side="left"))
        ap += float(best_after[first]) if first < len(ranked) else 0.0
    return PRCurve(points=list(zip(recall.tolist(), precision.tolist())), ap=ap / 11.0)


def evaluate_detections(
    dets_by_image: Mapping[str, Detections],
    gts_by_image: Mapping[str, Sequence[GroundTruthObject]],
    iou_thresholds: Mapping[int, float],
    levels: Sequence[DifficultyLevel],
) -> dict[int, dict[str, PRCurve]]:
    """Match per image, pool the flags, and compute one PR curve per
    (class, difficulty level)."""
    image_ids = sorted(set(dets_by_image) | set(gts_by_image))
    class_ids = sorted(
        {c for dets in dets_by_image.values() for c in dets.class_ids.tolist()}
        | {g.class_id for gts in gts_by_image.values() for g in gts}
    )
    out: dict[int, dict[str, PRCurve]] = {c: {} for c in class_ids}
    for level in levels:
        flags: dict[int, list[np.ndarray]] = {c: [np.zeros(0, dtype=str)] for c in class_ids}
        scores: dict[int, list[np.ndarray]] = {c: [np.zeros(0)] for c in class_ids}
        counts = dict.fromkeys(class_ids, 0)
        for image_id in image_ids:
            dets = dets_by_image.get(image_id, Detections.empty())
            result = match_detections(dets, gts_by_image.get(image_id, []), iou_thresholds, level)
            for c in class_ids:
                rows = dets.class_ids == c
                flags[c].append(result.flags[rows])
                scores[c].append(dets.scores[rows])
                counts[c] += result.counted.get(c, 0)
        for c in class_ids:
            out[c][level.name] = average_precision(np.concatenate(flags[c]), np.concatenate(scores[c]),
                                                   counts[c])
    return out
