"""Desk-scale multi-task training loop.

Each iteration takes one sample (cycling through the dataset), runs the
forward pass, evaluates the per-task losses against precomputed anchor
targets, combines them with learned uncertainty weights, back-propagates,
and applies one Adam step under the polynomial LR schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..assign import AnchorTargetArrays, AssignConfig, GroundTruthObject, assign_targets
from ..geom import AnchorGrid
from ..losses import (
    IGNORE,
    TASK_NAMES,
    FocalParams,
    LrSchedule,
    TaskUncertainty,
    contrastive_loss,
    cross_entropy,
    focal_loss,
    kendall_total,
    poly_lr,
    smooth_l1,
)
from .layers import Param
from .model import DetSegModel, flatten_per_anchor, unflatten_per_anchor
from .optim import AdamState, adam_step

__all__ = ["TrainSample", "TrainResult", "prepare_targets", "train_toy"]

SEG_IGNORE = 255


@dataclass
class TrainSample:
    """One training image with its dense labels and object annotations."""

    image: np.ndarray          # (3, H, W) float64 in [0, 1]
    label_map: np.ndarray      # (H, W) integer class ids, 255 = ignore
    gts: list[GroundTruthObject]


def prepare_targets(targets: AnchorTargetArrays) -> AnchorTargetArrays:
    """Return the targets unchanged: :func:`assign_targets` already builds the dense record."""
    return targets


@dataclass
class TrainResult:
    history: list[dict]
    model: DetSegModel
    uncertainty: TaskUncertainty
    iterations_run: int


_HEAD_OF_TASK = {
    "objectness": "objectness",
    "class": "class_scores",
    "box": "box_deltas",
    "embedding": "embeddings",
    "segmentation": "seg_logits",
}


def train_toy(
    samples: Sequence[TrainSample],
    model: DetSegModel,
    grid: AnchorGrid,
    schedule: LrSchedule,
    iterations: int,
    assign_cfg: AssignConfig = AssignConfig(),
    tasks: Sequence[str] = TASK_NAMES,
    focal: FocalParams = FocalParams(),
    margin: float = 1.0,
    freeze_stats_after: Optional[int] = None,
    stop_check: Optional[Callable[[int, DetSegModel], bool]] = None,
    stop_check_every: int = 0,
) -> TrainResult:
    """Overfit the model on a handful of images.

    ``iterations`` is the number of optimizer steps; step ``i`` trains on
    ``samples[i % len(samples)]``. Anchor targets are assigned once up
    front. Batch-norm statistics are frozen after ``freeze_stats_after``
    steps (default: half the budget) so that the rest of the run trains
    against the statistics inference will use. ``stop_check`` may end
    training early (checked every ``stop_check_every`` steps); the schedule
    always spans ``iterations``.
    """
    if not samples:
        raise ValueError("need at least one training sample")
    unknown = set(tasks) - set(TASK_NAMES)
    if unknown:
        raise ValueError(f"unknown tasks: {sorted(unknown)}")
    if schedule.max_iter < iterations:
        raise ValueError(f"schedule.max_iter={schedule.max_iter} is shorter than {iterations} iterations")

    n_templates = len(grid.templates)
    if n_templates != model.config.anchors_per_cell:
        raise ValueError(
            f"grid has {n_templates} templates per cell but the model expects "
            f"{model.config.anchors_per_cell}"
        )

    prepared = [
        assign_targets(grid, s.gts, s.label_map.shape[1], s.label_map.shape[0], assign_cfg)
        for s in samples
    ]

    uncertainty = TaskUncertainty()
    s_param = Param(uncertainty.s)
    uncertainty.s = s_param.data  # share storage so updates are visible
    opt_params = model.parameters() + [s_param]
    opt_state = AdamState.for_params(opt_params)
    enabled = tuple(t for t in TASK_NAMES if t in tasks)

    if freeze_stats_after is None:
        freeze_stats_after = iterations // 2

    history: list[dict] = []
    iterations_run = 0
    for it in range(iterations):
        if it == freeze_stats_after:
            model.freeze_batchnorm_stats()
        sample = samples[it % len(samples)]
        arrays = prepared[it % len(samples)]
        outputs = model.forward(sample.image[None], training=True)

        n_classes = model.config.num_classes
        seg = outputs["seg_logits"].data[0]
        seg_rows = seg.transpose(1, 2, 0).reshape(-1, n_classes)
        obj_rows = flatten_per_anchor(outputs["objectness"].data[0], n_templates)
        cls_rows = flatten_per_anchor(outputs["class_scores"].data[0], n_templates)
        box_rows = flatten_per_anchor(outputs["box_deltas"].data[0], n_templates)
        emb_rows = flatten_per_anchor(outputs["embeddings"].data[0], n_templates)

        n_active = int(arrays.active.sum())
        task_values: dict[str, float] = {}
        task_grads: dict[str, np.ndarray] = {}

        if "objectness" in enabled and np.any(arrays.labels != IGNORE):
            value, grad = focal_loss(obj_rows, arrays.labels, focal)
            task_values["objectness"], task_grads["objectness"] = value, grad
        if "class" in enabled and n_active > 0:
            value, grad = cross_entropy(cls_rows, arrays.class_targets, ignore=-1)
            task_values["class"], task_grads["class"] = value, grad
        if "box" in enabled and n_active > 0:
            value, grad = smooth_l1(box_rows, arrays.deltas, arrays.active)
            task_values["box"], task_grads["box"] = value, grad
        if "embedding" in enabled and n_active >= 2:
            value, grad_active = contrastive_loss(
                emb_rows[arrays.active], arrays.instance_ids[arrays.active], margin
            )
            grad = np.zeros_like(emb_rows)
            grad[arrays.active] = grad_active
            task_values["embedding"], task_grads["embedding"] = value, grad
        if "segmentation" in enabled and np.any(sample.label_map != SEG_IGNORE):
            value, grad = cross_entropy(seg_rows, sample.label_map.reshape(-1), ignore=SEG_IGNORE)
            task_values["segmentation"], task_grads["segmentation"] = value, grad

        applicable = [t for t in TASK_NAMES if t in task_values]
        for t in applicable:
            if not np.isfinite(task_values[t]):
                raise RuntimeError(f"non-finite {t} loss at iteration {it}: {task_values[t]}")

        idx = np.array([TASK_NAMES.index(t) for t in applicable], dtype=np.int64)
        total, weights, ds = kendall_total(
            [task_values[t] for t in applicable], s_param.data[idx]
        )
        if not np.isfinite(total):
            raise RuntimeError(f"non-finite total loss at iteration {it}")

        upstream: dict[str, np.ndarray] = {}
        grid_rows, grid_cols = grid.rows, grid.cols
        for weight, task in zip(weights, applicable):
            grad = task_grads[task] * weight
            head = _HEAD_OF_TASK[task]
            if task == "segmentation":
                upstream[head] = grad.reshape(seg.shape[1], seg.shape[2], n_classes).transpose(2, 0, 1)[None]
            else:
                upstream[head] = unflatten_per_anchor(grad, n_templates, grid_rows, grid_cols)[None]

        model.zero_grad()
        s_param.grad[...] = 0.0
        s_param.grad[idx] = ds
        model.backward(upstream)
        adam_step(opt_params, opt_state, poly_lr(it, schedule))

        entry = {"iteration": it, "lr": poly_lr(it, schedule), "total": total}
        for t in TASK_NAMES:
            entry[t] = task_values.get(t)
        history.append(entry)
        iterations_run = it + 1

        if stop_check is not None and stop_check_every > 0 and (it + 1) % stop_check_every == 0:
            if stop_check(it + 1, model):
                break

    return TrainResult(history=history, model=model, uncertainty=uncertainty, iterations_run=iterations_run)
