"""Desk-scale multi-task training loop and its objective.

Each iteration takes one sample (cycling through the dataset), runs the
forward pass, evaluates :func:`objective` (the per-task losses against
precomputed anchor targets, combined with learned uncertainty weights),
back-propagates, and applies one Adam step under the polynomial LR schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ..assign import _LABEL_OF_RULE, AnchorTargetArrays, GroundTruthObject, assign_targets
from ..geom import AnchorGrid
from ..losses import (
    IGNORE,
    SEG_IGNORE,
    TASK_NAMES,
    LrSchedule,
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

__all__ = ["TrainSample", "TrainResult", "prepare_targets", "objective", "train_toy"]


@dataclass
class TrainSample:
    """One training image with its dense labels and object annotations."""

    image: np.ndarray          # (3, H, W) float64 in [0, 1]
    label_map: np.ndarray      # (H, W) integer class ids, 255 = ignore
    gts: list[GroundTruthObject]


def prepare_targets(targets: AnchorTargetArrays) -> AnchorTargetArrays:
    """Return the targets unchanged: :func:`assign_targets` already builds the record training reads."""
    return targets


@dataclass
class TrainResult:
    history: list[dict]
    s: np.ndarray              # learned log-variance per task, in TASK_NAMES order
    iterations_run: int


def objective(
    outputs: Mapping[str, np.ndarray],
    targets: AnchorTargetArrays,
    label_map: np.ndarray,
    s: np.ndarray,
    tasks: Sequence[str] = TASK_NAMES,
) -> tuple[float, dict[str, float], dict[str, np.ndarray], np.ndarray]:
    """One image's multi-task loss ``sum_k exp(-s_k) L_k + s_k / 2`` and its gradients.

    ``outputs`` maps each head to the image's (C, H, W) output, from whose
    shapes the templates per cell and the grid size are read; ``s`` holds a
    log-variance per task in ``TASK_NAMES`` order. This is the one place that
    picks the rows a loss counts: objectness the anchors that are not
    don't-care, class, box and embedding the active anchors, segmentation the
    labelled pixels. Each loss is given only those rows and averages over
    them. A task in ``tasks`` applies when it has rows to average: one, or two
    for the embedding's pairs. Returns ``(total, values, upstream, ds)``: the
    total over the applicable tasks, their losses by name, the gradient in
    each head they read (zero in the rows not counted; other heads are
    absent), and the gradient in all of ``s`` (zero where a task does not
    apply). A non-finite loss raises RuntimeError naming the task.
    """
    templates, grid_rows, grid_cols = outputs["objectness"].shape
    anchors = (templates // 2, grid_rows, grid_cols)
    # the segmentation head in the same row layout: a lattice of one-pixel cells of one template each
    pixels = (1, *outputs["seg_logits"].shape[1:])
    labels = _LABEL_OF_RULE[targets.rules]
    seg_targets = label_map.reshape(-1)
    scored, labelled = np.flatnonzero(labels != IGNORE), np.flatnonzero(seg_targets != SEG_IGNORE)
    active = targets.active_index
    # task: (head, its lattice, the rows counted, their targets, loss, fewest rows the loss averages)
    table = {
        "objectness": ("objectness", anchors, scored, labels[scored], focal_loss, 1),
        "class": ("class_scores", anchors, active, targets.active_classes, cross_entropy, 1),
        "box": ("box_deltas", anchors, active, targets.active_deltas, smooth_l1, 1),
        "embedding": ("embeddings", anchors, active, targets.active_instances, contrastive_loss, 2),
        "segmentation": ("seg_logits", pixels, labelled, seg_targets[labelled], cross_entropy, 1),
    }

    values: dict[str, float] = {}
    task_grads: dict[str, np.ndarray] = {}
    for task, (head, lattice, rows, task_targets, loss, fewest) in table.items():
        if task in tasks and len(rows) >= fewest:
            head_rows = flatten_per_anchor(outputs[head], lattice[0])
            values[task], compact = loss(head_rows[rows], task_targets)
            # zeros_like keeps the memory layout of the head rows, on which the rounding of backward depends
            task_grads[task] = np.zeros_like(head_rows)
            task_grads[task][rows] = compact

    for task, value in values.items():
        if not np.isfinite(value):
            raise RuntimeError(f"non-finite {task} loss")
    idx = np.array([TASK_NAMES.index(t) for t in values], dtype=np.int64)
    total, weights, ds_applicable = kendall_total(list(values.values()), s[idx])
    if not np.isfinite(total):
        raise RuntimeError("non-finite total loss")
    ds = np.zeros(len(TASK_NAMES))
    ds[idx] = ds_applicable

    upstream: dict[str, np.ndarray] = {}
    for weight, task in zip(weights, values):
        head, lattice = table[task][:2]
        upstream[head] = unflatten_per_anchor(task_grads[task] * weight, *lattice)
    return total, values, upstream, ds


def train_toy(
    samples: Sequence[TrainSample],
    model: DetSegModel,
    grid: AnchorGrid,
    schedule: LrSchedule,
    iterations: int,
    tasks: Sequence[str] = TASK_NAMES,
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
    always spans ``iterations``. A non-finite loss raises RuntimeError
    naming the task and the iteration.
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
        assign_targets(grid, s.gts, s.label_map.shape[1], s.label_map.shape[0])
        for s in samples
    ]

    s_param = Param(np.zeros(len(TASK_NAMES)))
    opt_params = [model.flat_params(), s_param]
    opt_state = AdamState.for_params(opt_params)

    if freeze_stats_after is None:
        freeze_stats_after = iterations // 2

    history: list[dict] = []
    iterations_run = 0
    for it in range(iterations):
        if it == freeze_stats_after:
            model.freeze_batchnorm_stats()
        sample = samples[it % len(samples)]
        outputs = model.forward(sample.image[None], training=True)
        try:
            total, values, upstream, ds = objective(
                {head: out.data[0] for head, out in outputs.items()}, prepared[it % len(samples)],
                sample.label_map, s_param.data, tasks)
        except RuntimeError as exc:
            raise RuntimeError(f"{exc} at iteration {it}") from None

        model.zero_grad()
        s_param.grad[...] = ds
        model.backward({head: grad[None] for head, grad in upstream.items()})
        lr = poly_lr(it, schedule)
        adam_step(opt_params, opt_state, lr)

        history.append({"iteration": it, "lr": lr, "total": total,
                        **{t: values.get(t) for t in TASK_NAMES}})
        iterations_run = it + 1

        if stop_check is not None and stop_check_every > 0 and (it + 1) % stop_check_every == 0:
            if stop_check(it + 1, model):
                break

    return TrainResult(history=history, s=s_param.data, iterations_run=iterations_run)
