"""Run configuration: one JSON document, schema-validated at load time."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import jsonschema

from ..assign import AssignConfig
from ..geom import AnchorTemplate, anchor_preset, preset_names, templates_from_json
from ..losses import TASK_NAMES, LrSchedule
from ..net.model import DOWNSAMPLE, ModelConfig
from .synth import SceneSpec

__all__ = ["RunConfig", "CONFIG_SCHEMA", "load_run_config", "run_config_from_dict", "default_config_dict"]

SEED_ENV_VAR = "NNAD_SEED"

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["seed", "model", "anchors", "training", "dataset"],
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "num_classes": {"type": "integer", "minimum": 2},
                "num_object_classes": {"type": "integer", "minimum": 1},
                "embedding_dim": {"type": "integer", "minimum": 1},
                "stem_channels": {"type": "integer", "minimum": 1},
                "stage_channels": {"type": "array", "items": {"type": "integer", "minimum": 1},
                                   "minItems": 3, "maxItems": 3},
                "stage_blocks": {"type": "array", "items": {"type": "integer", "minimum": 1},
                                 "minItems": 3, "maxItems": 3},
                "dilation": {"type": "integer", "minimum": 1},
                "seg_head_channels": {"type": "array", "items": {"type": "integer", "minimum": 1},
                                      "minItems": 3, "maxItems": 3},
                "det_channels": {"type": "integer", "minimum": 1},
                "conv_kind": {"enum": ["separable", "full"]},
            },
        },
        "anchors": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "stride": {"type": "integer", "minimum": 1},
                "preset": {"type": "string"},
                "templates": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["ratio", "area"],
                        "properties": {
                            "ratio": {"type": "number", "exclusiveMinimum": 0},
                            "area": {"type": "number", "exclusiveMinimum": 0},
                        },
                    },
                },
            },
        },
        "assign": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "active_iou": {"type": "number"},
                "dontcare_iou": {"type": "number"},
                "ambiguity_gap": {"type": "number"},
            },
        },
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "base_lr": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
                "power": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "thresholds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "score": {"type": "number", "minimum": 0, "maximum": 1},
                "nms_iou": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "training": {
            "type": "object",
            "required": ["iterations"],
            "additionalProperties": False,
            "properties": {
                "iterations": {"type": "integer", "minimum": 1},
                "tasks": {"type": "array", "items": {"enum": list(TASK_NAMES)}, "minItems": 1},
                "margin": {"type": "number", "exclusiveMinimum": 0},
                "freeze_stats_after": {"type": "integer", "minimum": 0},
            },
        },
        "dataset": {
            "type": "object",
            "required": ["num_images", "width", "height"],
            "additionalProperties": False,
            "properties": {
                "num_images": {"type": "integer", "minimum": 1},
                "width": {"type": "integer", "minimum": 8},
                "height": {"type": "integer", "minimum": 8},
                "min_objects": {"type": "integer", "minimum": 0},
                "max_objects": {"type": "integer", "minimum": 1},
                "min_size": {"type": "integer", "minimum": 2},
                "max_size": {"type": "integer", "minimum": 2},
            },
        },
        "paths": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dataset_dir": {"type": "string"},
            },
        },
    },
}


@dataclass
class RunConfig:
    seed: int
    model: ModelConfig
    templates: tuple[AnchorTemplate, ...]
    stride: int
    assign: AssignConfig
    schedule: LrSchedule
    score_threshold: float
    nms_iou: float
    iterations: int
    tasks: tuple[str, ...]
    margin: float
    freeze_stats_after: int
    num_images: int
    scene: SceneSpec
    dataset_dir: Optional[str]
    raw: dict


def default_config_dict() -> dict:
    """A complete config for the built-in synthetic overfit run."""
    return {
        "seed": 7,
        "model": {
            "num_classes": 3,
            "num_object_classes": 2,
            "embedding_dim": 4,
        },
        "anchors": {"stride": 8, "preset": "toy"},
        "assign": {},
        "schedule": {"base_lr": 0.001, "power": 0.9},
        "thresholds": {"score": 0.5, "nms_iou": 0.5},
        "training": {"iterations": 2000, "freeze_stats_after": 600},
        "dataset": {"num_images": 5, "width": 64, "height": 64},
    }


def run_config_from_dict(data: dict) -> RunConfig:
    try:
        jsonschema.validate(data, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ValueError(f"invalid config at {path}: {exc.message}") from exc

    anchors = data["anchors"]
    if ("preset" in anchors) == ("templates" in anchors):
        raise ValueError("anchors must specify exactly one of 'preset' or 'templates'")
    if "preset" in anchors:
        if anchors["preset"] not in preset_names():
            raise ValueError(f"unknown anchor preset {anchors['preset']!r}")
        templates = anchor_preset(anchors["preset"])
    else:
        templates = templates_from_json(anchors["templates"])
    stride = int(anchors.get("stride", DOWNSAMPLE))
    if stride != DOWNSAMPLE:
        raise ValueError(f"anchors.stride must be {DOWNSAMPLE}, the model's downsampling factor, got {stride}")

    model = ModelConfig.from_dict({**ModelConfig().to_dict(), **data["model"], "anchors_per_cell": len(templates)})

    assign_cfg = AssignConfig(**data.get("assign", {}))
    training = data["training"]
    iterations = int(training["iterations"])
    schedule_data = dict(data.get("schedule", {}))
    schedule_data.setdefault("max_iter", iterations)
    schedule = LrSchedule(**schedule_data)
    if schedule.max_iter < iterations:
        raise ValueError(
            f"schedule.max_iter={schedule.max_iter} must cover training.iterations={iterations}"
        )

    thresholds = data.get("thresholds", {})
    dataset = data["dataset"]
    scene = SceneSpec(
        width=int(dataset["width"]),
        height=int(dataset["height"]),
        min_objects=int(dataset.get("min_objects", 1)),
        max_objects=int(dataset.get("max_objects", 3)),
        min_size=int(dataset.get("min_size", 10)),
        max_size=int(dataset.get("max_size", 22)),
    )

    paths = data.get("paths", {})
    for key in ("dataset_dir",):
        if key in paths and not os.path.isdir(paths[key]):
            raise ValueError(f"paths.{key} does not exist: {paths[key]}")

    seed = int(data["seed"])
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None

    return RunConfig(
        seed=seed,
        model=model,
        templates=templates,
        stride=stride,
        assign=assign_cfg,
        schedule=schedule,
        score_threshold=float(thresholds.get("score", 0.5)),
        nms_iou=float(thresholds.get("nms_iou", 0.5)),
        iterations=iterations,
        tasks=tuple(training.get("tasks", TASK_NAMES)),
        margin=float(training.get("margin", 1.0)),
        freeze_stats_after=int(training.get("freeze_stats_after", iterations // 2)),
        num_images=int(dataset["num_images"]),
        scene=scene,
        dataset_dir=paths.get("dataset_dir"),
        raw=data,
    )


def load_run_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config JSON in {path}: {exc}") from exc
    return run_config_from_dict(data)
