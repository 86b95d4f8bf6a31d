"""The settings documents: a run config, a templates file and a class table.

Each is checked by a JSON schema, through validators built once; a run
config's ``anchors.templates`` is checked by the templates file's schema.
A checkpoint's config is the run config it was trained with.
The validators' types are the annotation reader's. A number is a finite
JSON number that fits a float, since Python's ``json`` reads ``NaN``,
``Infinity`` and integers of any length. An integer is a JSON integer
literal that is such a number, so ``7.0`` is not one, and ``minimum`` and
``maximum``, which skip what is not a number, check every integer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match
from jsonschema.validators import extend

from ..geom import AnchorTemplate, anchor_preset, preset_names, templates_from_json
from ..losses import SEG_IGNORE, TASK_NAMES
from ..net.model import DOWNSAMPLE, ModelConfig
from .annotations import _is_number
from .classtable import ClassTable
from .synth import MAX_OBJECTS, SceneSpec

__all__ = ["RunConfig", "CONFIG_SCHEMA", "MODEL_SCHEMA", "TEMPLATES_SCHEMA",
           "MAX_ITERATIONS", "MAX_IMAGES", "load_run_config", "run_config_from_dict",
           "default_config_dict", "load_templates", "CLASS_TABLE_SCHEMA", "load_class_table"]

_POSITIVE_INT = {"type": "integer", "minimum": 1}
# Counts that set how long synth and train-toy run: without a bound, a config
# with 10**300 images or iterations passes and the command never finishes.
MAX_ITERATIONS = 1_000_000
MAX_IMAGES = 100_000
_UNIT = {"type": "number", "minimum": 0, "maximum": 1}
# the model's feature map is always 1/8 of the image, so any other anchor
# stride gives a lattice the heads do not predict
_STRIDE = {"type": "integer", "const": DOWNSAMPLE}


def _triple(item: dict) -> dict:
    return {"type": "array", "items": item, "minItems": 3, "maxItems": 3}


MODEL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        # label maps are 8-bit and SEG_IGNORE (255) marks unlabelled pixels
        "num_classes": {"type": "integer", "minimum": 2, "maximum": SEG_IGNORE},
        # the class head is a softmax over the detection classes, which needs two
        "num_object_classes": {"type": "integer", "minimum": 2},
        "embedding_dim": _POSITIVE_INT,
        "stem_channels": _POSITIVE_INT,
        "stage_channels": _triple(_POSITIVE_INT),
        "stage_blocks": _triple(_POSITIVE_INT),
        "dilation": _POSITIVE_INT,
        "seg_head_channels": _triple(_POSITIVE_INT),
        "det_channels": _POSITIVE_INT,
    },
}

TEMPLATES_SCHEMA = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "object",
        "required": ["ratio", "area"],
        "additionalProperties": False,
        "properties": {
            "ratio": {"type": "number", "exclusiveMinimum": 0},
            "area": {"type": "number", "exclusiveMinimum": 0},
        },
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["seed", "model", "anchors", "training", "dataset"],
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "model": MODEL_SCHEMA,
        "anchors": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "stride": _STRIDE,
                "preset": {"enum": list(preset_names())},
                "templates": TEMPLATES_SCHEMA,
            },
        },
        "thresholds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"score": _UNIT, "nms_iou": _UNIT},
        },
        "training": {
            "type": "object",
            "required": ["iterations"],
            "additionalProperties": False,
            "properties": {
                "iterations": {**_POSITIVE_INT, "maximum": MAX_ITERATIONS},
                "tasks": {"type": "array", "items": {"enum": list(TASK_NAMES)}, "minItems": 1},
                "freeze_stats_after": {"type": "integer", "minimum": 0, "maximum": MAX_ITERATIONS},
            },
        },
        "dataset": {
            "type": "object",
            "required": ["num_images", "width", "height"],
            "additionalProperties": False,
            "properties": {
                "num_images": {**_POSITIVE_INT, "maximum": MAX_IMAGES},
                # train-toy feeds whole images to the network, which needs multiples of 8
                "width": {"type": "integer", "minimum": DOWNSAMPLE, "multipleOf": DOWNSAMPLE},
                "height": {"type": "integer", "minimum": DOWNSAMPLE, "multipleOf": DOWNSAMPLE},
                "min_objects": {"type": "integer", "minimum": 0, "maximum": MAX_OBJECTS},
                "max_objects": {**_POSITIVE_INT, "maximum": MAX_OBJECTS},
                "min_size": {"type": "integer", "minimum": 2},
                "max_size": {"type": "integer", "minimum": 2},
            },
        },
    },
}

_NAMES = {"type": "array", "items": {"type": "string"}}

# What ``ClassTable.from_json`` reads; ``ClassTable`` itself checks that the
# lists refer to each other consistently, which a schema cannot express.
CLASS_TABLE_SCHEMA = {
    "type": "object",
    "required": ["names", "instanceable", "detection"],
    "additionalProperties": False,
    "properties": {
        "names": {**_NAMES, "minItems": 1},
        "instanceable": _NAMES,
        "detection": _NAMES,
        "categories": {"type": ["object", "null"], "additionalProperties": _NAMES},
    },
}


_Validator = extend(Draft202012Validator, type_checker=Draft202012Validator.TYPE_CHECKER.redefine_many({
    "number": lambda checker, instance: _is_number(instance),
    "integer": lambda checker, instance: type(instance) is int and _is_number(instance),
}))
_CONFIG = _Validator(CONFIG_SCHEMA)
_TEMPLATES = _Validator(TEMPLATES_SCHEMA)
_CLASS_TABLE = _Validator(CLASS_TABLE_SCHEMA)


def _check(validator, data, document: str) -> None:
    """Raise ValueError naming the document and the key path of the most relevant schema violation."""
    error = best_match(validator.iter_errors(data))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ValueError(f"invalid {document} at {path}: {error.message}")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON: {exc}") from exc


@dataclass
class RunConfig:
    seed: int
    model: ModelConfig
    templates: tuple[AnchorTemplate, ...]
    thresholds: dict[str, float]
    iterations: int
    tasks: tuple[str, ...]
    freeze_stats_after: int | None
    num_images: int
    scene: SceneSpec
    raw: dict


def default_config_dict() -> dict:
    """A complete config for the built-in synthetic overfit run."""
    return {
        "seed": 7,
        "model": {"num_classes": 3, "num_object_classes": 2, "embedding_dim": 4},
        "anchors": {"stride": 8, "preset": "toy"},
        "thresholds": {"score": 0.5, "nms_iou": 0.5},
        "training": {"iterations": 2000, "freeze_stats_after": 600},
        "dataset": {"num_images": 5, "width": 64, "height": 64},
    }


def run_config_from_dict(data: dict) -> RunConfig:
    _check(_CONFIG, data, "config")

    anchors = data["anchors"]
    if ("preset" in anchors) == ("templates" in anchors):
        raise ValueError("invalid config at anchors: must specify exactly one of 'preset' or 'templates'")
    if "preset" in anchors:
        templates = anchor_preset(anchors["preset"])
    else:
        templates = templates_from_json(anchors["templates"])

    model = ModelConfig.from_dict({**data["model"], "anchors_per_cell": len(templates)})

    training = data["training"]
    dataset = data["dataset"]
    # unset dataset keys keep SceneSpec's defaults
    scene = SceneSpec(**{key: value for key, value in dataset.items() if key != "num_images"})

    return RunConfig(
        seed=data["seed"],
        model=model,
        templates=templates,
        thresholds={key: float(data.get("thresholds", {}).get(key, 0.5)) for key in ("score", "nms_iou")},
        iterations=training["iterations"],
        tasks=tuple(training.get("tasks", TASK_NAMES)),
        # None lets train_toy apply its own default, half the iterations
        freeze_stats_after=training.get("freeze_stats_after"),
        num_images=dataset["num_images"],
        scene=scene,
        raw=data,
    )


def load_run_config(path: str) -> RunConfig:
    """The run config in the JSON file at ``path``; every error names the file."""
    try:
        return run_config_from_dict(_load_json(path))
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from exc


def load_templates(path: str) -> tuple[AnchorTemplate, ...]:
    """The templates file at ``path``, a JSON array of ``{"ratio", "area"}``; every error names the file."""
    try:
        data = _load_json(path)
        _check(_TEMPLATES, data, "templates")
    except ValueError as exc:
        raise ValueError(f"templates file {path}: {exc}") from exc
    return templates_from_json(data)


def load_class_table(path: str) -> ClassTable:
    """The class table file at ``path`` (docs/FORMATS.md); every error names the file."""
    try:
        data = _load_json(path)
        _check(_CLASS_TABLE, data, "class table")
        return ClassTable.from_json(data)
    except ValueError as exc:
        raise ValueError(f"class table {path}: {exc}") from exc
