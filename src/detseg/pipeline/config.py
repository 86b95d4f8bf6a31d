"""The settings documents: a run config, a templates file and a class table.

Each is checked against a JSON schema, kept here as data, by one small
checker (:func:`_check`); a run config's ``anchors.templates`` is checked by
the templates file's schema. A checkpoint's config is the run config it was
trained with.

The checker knows the JSON Schema keywords these schemas use and no other:
``type``, ``properties``, ``required``, ``additionalProperties`` (``false``
or a schema), ``minimum``, ``maximum``, ``exclusiveMinimum``, ``multipleOf``
(an integer), ``const``, ``enum``, ``items``, ``minItems`` and ``maxItems``.
A keyword for objects, arrays or numbers skips a value of another type, as
in JSON Schema, and each message is worded as the reference Python
validator words it (``tests/test_config.py`` compares the two). Where a
document breaks several rules, the one reported is the one at the
shallowest key path, and among those the first in schema order.

Its types are the annotation reader's. A number is a finite JSON number
that fits a float, since Python's ``json`` reads ``NaN``, ``Infinity`` and
integers of any length. An integer is a JSON integer literal that is such a
number, so ``7.0`` is not one, and ``minimum`` and ``maximum``, which skip
what is not a number, check every integer.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

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


# the JSON types a schema's "type" names, as Python's json reads them
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "null": lambda value: value is None,
    "number": _is_number,
    "integer": lambda value: type(value) is int and _is_number(value),
}
# number keywords: whether a number meets the keyword's bound, and the message's verb phrase
_BOUNDS = {
    "minimum": (operator.ge, "is less than the minimum of"),
    "maximum": (operator.le, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.gt, "is less than or equal to the minimum of"),
    "multipleOf": (lambda value, step: value % step == 0, "is not a multiple of"),
}
# the type a keyword applies to; it skips a value of any other type
_APPLIES_TO = {**dict.fromkeys(("properties", "required", "additionalProperties"), "object"),
               **dict.fromkeys(("items", "minItems", "maxItems"), "array"),
               **dict.fromkeys(_BOUNDS, "number")}


def _equal(one, two) -> bool:
    """JSON equality of scalars: ``true`` is not ``1``, nor ``false`` ``0``."""
    if isinstance(one, bool) or isinstance(two, bool):
        return one is two
    return one == two


def _violations(schema: dict, value, path: tuple = ()):
    """``(key path, message)`` for each rule of ``schema`` that ``value`` breaks, depth first in schema order."""
    for keyword, rule in schema.items():
        if keyword in _APPLIES_TO and not _TYPES[_APPLIES_TO[keyword]](value):
            continue
        if keyword == "type":
            types = [rule] if isinstance(rule, str) else rule
            if not any(_TYPES[name](value) for name in types):
                yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "const":
            if not _equal(value, rule):
                yield path, f"{rule!r} was expected"
        elif keyword == "enum":
            if not any(_equal(each, value) for each in rule):
                yield path, f"{value!r} is not one of {rule!r}"
        elif keyword in _BOUNDS:
            holds, phrase = _BOUNDS[keyword]
            if not holds(value, rule):
                yield path, f"{value!r} {phrase} {rule!r}"
        elif keyword == "properties":
            for name, sub in rule.items():
                if name in value:
                    yield from _violations(sub, value[name], (*path, name))
        elif keyword == "required":
            for name in rule:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif keyword == "additionalProperties":
            extras = [name for name in value if name not in schema.get("properties", {})]
            if rule is False and extras:
                names = ", ".join(map(repr, sorted(extras, key=str)))
                verb = "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
            elif isinstance(rule, dict):
                for name in extras:
                    yield from _violations(rule, value[name], (*path, name))
        elif keyword == "items":
            for index, item in enumerate(value):
                yield from _violations(rule, item, (*path, index))
        elif keyword == "minItems":
            if len(value) < rule:
                yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif keyword == "maxItems":
            if len(value) > rule:
                yield path, f"{value!r} {'is expected to be empty' if rule == 0 else 'is too long'}"
        else:
            raise KeyError(f"the settings checker has no rule for the schema keyword {keyword!r}")


def _check(schema: dict, data, document: str) -> None:
    """Raise ValueError naming the document, the key path and the message of the shallowest violation.

    Among violations at one depth, the first in schema order is reported.
    """
    found = min(_violations(schema, data), key=lambda violation: len(violation[0]), default=None)
    if found is not None:
        path, message = found
        raise ValueError(f"invalid {document} at {'/'.join(map(str, path)) or '<root>'}: {message}")


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
    _check(CONFIG_SCHEMA, data, "config")

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
        _check(TEMPLATES_SCHEMA, data, "templates")
    except ValueError as exc:
        raise ValueError(f"templates file {path}: {exc}") from exc
    return templates_from_json(data)


def load_class_table(path: str) -> ClassTable:
    """The class table file at ``path`` (docs/FORMATS.md); every error names the file."""
    try:
        data = _load_json(path)
        _check(CLASS_TABLE_SCHEMA, data, "class table")
        return ClassTable.from_json(data)
    except ValueError as exc:
        raise ValueError(f"class table {path}: {exc}") from exc
