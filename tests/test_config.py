"""The JSON document checker against jsonschema, the reference JSON Schema validator.

``detseg.pipeline.schema`` checks run configs, templates files, class
tables and annotation files with a small checker of its own. Here
jsonschema, a test-only dependency, checks the same schemas with the same
number types, and seeded random mutations of valid documents must draw the
same violations from both, each with the same key path and message.
"""

import copy
import math
import random

import pytest
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match
from jsonschema.validators import extend

from detseg.pipeline.annotations import ANNOTATION_SCHEMA
from detseg.pipeline.config import CLASS_TABLE_SCHEMA, CONFIG_SCHEMA, TEMPLATES_SCHEMA, default_config_dict
from detseg.pipeline.schema import check, is_number, violations
from detseg.pipeline.synth import synth_scene, synthetic_table

# jsonschema with the checker's number types
Reference = extend(Draft202012Validator, type_checker=Draft202012Validator.TYPE_CHECKER.redefine_many({
    "number": lambda checker, instance: is_number(instance),
    "integer": lambda checker, instance: type(instance) is int and is_number(instance),
}))

KEYWORDS = {"type", "properties", "required", "additionalProperties", "minimum", "maximum", "exclusiveMinimum",
            "multipleOf", "const", "enum", "items", "minItems", "maxItems"}

FULL_CONFIG = {
    "seed": 0,
    "model": {"num_classes": 4, "num_object_classes": 3, "embedding_dim": 5, "stem_channels": 8,
              "stage_channels": [8, 8, 8], "stage_blocks": [2, 2, 2], "dilation": 3,
              "seg_head_channels": [8, 8, 8], "det_channels": 8},
    "anchors": {"stride": 8, "templates": [{"ratio": 1.0, "area": 64}, {"ratio": 0.5, "area": 1}]},
    "thresholds": {"score": 0.0, "nms_iou": 1},
    "training": {"iterations": 1, "tasks": ["segmentation", "box"], "freeze_stats_after": 0},
    "dataset": {"num_images": 2, "width": 8, "height": 72, "min_objects": 0, "max_objects": 255,
                "min_size": 2, "max_size": 12},
}

# (document name as the errors name it, schema, valid documents to mutate)
DOCUMENTS = {
    "config": (CONFIG_SCHEMA, [default_config_dict(), FULL_CONFIG]),
    "templates": (TEMPLATES_SCHEMA, [[{"ratio": 1.0, "area": 64}, {"ratio": 2, "area": 1e-3}]]),
    "class table": (CLASS_TABLE_SCHEMA, [synthetic_table(), {**synthetic_table(), "categories": None}]),
    "annotation": (ANNOTATION_SCHEMA, [
        synth_scene(0).annotation,
        {"image_width": 40, "image_height": 30, "source": "kitti", "objects": [
            {"label": "rect", "polygon": [[2, 3.5], [14, 3.5], [14, 11]], "instance_id": 0,
             "occlusion": 3, "truncation": 0.25, "score": None},
            {"label": "ellipse", "polygon": [[1e-3, 0]], "instance_id": 9223372036854775807,
             "occlusion": 0, "truncation": 1}]},
    ]),
}


def schema_nodes(schema: dict):
    """``schema`` and every schema nested in it."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from schema_nodes(sub)
    for keyword in ("items", "additionalProperties"):
        if isinstance(schema.get(keyword), dict):
            yield from schema_nodes(schema[keyword])


def value_pool() -> list:
    """Replacement values: every bound the schemas name and its neighbours, plus JSON values of each kind."""
    bounds = {node[keyword] for schema, _ in DOCUMENTS.values() for node in schema_nodes(schema)
              for keyword in ("minimum", "maximum", "exclusiveMinimum", "multipleOf", "const") if keyword in node}
    numbers = sorted({b + step for b in bounds for step in (-1, 0, 1)} | {float(b) for b in bounds})
    enums = sorted({name for schema, _ in DOCUMENTS.values() for node in schema_nodes(schema)
                    for name in node.get("enum", ())})
    return [*numbers, *enums, None, True, False, 7.0, 0.5, -0.0, 1e-300, 10**400, -10**400, 1e308, -1e308,
            math.nan, math.inf, -math.inf, "x", "zz", [], [1], [16, 24], [16, 24, 32, 48], ["boxes"],
            [{"ratio": 1, "area": 64}], {}, {"a": 5}, {"a": ["rect"]}, {"ratio": 1}]


def locations(doc, path=()):
    """Every key path in ``doc``, the root included."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from locations(value, (*path, key))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from locations(value, (*path, index))


def mutate(doc, rng: random.Random, pool: list, names: list):
    """``doc`` after one to three random edits: a value swapped, a key or item removed or added, or a container emptied."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice((1, 1, 2, 3))):
        path = rng.choice(list(locations(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]] if path else doc
        edit = rng.choice(("swap", "swap", "remove", "add", "empty"))
        if edit == "swap" or (edit == "remove" and not path):
            new = copy.deepcopy(rng.choice(pool))
            if path:
                parent[path[-1]] = new
            else:
                doc = new
        elif edit == "remove":
            del parent[path[-1]]
        elif edit == "add" and isinstance(value, dict):
            value[rng.choice(names)] = copy.deepcopy(rng.choice(pool))
        elif edit == "add" and isinstance(value, list):
            value.append(copy.deepcopy(rng.choice([*value, *pool])))
        elif edit == "empty" and isinstance(value, (dict, list)):
            value.clear()
    return doc


def test_the_schemas_use_only_the_keywords_the_checker_knows():
    used = {keyword for schema, _ in DOCUMENTS.values() for node in schema_nodes(schema) for keyword in node}
    assert used == KEYWORDS


@pytest.mark.parametrize("document", sorted(DOCUMENTS))
def test_mutated_documents_get_the_reference_verdicts_and_messages(document):
    schema, valid = DOCUMENTS[document]
    reference = Reference(schema)
    pool = value_pool()
    names = sorted({key for node in schema_nodes(schema) for key in node.get("properties", {})} | {"bogus", "a"})
    rng = random.Random(f"settings checker {document}")
    outcomes = {"accepted": 0, "rejected": 0, "one shallowest": 0}
    broken = set()
    for trial in range(1500):
        doc = mutate(rng.choice(valid), rng, pool, names)
        expected = list(reference.iter_errors(doc))
        broken |= {error.validator for error in expected}
        got = list(violations(schema, doc))
        # the same violations, each with its key path and message
        assert sorted(map(repr, got)) == sorted(repr((tuple(e.absolute_path), e.message)) for e in expected), doc
        if not expected:
            outcomes["accepted"] += 1
            check(schema, doc, document)
            continue
        outcomes["rejected"] += 1
        with pytest.raises(ValueError) as raised:
            check(schema, doc, document)
        depth = min(len(path) for path, _ in got)
        shallowest = [violation for violation in got if len(violation[0]) == depth]
        if len(shallowest) == 1:
            # the one shallowest violation is best_match's choice as well
            outcomes["one shallowest"] += 1
            best = best_match(expected)
            path = "/".join(map(str, best.absolute_path)) or "<root>"
            assert str(raised.value) == f"invalid {document} at {path}: {best.message}", doc
    assert min(outcomes.values()) >= 100, outcomes
    used = {keyword for node in schema_nodes(schema) for keyword in node}
    assert broken == used - {"properties", "items"}  # these two only pass values on


@pytest.mark.parametrize("schema, doc", [
    # JSON's true is not 1, nor false 0
    *[({"const": 1}, value) for value in (1, 1.0, True, False)],
    *[({"enum": [0, "a"]}, value) for value in (0, -0.0, False, "a", None)],
    # extra keys are named sorted, whatever their order in the document
    ({"additionalProperties": False}, {"b": 1, "a": 2}),
    ({"properties": {"b": {}}, "additionalProperties": False}, {"c": 1, "b": 2}),
    ({"minItems": 2, "maxItems": 0}, [1]),
])
def test_edge_cases_match_the_reference(schema, doc):
    expected = [(tuple(error.absolute_path), error.message) for error in Reference(schema).iter_errors(doc)]
    assert list(violations(schema, doc)) == expected


@pytest.mark.parametrize("schema, doc, message", [
    # faults at one depth: the first in schema order is reported, where best_match took the last path
    (CONFIG_SCHEMA, {"seed": -1, "model": {}, "anchors": {}, "thresholds": [], "training": {"iterations": 1},
                     "dataset": {"num_images": 1, "width": 8, "height": 8}},
     "invalid config at seed: -1 is less than the minimum of 0"),
    (TEMPLATES_SCHEMA, [{"ratio": 1, "area": 0}, {"ratio": 0, "area": 1}],
     "invalid config at 0/area: 0 is less than or equal to the minimum of 0"),
    # a shallower fault wins over a deeper one that comes first
    (TEMPLATES_SCHEMA, [{"ratio": 0, "area": 1}, {"ratio": 1}],
     "invalid config at 1: 'area' is a required property"),
])
def test_one_rule_picks_among_several_faults(schema, doc, message):
    with pytest.raises(ValueError) as raised:
        check(schema, doc, "config")
    assert str(raised.value) == message
