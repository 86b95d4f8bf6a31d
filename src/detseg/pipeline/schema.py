"""The JSON document checker: each document kind is a JSON schema, kept as data.

:func:`check` checks the settings documents (run configs, templates files
and class tables, in :mod:`.config`) and annotation files (in
:mod:`.annotations`). It knows the JSON Schema keywords their schemas use
and no other: ``type``, ``properties``, ``required``,
``additionalProperties`` (``false`` or a schema), ``minimum``, ``maximum``,
``exclusiveMinimum``, ``multipleOf`` (an integer), ``const``, ``enum``,
``items``, ``minItems`` and ``maxItems``. A keyword for objects, arrays or
numbers skips a value of another type, as in JSON Schema, and each message
is worded as the reference Python validator words it
(``tests/test_config.py`` compares the two). Where a document breaks
several rules, the one reported is the one at the shallowest key path, and
among those the first in schema order.

A number is a finite JSON number that fits a float (:func:`is_number`),
since Python's ``json`` reads ``NaN``, ``Infinity`` and integers of any
length. An integer is a JSON integer literal that is such a number, so
``7.0`` is not one, and ``minimum`` and ``maximum``, which skip what is not
a number, check every integer.
"""

from __future__ import annotations

import json
import operator
import sys

__all__ = ["is_number", "violations", "check", "load_json"]


def is_number(value) -> bool:
    """A JSON number a float holds finitely; rejects booleans, NaN and infinities."""
    return type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max


# the JSON types a schema's "type" names, as Python's json reads them
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "null": lambda value: value is None,
    "number": is_number,
    "integer": lambda value: type(value) is int and is_number(value),
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


def violations(schema: dict, value, path: tuple = ()):
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
                    yield from violations(sub, value[name], (*path, name))
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
                    yield from violations(rule, value[name], (*path, name))
        elif keyword == "items":
            for index, item in enumerate(value):
                yield from violations(rule, item, (*path, index))
        elif keyword == "minItems":
            if len(value) < rule:
                yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif keyword == "maxItems":
            if len(value) > rule:
                yield path, f"{value!r} {'is expected to be empty' if rule == 0 else 'is too long'}"
        else:
            raise KeyError(f"the schema checker has no rule for the schema keyword {keyword!r}")


def check(schema: dict, data, document: str) -> None:
    """Raise ValueError naming the document, the key path and the message of the shallowest violation.

    Among violations at one depth, the first in schema order is reported.
    """
    found = min(violations(schema, data), key=lambda violation: len(violation[0]), default=None)
    if found is not None:
        path, message = found
        raise ValueError(f"invalid {document} at {'/'.join(map(str, path)) or '<root>'}: {message}")


def load_json(path: str):
    """The JSON document in the file at ``path``; malformed JSON is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON: {exc}") from exc
