"""Every JSON example in docs/FORMATS.md and README.md parses with the reader it documents,
every constant they quote as ``detseg.<module>.<NAME> = <value>`` has that value, every
module or name they quote as ``detseg.<module>[.<name>]`` exists, and the quoted error line
for a bad annotation file is the one ``assign`` prints.

An example that drifts from its format (a renamed key, a removed setting), a quoted
constant that drifts from the code, or a quoted module or name that the code no longer
has, fails here, not in a reader's hands.
"""

import ast
import importlib
import json
import os
import re

import pytest

from detseg.pipeline.annotations import load_annotation
from detseg.pipeline.cli import main
from detseg.pipeline.config import load_class_table, run_config_from_dict
from detseg.post import detections_from_jsonl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return fh.read()


def write(tmp_path, name, text):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# FORMATS.md section heading -> the reader of its examples
READERS = {
    "Annotations (one JSON file per image)":
        lambda text, tmp_path: load_annotation(write(tmp_path, "annotation.json", text)),
    "Detections (JSON lines)": lambda text, tmp_path: detections_from_jsonl(text),
    "Anchor targets (JSON lines, `assign` output)":
        lambda text, tmp_path: [json.loads(line) for line in text.splitlines()],
    "Class tables": lambda text, tmp_path: load_class_table(write(tmp_path, "class_table.json", text)),
    "Metrics reports": lambda text, tmp_path: json.loads(text),
    "Run configuration": lambda text, tmp_path: run_config_from_dict(json.loads(text)),
}


def format_examples():
    """(section heading, example) for every ```json block of docs/FORMATS.md."""
    sections = re.split(r"^## ", read("docs/FORMATS.md"), flags=re.M)[1:]
    return [(section.splitlines()[0], block)
            for section in sections for block in re.findall(r"```json\n(.*?)```", section, re.S)]


EXAMPLES = format_examples()


def test_every_reader_has_an_example():
    assert {heading for heading, _ in EXAMPLES} == set(READERS)


@pytest.mark.parametrize("heading, text", EXAMPLES,
                         ids=[f"{heading.split()[0]}-{i}" for i, (heading, _) in enumerate(EXAMPLES)])
def test_formats_example_parses(heading, text, tmp_path):
    READERS[heading](text, tmp_path)


def test_quoted_annotation_error_is_the_line_assign_prints(tmp_path, capsys):
    heading = "Annotations (one JSON file per image)"
    section = read("docs/FORMATS.md").split(f"## {heading}\n")[1].split("\n## ")[0]
    quoted = re.findall(r"`(error: annotation <path>: invalid [^`]*)`", " ".join(section.split()))
    assert quoted == ["error: annotation <path>: invalid annotation at objects/0/occlusion: "
                      "7 is greater than the maximum of 3"]
    example = json.loads(next(text for name, text in EXAMPLES if name == heading))
    example["objects"][0]["occlusion"] = 7
    path = write(tmp_path, "annotation.json", json.dumps(example))
    assert main(["assign", "--annotation", path, "--preset", "toy",
                 "--output", os.path.join(tmp_path, "targets.jsonl")]) == 1
    assert capsys.readouterr().err == quoted[0].replace("<path>", path) + "\n"


def test_readme_config_parses():
    blocks = re.findall(r"cat > config\.json <<'EOF'\n(.*?)\nEOF\n", read("README.md"), re.S)
    assert len(blocks) == 1
    run_config_from_dict(json.loads(blocks[0]))


def constant_mentions():
    """(document, qualified name, quoted value) for every `detseg.<module>.<NAME> = <value>`."""
    return [(document, *match)
            for document in ("docs/FORMATS.md", "README.md")
            for match in re.findall(r"`(detseg(?:\.\w+)+\.[A-Z][A-Z0-9_]*) = ([^`]+)`", read(document))]


CONSTANTS = constant_mentions()


def test_formats_quotes_every_constant():
    assert {name for document, name, _ in CONSTANTS if document == "docs/FORMATS.md"} == {
        "detseg.assign.ACTIVE_IOU", "detseg.assign.DONTCARE_IOU", "detseg.assign.AMBIGUITY_GAP",
        "detseg.losses.MARGIN", "detseg.losses.FOCAL_ALPHA", "detseg.losses.FOCAL_GAMMA",
        "detseg.pipeline.synth.GAP", "detseg.pipeline.synth.MAX_OBJECTS",
    }


def test_readme_quotes_every_constant():
    assert {name for document, name, _ in CONSTANTS if document == "README.md"} == {
        "detseg.assign.ACTIVE_IOU", "detseg.assign.DONTCARE_IOU", "detseg.assign.AMBIGUITY_GAP",
        "detseg.losses.MARGIN", "detseg.losses.FOCAL_ALPHA", "detseg.losses.FOCAL_GAMMA",
        "detseg.net.layers.COL_BLOCK", "detseg.net.layers.MMAP_THRESHOLD", "detseg.net.layers.TRIM_THRESHOLD",
    }


@pytest.mark.parametrize("document, name, quoted", CONSTANTS,
                         ids=[f"{document}-{name}" for document, name, _ in CONSTANTS])
def test_quoted_constant_has_its_value(document, name, quoted):
    module, attribute = name.rsplit(".", 1)
    value, expected = getattr(importlib.import_module(module), attribute), ast.literal_eval(quoted)
    assert (type(value), value) == (type(expected), expected)


def name_mentions():
    """(document, qualified name) for every backticked ``detseg.<module>[.<name>]``, once per document."""
    return sorted({(document, name)
                   for document in ("docs/FORMATS.md", "README.md")
                   for name in re.findall(r"`(detseg(?:\.\w+)+)[^`]*`", read(document))})


MENTIONS = name_mentions()


def test_mentions_include_modules_and_names():
    assert {("README.md", "detseg.pipeline.schema"), ("README.md", "detseg.pipeline.cli.main"),
            ("docs/FORMATS.md", "detseg.pipeline.config.CLASS_TABLE_SCHEMA")} <= set(MENTIONS)


@pytest.mark.parametrize("document, name", MENTIONS, ids=[f"{document}-{name}" for document, name in MENTIONS])
def test_quoted_name_resolves(document, name):
    """The longest prefix of ``name`` that is a module imports, and the rest are attributes down from it."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module = ".".join(parts[:split])
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if not f"{module}.".startswith(f"{exc.name}."):  # a module that is there failed to import
                raise
            continue
        for attribute in parts[split:]:
            assert hasattr(target, attribute), f"{document}: {name} has no {attribute!r}"
            target = getattr(target, attribute)
        return
    pytest.fail(f"{document}: {name} names no module")
