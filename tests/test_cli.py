import json
import logging
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import detseg
from detseg.assign import AssignRule, GroundTruthObject, assign_targets_detailed
from detseg.geom import BBox, anchor_preset, make_anchor_grid
from detseg.net import layers
from detseg.net.checkpoint import load_checkpoint, save_checkpoint
from detseg.net.model import DetSegModel
from detseg.oracles import assign_oracle_rows
from detseg.pipeline.annotations import boxes_from_polygons, load_annotation
from detseg.pipeline import cli
from detseg.pipeline.cli import main
from detseg.pipeline.classtable import synthetic_table
from detseg.pipeline.config import (
    MAX_IMAGES,
    MAX_ITERATIONS,
    default_config_dict,
    load_run_config,
    run_config_from_dict,
)
from detseg.pipeline.netpbm import read_pgm, write_pgm, write_ppm
from detseg.pipeline.synth import MAX_OBJECTS, make_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ONE_RECT = {"label": "rect", "polygon": [[1, 1], [10, 1], [10, 10], [1, 10]], "instance_id": 1}


def annotation_with(**changes):
    """A 16x16 annotation of ``ONE_RECT`` with keys of the file or of its object changed, or removed by None."""
    document = {"image_width": 16, "image_height": 16, "objects": [dict(ONE_RECT)]}
    for key, value in changes.items():
        target = document if key in document else document["objects"][0]
        if value is None:
            del target[key]
        else:
            target[key] = value
    return document


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def write_config(tmp_path, **overrides):
    data = default_config_dict()
    data.update(overrides)
    path = os.path.join(tmp_path, "config.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


class TestAnchorsCommand:
    def test_full_preset_count(self, capsys):
        code, out, _ = run(capsys, "anchors", "--image", "64x64", "--preset", "paper-table1")
        assert code == 0
        report = json.loads(out)
        assert report["anchors"] == 9280
        assert report["templates_per_cell"] == 145
        assert report["rows"] == 8 and report["cols"] == 8

    def test_dump_boxes(self, capsys, tmp_path):
        dump = os.path.join(tmp_path, "boxes.jsonl")
        code, _, _ = run(capsys, "anchors", "--image", "16x16", "--preset", "toy", "--dump", dump)
        assert code == 0
        lines = open(dump).read().splitlines()
        assert len(lines) == 2 * 2 * 15
        first = json.loads(lines[0])
        assert set(first) == {"index", "x_min", "y_min", "x_max", "y_max", "outside"}

    def test_bad_size_argument(self, capsys):
        code, _, err = run(capsys, "anchors", "--image", "64by64")
        assert code != 0
        assert err.startswith("error:")

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "anchors", "--image", "64x64", "--bogus")
        assert code == 2
        assert err.startswith("error:")

    def test_non_finite_template_is_one_error_line_naming_the_file(self, capsys, tmp_path):
        templates_path = os.path.join(tmp_path, "templates.json")
        with open(templates_path, "w") as fh:
            fh.write('[{"ratio": 1.0, "area": NaN}]')
        code, out, err = run(capsys, "anchors", "--image", "64x64", "--templates-file", templates_path)
        assert code == 1 and out == ""
        assert err == (f"error: templates file {templates_path}: invalid templates at 0/area: "
                       "nan is not of type 'number'\n")

    def test_area_no_float_holds_is_one_error_line_naming_the_file(self, capsys, tmp_path):
        # Python's json reads an integer of any length
        area = 10**400
        templates_path = write_json(tmp_path / "templates.json", [{"ratio": 1.0, "area": area}])
        code, out, err = run(capsys, "anchors", "--image", "64x64", "--templates-file", templates_path)
        assert code == 1 and out == ""
        assert err == (f"error: templates file {templates_path}: invalid templates at 0/area: "
                       f"{area} is not of type 'number'\n")


class TestAssignCommand:
    def test_ambiguous_shared_anchor_reported_inactive(self, capsys, tmp_path):
        # two objects overlapping one 8x8 anchor at 0.55 / 0.45: the anchor
        # must come out inactive, not active for either object
        annotation = {
            "image_width": 8,
            "image_height": 8,
            "objects": [
                {"label": "rect", "polygon": [[0, 0], [8, 0], [8, 4.4], [0, 4.4]], "instance_id": 1},
                {"label": "rect", "polygon": [[0, 4.4], [8, 4.4], [8, 8], [0, 8]], "instance_id": 2},
            ],
        }
        ann_path = os.path.join(tmp_path, "two.json")
        with open(ann_path, "w") as fh:
            json.dump(annotation, fh)
        templates_path = os.path.join(tmp_path, "templates.json")
        with open(templates_path, "w") as fh:
            json.dump([{"ratio": 1.0, "area": 64}], fh)
        out_path = os.path.join(tmp_path, "targets.jsonl")

        code, out, _ = run(capsys, "assign", "--annotation", ann_path,
                           "--templates-file", templates_path, "--output", out_path)
        assert code == 0
        summary = json.loads(out)
        assert summary["anchors"] == 1
        assert summary["active"] == 0
        record = json.loads(open(out_path).read().splitlines()[0])
        assert record == {"anchor_index": 0, "state": "inactive"}

    def test_active_record_carries_payload(self, capsys, tmp_path):
        annotation = {
            "image_width": 16,
            "image_height": 16,
            "objects": [
                {"label": "ellipse", "polygon": [[0, 0], [8, 0], [8, 8], [0, 8]], "instance_id": 3},
            ],
        }
        ann_path = os.path.join(tmp_path, "one.json")
        with open(ann_path, "w") as fh:
            json.dump(annotation, fh)
        templates_path = os.path.join(tmp_path, "templates.json")
        with open(templates_path, "w") as fh:
            json.dump([{"ratio": 1.0, "area": 64}], fh)
        out_path = os.path.join(tmp_path, "targets.jsonl")
        code, out, _ = run(capsys, "assign", "--annotation", ann_path,
                           "--templates-file", templates_path, "--output", out_path)
        assert code == 0
        records = [json.loads(line) for line in open(out_path).read().splitlines()]
        active = [r for r in records if r["state"] == "active"]
        assert len(active) == 1
        assert active[0]["class_id"] == 1
        assert active[0]["instance_id"] == 3
        assert set(active[0]["delta"]) == {"tx", "ty", "tw", "th"}

    def test_missing_annotation_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "assign", "--annotation", os.path.join(tmp_path, "nope.json"),
                           "--output", os.path.join(tmp_path, "t.jsonl"))
        assert code == 1
        assert err.startswith("error:")
        assert not os.path.exists(os.path.join(tmp_path, "t.jsonl"))

    @pytest.mark.parametrize("change, reason", [
        ({"detection": 5}, "invalid class table at detection: 5 is not of type 'array'"),
        ({"names": None}, "invalid class table at names: None is not of type 'array'"),
        ({"categories": [1]}, "invalid class table at categories: [1] is not of type 'object', 'null'"),
        ({"names": "abc"}, "invalid class table at names: 'abc' is not of type 'array'"),
        ({"categories": {"a": 5}}, "invalid class table at categories/a: 5 is not of type 'array'"),
    ])
    def test_malformed_class_table_is_one_error_line_naming_the_file(self, capsys, tmp_path, change, reason):
        ann_path = write_json(tmp_path / "ann.json",
                              {"image_width": 16, "image_height": 16, "objects": [ONE_RECT]})
        table_path = write_json(tmp_path / "table.json", {**synthetic_table().to_json(), **change})
        out_path = os.path.join(tmp_path, "t.jsonl")
        code, out, err = run(capsys, "assign", "--annotation", ann_path, "--class-table", table_path,
                             "--preset", "toy", "--output", out_path)
        assert code == 1 and out == ""
        assert err == f"error: class table {table_path}: {reason}\n"
        assert not os.path.exists(out_path)

    @pytest.mark.parametrize("document, reason", [
        (annotation_with(image_width=32.9), "image_width: 32.9 is not of type 'integer'"),
        (annotation_with(instance_id=True), "objects/0/instance_id: True is not of type 'integer'"),
        (annotation_with(occlusion=2.7), "objects/0/occlusion: 2.7 is not of type 'integer'"),
        (annotation_with(occlusion=7), "objects/0/occlusion: 7 is greater than the maximum of 3"),
        (annotation_with(truncation=5.0), "objects/0/truncation: 5.0 is greater than the maximum of 1"),
        (annotation_with(polygon=[[float("nan"), 1], [10, 10]]),
         "objects/0/polygon/0/0: nan is not of type 'number'"),
        (annotation_with(label=5), "objects/0/label: 5 is not of type 'string'"),
        (annotation_with(image_height=None), "<root>: 'image_height' is a required property"),
        (annotation_with(objects={}), "objects: {} is not of type 'array'"),
        ([16, 16], "<root>: [16, 16] is not of type 'object'"),
        (annotation_with(polygon=[]), "objects/0/polygon: [] should be non-empty"),
        (annotation_with(polygon=[[1, 1], [10, 1, 0]]), "objects/0/polygon/1: [10, 1, 0] is too long"),
        (annotation_with(instance_id=2**63),
         "objects/0/instance_id: 9223372036854775808 is greater than the maximum of 9223372036854775807"),
        (annotation_with(label=None), "objects/0: 'label' is a required property"),
        (annotation_with(image_width=None), "<root>: 'image_width' is a required property"),
        (annotation_with(objects=None), "<root>: 'objects' is a required property"),
        (annotation_with(image_height=0), "image_height: 0 is less than the minimum of 1"),
        (annotation_with(image_width=2**63),
         "image_width: 9223372036854775808 is greater than the maximum of 9223372036854775807"),
        (annotation_with(objects=["rect"]), "objects/0: 'rect' is not of type 'object'"),
        (annotation_with(polygon=None), "objects/0: 'polygon' is a required property"),
        (annotation_with(instance_id=None), "objects/0: 'instance_id' is a required property"),
        (annotation_with(polygon="square"), "objects/0/polygon: 'square' is not of type 'array'"),
        (annotation_with(polygon=[1, 1]), "objects/0/polygon/0: 1 is not of type 'array'"),
        (annotation_with(polygon=[[1, 1], [10]]), "objects/0/polygon/1: [10] is too short"),
        (annotation_with(instance_id=-1), "objects/0/instance_id: -1 is less than the minimum of 0"),
        (annotation_with(occlusion=-1), "objects/0/occlusion: -1 is less than the minimum of 0"),
        (annotation_with(truncation=True), "objects/0/truncation: True is not of type 'number'"),
        (annotation_with(truncation=-0.5), "objects/0/truncation: -0.5 is less than the minimum of 0"),
    ])
    def test_malformed_annotation_is_one_error_line_naming_the_file(self, capsys, tmp_path, document, reason):
        ann_path = write_json(tmp_path / "ann.json", document)
        out_path = os.path.join(tmp_path, "t.jsonl")
        code, out, err = run(capsys, "assign", "--annotation", ann_path, "--preset", "toy", "--output", out_path)
        assert code == 1 and out == ""
        assert err == f"error: annotation {ann_path}: invalid annotation at {reason}\n"
        assert not os.path.exists(out_path)

    def test_jsonl_matches_oracle_byte_for_byte(self, capsys, tmp_path):
        # three rectangles on 32x24 with the toy preset: every assignment
        # rule fires at least once and both detection classes own anchors
        boxes = [("rect", 1, (5, 0, 26, 16)), ("ellipse", 2, (-1, -3, 9, 1)),
                 ("ellipse", 3, (17, 6, 24, 26))]
        annotation = {"image_width": 32, "image_height": 24, "objects": [
            {"label": label, "instance_id": iid,
             "polygon": [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]}
            for label, iid, (x0, y0, x1, y1) in boxes]}
        ann_path = os.path.join(tmp_path, "three.json")
        with open(ann_path, "w") as fh:
            json.dump(annotation, fh)
        out_path = os.path.join(tmp_path, "targets.jsonl")
        code, out, _ = run(capsys, "assign", "--annotation", ann_path, "--preset", "toy",
                           "--output", out_path)
        assert code == 0

        grid = make_anchor_grid(32, 24, 8, anchor_preset("toy"))
        gts = [GroundTruthObject(class_id=0 if label == "rect" else 1, bbox=BBox(*box), instance_id=iid)
               for label, iid, box in boxes]
        _, rules = assign_targets_detailed(grid, gts, 32, 24)
        assert set(rules.tolist()) == set(AssignRule)
        lines = []
        rows = assign_oracle_rows(grid, gts, 32, 24)
        for index, (state, class_id, instance_id, delta) in enumerate(rows):
            record = {"anchor_index": index, "state": state}
            if state == "active":
                record["class_id"] = class_id
                record["delta"] = dict(zip(("tx", "ty", "tw", "th"), delta))
                record["instance_id"] = instance_id
            lines.append(json.dumps(record))
        with open(out_path, "rb") as fh:
            assert fh.read() == ("\n".join(lines) + "\n").encode("utf-8")

        states = [row[0] for row in rows]
        per_class: dict[str, int] = {}
        for state, class_id, _, _ in rows:
            if state == "active":
                per_class[str(class_id)] = per_class.get(str(class_id), 0) + 1
        assert json.loads(out) == {
            "anchors": 180, "inactive": states.count("inactive"), "dontcare": states.count("dontcare"),
            "active": states.count("active"), "active_per_class": per_class, "objects": 3,
        }
        assert per_class == {"0": 1, "1": 1}


def toy_templates():
    """The toy preset as an inline ``anchors.templates`` list."""
    return [{"ratio": t.ratio, "area": t.area} for t in anchor_preset("toy")]


def write_checkpoint(tmp_path, edit=None, edit_config=None, image_hw=(16, 16)):
    """A freshly initialised checkpoint of the default run config plus one image (16x16 by default).

    ``edit`` may change the state tensors, and ``edit_config`` the run
    config, in place before they are saved.
    """
    ckpt_config = default_config_dict()
    tensors = dict(DetSegModel(run_config_from_dict(ckpt_config).model, seed=0).state_tensors())
    if edit is not None:
        edit(tensors)
    if edit_config is not None:
        edit_config(ckpt_config)
    path = os.path.join(tmp_path, "model.nnad")
    save_checkpoint(path, ckpt_config, tensors)
    image = os.path.join(tmp_path, "img.ppm")
    write_ppm(image, np.random.default_rng(0).random((3, *image_hw)))
    return path, image


def inline_templates(config, templates):
    config["anchors"] = {"stride": 8, "templates": templates}


MALFORMED_CONFIGS = {
    "no_model": (lambda c: c.pop("model"), "invalid config at <root>: 'model' is a required property"),
    # checkpoints written while the model had a conv_kind setting carry "separable"
    "unknown_conv_kind": (lambda c: c["model"].update(conv_kind="separable"),
                          "invalid config at model: Additional properties are not allowed "
                          "('conv_kind' was unexpected)"),
    "no_preset_or_templates": (lambda c: c["anchors"].pop("preset"),
                               "invalid config at anchors: must specify exactly one of 'preset' or 'templates'"),
    "preset_and_templates": (lambda c: c["anchors"].update(templates=toy_templates()),
                             "invalid config at anchors: must specify exactly one of 'preset' or 'templates'"),
    "templates_not_json": (lambda c: inline_templates(c, "zz"),
                           "invalid config at anchors/templates: 'zz' is not of type 'array'"),
    "template_unknown_key": (lambda c: inline_templates(c, [*toy_templates()[:3],
                                                            {"ratio": 1, "area": 64, "bogus": 3}]),
                             "invalid config at anchors/templates/3: Additional properties are not allowed "
                             "('bogus' was unexpected)"),
    "thresholds_not_object": (lambda c: c.update(thresholds=[]),
                              "invalid config at thresholds: [] is not of type 'object'"),
    "threshold_null": (lambda c: c["thresholds"].update(nms_iou=None),
                       "invalid config at thresholds/nms_iou: None is not of type 'number'"),
    "threshold_string": (lambda c: c["thresholds"].update(score="x"),
                         "invalid config at thresholds/score: 'x' is not of type 'number'"),
    "threshold_above_one": (lambda c: c["thresholds"].update(score=7.0),
                            "invalid config at thresholds/score: 7.0 is greater than the maximum of 1"),
    "threshold_nan": (lambda c: c["thresholds"].update(score=float("nan")),
                      "invalid config at thresholds/score: nan is not of type 'number'"),
    "threshold_unknown_key": (lambda c: c["thresholds"].update(nms=0.3),
                              "invalid config at thresholds: Additional properties are not allowed "
                              "('nms' was unexpected)"),
    "preset_unknown": (lambda c: c["anchors"].update(preset="zz"),
                       "invalid config at anchors/preset: 'zz' is not one of ['paper-table1', 'toy']"),
    "task_unknown": (lambda c: c["training"].update(tasks=["boxes"]),
                     "invalid config at training/tasks/0: 'boxes' is not one of "
                     "['objectness', 'class', 'box', 'embedding', 'segmentation']"),
    "channels_too_few": (lambda c: c["model"].update(stage_channels=[16, 24]),
                         "invalid config at model/stage_channels: [16, 24] is too short"),
    "channels_too_many": (lambda c: c["model"].update(stage_channels=[16, 24, 32, 48]),
                          "invalid config at model/stage_channels: [16, 24, 32, 48] is too long"),
    "channels_float": (lambda c: c["model"].update(stage_channels=[16.0, 24, 32]),
                       "invalid config at model/stage_channels/0: 16.0 is not of type 'integer'"),
    "stride_float": (lambda c: c["anchors"].update(stride=8.0),
                     "invalid config at anchors/stride: 8.0 is not of type 'integer'"),
    # counts that would keep synth or train-toy running for ever
    "iterations_huge": (lambda c: c["training"].update(iterations=10**300),
                        f"invalid config at training/iterations: {10**300} is greater than the maximum of "
                        f"{MAX_ITERATIONS}"),
    "freeze_stats_after_huge": (lambda c: c["training"].update(freeze_stats_after=MAX_ITERATIONS + 1),
                                f"invalid config at training/freeze_stats_after: {MAX_ITERATIONS + 1} is "
                                f"greater than the maximum of {MAX_ITERATIONS}"),
    "num_images_huge": (lambda c: c["dataset"].update(num_images=MAX_IMAGES + 1),
                        f"invalid config at dataset/num_images: {MAX_IMAGES + 1} is greater than the "
                        f"maximum of {MAX_IMAGES}"),
}


def no_mallopt(name):
    return object()


def no_c_library(name):
    raise TypeError("no C library handle")  # what ctypes.CDLL(None) raises on Windows


class TestDetectCommand:
    def detect(self, capsys, tmp_path, checkpoint, image):
        out_path = os.path.join(tmp_path, "dets.jsonl")
        code, out, err = run(capsys, "detect", "--checkpoint", checkpoint, "--images", image,
                             "--output", out_path)
        if code:
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert out == ""
            assert not os.path.exists(out_path)
        return code, err

    def test_fresh_checkpoint_runs(self, capsys, tmp_path):
        code, err = self.detect(capsys, tmp_path, *write_checkpoint(tmp_path))
        assert code == 0, err

    def test_thresholds_are_optional(self, capsys, tmp_path):
        code, err = self.detect(capsys, tmp_path, *write_checkpoint(tmp_path, edit_config=lambda c: c.pop("thresholds")))
        assert code == 0, err

    def test_non_finite_head_output_rejected(self, capsys, tmp_path):
        # finite weights, large enough that the objectness head overflows
        checkpoint, image = write_checkpoint(
            tmp_path, edit=lambda tensors: tensors["head_objectness.4.weight"].fill(1e308))
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert image in err and "objectness has non-finite values" in err

    def test_head_overflow_prints_one_error_line(self, tmp_path):
        # in a child process, because pytest captures numpy's warnings
        checkpoint, image = write_checkpoint(
            tmp_path, edit=lambda tensors: tensors["head_objectness.4.weight"].fill(1e308))
        src = os.path.dirname(os.path.dirname(detseg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out_path = os.path.join(tmp_path, "dets.jsonl")
        done = subprocess.run(
            [sys.executable, "-m", "detseg.pipeline.cli", "detect", "--checkpoint", checkpoint,
             "--images", image, "--output", out_path],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stdout == "" and not os.path.exists(out_path)
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1, done.stderr
        assert "objectness has non-finite values" in done.stderr

    def test_buffer_shape_mismatch_rejected_at_load(self, capsys, tmp_path):
        checkpoint, image = write_checkpoint(
            tmp_path, edit=lambda tensors: tensors.update({"backbone.1.bn1.running_var": np.ones(1)}))
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == (f"error: checkpoint {checkpoint}: tensor 'backbone.1.bn1.running_var' "
                       "has shape (1,), expected (16,)\n")

    def test_missing_tensor_rejected_at_load(self, capsys, tmp_path):
        checkpoint, image = write_checkpoint(
            tmp_path, edit=lambda tensors: tensors.pop("head_embeddings.2.running_mean"))
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == f"error: checkpoint {checkpoint}: missing tensor 'head_embeddings.2.running_mean'\n"

    def test_non_finite_tensor_rejected_at_load(self, capsys, tmp_path):
        # rejected at load and named, before a forward carries the NaN to the heads
        def poison(tensors):
            tensors["backbone.0.weight"].flat[0] = np.nan

        checkpoint, image = write_checkpoint(tmp_path, edit=poison)
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert checkpoint in err and "'backbone.0.weight' has non-finite values" in err

    def test_negative_variance_rejected_at_load(self, capsys, tmp_path):
        # finite, so the checkpoint reader passes it; a forward would give NaN logits and blame the image
        def poison(tensors):
            tensors["backbone.1.bn1.running_var"][0] = -0.5

        checkpoint, image = write_checkpoint(tmp_path, edit=poison)
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == f"error: checkpoint {checkpoint}: tensor 'backbone.1.bn1.running_var' has negative values\n"

    @pytest.mark.parametrize("cdll", [no_mallopt, no_c_library])
    def test_blocked_layers_run_where_libc_has_no_mallopt(self, capsys, tmp_path, monkeypatch, cdll):
        # blocks of one channel, so that the depthwise and transposed layers ask for the heap policy
        monkeypatch.setattr(layers, "COL_BLOCK", 1)
        monkeypatch.setattr(layers.ctypes, "CDLL", cdll)
        layers.fix_heap_thresholds.cache_clear()
        try:
            code, err = self.detect(capsys, tmp_path, *write_checkpoint(tmp_path))
            assert code == 0 and err == ""
            assert layers.fix_heap_thresholds.cache_info().misses == 1
            assert layers.fix_heap_thresholds() is False  # the value the first blocked layer left
        finally:
            layers.fix_heap_thresholds.cache_clear()

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_rejected_naming_checkpoint_and_key(self, capsys, tmp_path, case):
        edit_config, message = MALFORMED_CONFIGS[case]
        checkpoint, image = write_checkpoint(tmp_path, edit_config=edit_config)
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == f"error: checkpoint {checkpoint}: {message}\n"

    def test_malformed_config_json_names_the_checkpoint(self, capsys, tmp_path):
        checkpoint, image = write_checkpoint(tmp_path)
        with open(checkpoint, "r+b") as fh:
            fh.seek(16)  # past the magic, the version and the config length
            fh.write(b"x")
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err.startswith(f"error: checkpoint {checkpoint}: malformed config JSON: Expecting value")

    def test_indivisible_image_size_names_the_image(self, capsys, tmp_path):
        checkpoint, image = write_checkpoint(tmp_path, image_hw=(16, 20))
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == f"error: image {image}: input spatial dims must be divisible by 8, got 16x20\n"

    def test_template_count_mismatch_names_the_first_mismatched_tensor(self, capsys, tmp_path):
        # 14 templates in the config against tensors of a 15-template network
        checkpoint, image = write_checkpoint(
            tmp_path, edit_config=lambda c: inline_templates(c, toy_templates()[:14]))
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == (f"error: checkpoint {checkpoint}: tensor 'head_objectness.4.weight' "
                       "has shape (30, 32, 1, 1), expected (28, 32, 1, 1)\n")

    def test_stride_mismatch_rejected_at_load(self, capsys, tmp_path):
        checkpoint, image = write_checkpoint(tmp_path, edit_config=lambda c: c["anchors"].update(stride=4))
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == f"error: checkpoint {checkpoint}: invalid config at anchors/stride: 8 was expected\n"

    def test_version_1_checkpoint_is_one_error_line(self, capsys, tmp_path):
        # version 1 kept a second copy of the settings beside the run config
        checkpoint, image = write_checkpoint(tmp_path)
        with open(checkpoint, "r+b") as fh:
            fh.seek(4)  # past the magic
            fh.write(struct.pack("<I", 1))
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == f"error: checkpoint {checkpoint}: unsupported checkpoint version 1 (expected 2)\n"

    def test_duplicated_tensor_name_rejected_at_load(self, capsys, tmp_path):
        # save_checkpoint writes whatever name/array pairs its mapping yields,
        # so a mapping that yields one name twice crafts such a file
        class Pairs:
            def __init__(self, pairs):
                self.pairs = pairs

            def __len__(self):
                return len(self.pairs)

            def items(self):
                return iter(self.pairs)

        checkpoint, image = write_checkpoint(tmp_path)
        config, tensors = load_checkpoint(checkpoint)
        # a second, equal copy: without the check it loads and detect exits 0
        twice = Pairs([*tensors.items(), ("backbone.0.weight", tensors["backbone.0.weight"])])
        save_checkpoint(checkpoint, config, twice)
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == f"error: checkpoint {checkpoint}: tensor 'backbone.0.weight' appears twice\n"

    def test_empty_image_names_the_file(self, capsys, tmp_path):
        checkpoint, image = write_checkpoint(tmp_path)
        with open(image, "wb") as fh:
            fh.write(b"P6\n16 0\n255\n")
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == f"error: empty 16x0 raster in {image}\n"

    def test_non_utf8_tensor_name_names_the_checkpoint(self, capsys, tmp_path):
        checkpoint, image = write_checkpoint(tmp_path)
        with open(checkpoint, "r+b") as fh:
            fh.seek(8)  # past the magic and the version
            (config_length,) = struct.unpack("<Q", fh.read(8))
            fh.seek(16 + config_length + 8 + 4)  # past the config, the tensor count and the name length
            fh.write(b"\xff")
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == f"error: checkpoint {checkpoint}: tensor name is not UTF-8\n"

    def test_draws_no_random_numbers(self, capsys, tmp_path, monkeypatch):
        # every weight comes from the checkpoint, so the model is built without a generator
        checkpoint, image = write_checkpoint(tmp_path)

        def fail(*args, **kwargs):
            raise AssertionError("detect made a random generator")

        monkeypatch.setattr(np.random, "default_rng", fail)
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 0, err

    def test_label_map_ties_keep_the_lower_class(self):
        logits = np.array([[[0.0, 1.0, 2.0, -0.0]], [[0.0, 3.0, 2.0, 0.0]], [[-1.0, 3.0, 2.0, 0.0]]])
        labels = cli._label_map(logits)
        assert labels.dtype == np.uint8 and labels.tolist() == [[0, 1, 0, 0]]
        many = np.round(np.random.default_rng(3).standard_normal((5, 9, 11)))  # ties of every kind
        assert cli._label_map(many).tobytes() == many.argmax(axis=0).astype(np.uint8).tobytes()

    def test_repeated_calls_in_one_process_write_the_same_files(self, capsys, tmp_path):
        # the parser is built once and the loaded tensors are views of each
        # call's own buffer: neither may carry state from one call to the next
        config = write_config(tmp_path, training={"iterations": 3},
                              dataset={"num_images": 2, "width": 32, "height": 32, "max_size": 16})
        data = os.path.join(tmp_path, "data")
        cli.build_parser.cache_clear()
        assert run(capsys, "synth", "--config", config, "--output-dir", data)[0] == 0
        assert run(capsys, "train-toy", "--config", config, "--dataset", data,
                   "--output-dir", os.path.join(tmp_path, "run"))[0] == 0
        checkpoint = os.path.join(tmp_path, "run", "checkpoint.nnad")
        written = []
        for call in ("first", "second"):
            out, seg = os.path.join(tmp_path, f"{call}.jsonl"), os.path.join(tmp_path, f"{call}_seg")
            code, _, err = run(capsys, "detect", "--checkpoint", checkpoint, "--images",
                               os.path.join(data, "images"), "--output", out, "--seg-output", seg,
                               "--score-threshold", "0.0")
            assert code == 0, err
            written.append([open(out, "rb").read()] + [open(os.path.join(seg, name), "rb").read()
                                                       for name in sorted(os.listdir(seg))])
            if call == "first":
                assert run(capsys, "train-toy", "--config", config, "--dataset", data,
                           "--output-dir", os.path.join(tmp_path, "other"))[0] == 0
        assert len(written[0]) == 3 and written[0][0].count(b"\n") > 0
        assert written[1] == written[0]
        assert cli.build_parser.cache_info().misses == 1

    def test_failing_image_leaves_no_label_maps(self, capsys, tmp_path):
        # the first image runs, the second fails: neither its label map nor the JSONL is written
        checkpoint, image = write_checkpoint(tmp_path)
        images = os.path.join(tmp_path, "images")
        os.makedirs(images)
        os.replace(image, os.path.join(images, "000.ppm"))
        bad = os.path.join(images, "001.ppm")
        with open(bad, "wb") as fh:
            fh.write(b"P6\n16 0\n255\n")
        out_path, seg = os.path.join(tmp_path, "dets.jsonl"), os.path.join(tmp_path, "seg")
        code, out, err = run(capsys, "detect", "--checkpoint", checkpoint, "--images", images,
                             "--output", out_path, "--seg-output", seg)
        assert (code, out, err) == (1, "", f"error: empty 16x0 raster in {bad}\n")
        assert not os.path.exists(os.path.join(seg, "000.pgm"))
        assert not os.path.exists(seg)
        assert not os.path.exists(out_path)

    # The flags are checked while parsing, before the checkpoint is read:
    # out-of-range values are usage errors (exit 2), in-range values get as
    # far as the missing checkpoint (exit 1).
    def check_flag(self, capsys, tmp_path, flag):
        out_path = os.path.join(tmp_path, "dets.jsonl")
        base = ["detect", "--checkpoint", os.path.join(tmp_path, "none.nnad"),
                "--images", str(tmp_path), "--output", out_path]
        for bad in ("2", "-1", "1.0001", "nan", "high"):
            code, out, err = run(capsys, *base, flag, bad)
            assert code == 2, bad
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert flag in err and "[0, 1]" in err
            assert out == ""
        for good in ("0", "1", "0.5"):
            code, _, err = run(capsys, *base, flag, good)
            assert code == 1 and err == f"error: {base[2]}: No such file or directory\n", good
        assert not os.path.exists(out_path)

    def test_score_threshold_bounded(self, capsys, tmp_path):
        self.check_flag(capsys, tmp_path, "--score-threshold")

    def test_nms_iou_bounded(self, capsys, tmp_path):
        self.check_flag(capsys, tmp_path, "--nms-iou")


class TestSynthCommand:
    def test_writes_complete_dataset(self, capsys, tmp_path):
        config = write_config(tmp_path, dataset={"num_images": 2, "width": 64, "height": 64})
        out_dir = os.path.join(tmp_path, "data")
        code, out, _ = run(capsys, "synth", "--config", config, "--output-dir", out_dir)
        assert code == 0
        for sub, suffix in (("images", ".ppm"), ("labels", ".pgm"),
                            ("instances", ".pgm"), ("annotations", ".json")):
            files = os.listdir(os.path.join(out_dir, sub))
            assert sorted(files) == [f"00{i}{suffix}" for i in range(2)]
        manifest = json.load(open(os.path.join(out_dir, "manifest.json")))
        assert manifest["count"] == 2
        assert os.path.exists(os.path.join(out_dir, "class_table.json"))

    def test_written_annotations_give_the_in_memory_ground_truth(self, capsys, tmp_path):
        # train-toy trains on make_dataset's gts in memory and on the
        # annotations with --dataset; eval-det reads the annotations
        config = write_config(tmp_path, dataset={"num_images": 8, "width": 96, "height": 64,
                                                 "max_objects": 4, "min_size": 5, "max_size": 30})
        out_dir = os.path.join(tmp_path, "data")
        assert run(capsys, "synth", "--config", config, "--output-dir", out_dir)[0] == 0
        settings = load_run_config(config)
        scenes = make_dataset(settings.seed, settings.num_images, settings.scene)
        for i, scene in enumerate(scenes):
            annotation = load_annotation(os.path.join(out_dir, "annotations", f"{i:03d}.json"))
            assert scene.gts == boxes_from_polygons(annotation, synthetic_table())
        assert {g.class_id for s in scenes for g in s.gts} == {0, 1}

    @pytest.mark.parametrize("count, reason", [(0, "0 is less than the minimum of 1"),
                                               (-2, "-2 is less than the minimum of 1"),
                                               ("two", "'two' is not of type 'integer'")])
    def test_count_must_be_positive(self, capsys, tmp_path, count, reason):
        out_dir = os.path.join(tmp_path, "data")
        config = write_config(tmp_path, dataset={"num_images": count, "width": 64, "height": 64})
        code, out, err = run(capsys, "synth", "--config", config, "--output-dir", out_dir)
        assert code == 1 and out == "" and not os.path.exists(out_dir)
        assert err == f"error: config {config}: invalid config at dataset/num_images: {reason}\n"

    def test_count_is_bounded(self, capsys, tmp_path):
        out_dir = os.path.join(tmp_path, "data")
        config = write_config(tmp_path, dataset={"num_images": 10**300, "width": 64, "height": 64})
        code, out, err = run(capsys, "synth", "--config", config, "--output-dir", out_dir)
        assert code == 1 and out == "" and not os.path.exists(out_dir)
        assert err == (f"error: config {config}: invalid config at dataset/num_images: "
                       f"{10**300} is greater than the maximum of {MAX_IMAGES}\n")

    def test_object_count_is_bounded(self, capsys, tmp_path):
        # instance maps are 8-bit with 0 for background, so the 256th object has no id
        out_dir = os.path.join(tmp_path, "data")
        config = write_config(tmp_path, dataset={"num_images": 1, "width": 256, "height": 256, "min_objects": 300,
                                                 "max_objects": 300, "min_size": 2, "max_size": 4})
        code, out, err = run(capsys, "synth", "--config", config, "--output-dir", out_dir)
        assert code == 1 and out == "" and not os.path.exists(out_dir)
        assert err.startswith(f"error: config {config}: invalid config at dataset/") and err.count("\n") == 1, err
        assert err.endswith(f"300 is greater than the maximum of {MAX_OBJECTS}\n")

    def test_image_too_large_for_memory(self, capsys, tmp_path):
        # numpy refuses the scene's first array, of 171 PiB, at once and without touching memory
        out_dir = os.path.join(tmp_path, "data")
        config = write_config(tmp_path, dataset={"num_images": 1, "width": 8 * 10**15, "height": 64})
        code, out, err = run(capsys, "synth", "--config", config, "--output-dir", out_dir)
        assert code == 1 and out == "" and not os.path.exists(out_dir)
        assert err.startswith("error: out of memory: Unable to allocate ") and err.count("\n") == 1, err


class TestTrainToyCommand:
    def test_checkpoint_holds_the_run_config_it_was_trained_with(self, capsys, tmp_path):
        config = write_config(tmp_path, training={"iterations": 2},
                              dataset={"num_images": 1, "width": 32, "height": 32, "max_size": 16})
        out_dir = os.path.join(tmp_path, "run")
        code, _, err = run(capsys, "train-toy", "--config", config, "--output-dir", out_dir)
        assert code == 0, err
        ckpt_config, _ = load_checkpoint(os.path.join(out_dir, "checkpoint.nnad"))
        with open(config) as fh:
            assert ckpt_config == json.load(fh)

    @pytest.mark.parametrize("key, value", [("iterations", 10**300), ("iterations", MAX_ITERATIONS + 1),
                                            ("freeze_stats_after", 10**300)])
    def test_iteration_counts_are_bounded(self, capsys, tmp_path, key, value):
        config = write_config(tmp_path, training={"iterations": 1, key: value})
        out_dir = os.path.join(tmp_path, "run")
        code, out, err = run(capsys, "train-toy", "--config", config, "--output-dir", out_dir)
        assert code == 1 and out == "" and not os.path.exists(out_dir)
        assert err == (f"error: config {config}: invalid config at training/{key}: "
                       f"{value} is greater than the maximum of {MAX_ITERATIONS}\n")

    def test_non_finite_number_is_one_error_line_naming_the_file(self, capsys, tmp_path):
        config = write_config(tmp_path, thresholds={"score": float("inf")})
        code, out, err = run(capsys, "train-toy", "--config", config, "--output-dir", str(tmp_path))
        assert code == 1 and out == ""
        assert err == (f"error: config {config}: invalid config at thresholds/score: "
                       "inf is not of type 'number'\n")

    @pytest.mark.parametrize("section, value, at, key", [
        ("assign", {"active_iou": 0.5}, "<root>", "assign"),
        ("schedule", {"base_lr": 0.001}, "<root>", "schedule"),
        ("paths", {}, "<root>", "paths"),
        ("training", {"iterations": 2, "margin": 1.0}, "training", "margin"),
    ])
    def test_removed_setting_is_one_error_line_naming_the_file(self, capsys, tmp_path, section, value, at, key):
        config = write_config(tmp_path, **{section: value})
        code, out, err = run(capsys, "train-toy", "--config", config, "--output-dir", str(tmp_path))
        assert code == 1 and out == ""
        assert err == (f"error: config {config}: invalid config at {at}: "
                       f"Additional properties are not allowed ('{key}' was unexpected)\n")

    @pytest.mark.parametrize("change, at, shown", [
        ({"model": {"num_classes": 3, "num_object_classes": 2, "stage_channels": [16.0, 24, 32]}},
         "model/stage_channels/0", "16.0 is not of type 'integer'"),
        ({"seed": 7.0}, "seed", "7.0 is not of type 'integer'"),
        # an integer no float holds is rejected, not let past minimum and maximum
        ({"seed": -10**400}, "seed", f"{-10**400} is not of type 'integer'"),
    ], ids=["stage_channels_float", "seed_float", "seed_no_float_holds"])
    def test_integer_must_be_an_integer_literal(self, capsys, tmp_path, change, at, shown):
        config = write_config(tmp_path, training={"iterations": 1},
                              dataset={"num_images": 1, "width": 32, "height": 32, "max_size": 16}, **change)
        out_dir = os.path.join(tmp_path, "run")
        code, out, err = run(capsys, "train-toy", "--config", config, "--output-dir", out_dir)
        assert code == 1 and out == "" and not os.path.exists(out_dir)
        assert err == f"error: config {config}: invalid config at {at}: {shown}\n"

    @staticmethod
    def synth_dataset(capsys, tmp_path, names=None, num_images=1):
        """A ``synth`` dataset of 32x32 images, whose class table lists ``names`` if given."""
        data = os.path.join(tmp_path, "data")
        config = write_config(tmp_path, dataset={"num_images": num_images, "width": 32, "height": 32,
                                                 "max_size": 16})
        assert run(capsys, "synth", "--config", config, "--output-dir", data)[0] == 0
        if names is not None:
            table = synthetic_table().to_json()
            write_json(os.path.join(data, "class_table.json"), dict(table, names=names))
        return data

    def train_on(self, capsys, tmp_path, data):
        config = write_config(tmp_path, training={"iterations": 2},
                              dataset={"num_images": 1, "width": 32, "height": 32, "max_size": 16})
        out_dir = os.path.join(tmp_path, "run")
        code, out, err = run(capsys, "train-toy", "--config", config, "--dataset", data, "--output-dir", out_dir)
        assert code == 1 and out == "" and not os.path.exists(out_dir)
        return err

    def test_label_map_size_must_match_its_image(self, capsys, tmp_path):
        data = self.synth_dataset(capsys, tmp_path)
        labels = os.path.join(data, "labels", "000.pgm")
        write_pgm(labels, read_pgm(labels)[:24, :16])
        err = self.train_on(capsys, tmp_path, data)
        assert err == f"error: label map {labels}: size 16x24 differs from its image's 32x32\n"

    def test_image_size_must_match_the_first_image(self, capsys, tmp_path):
        data = self.synth_dataset(capsys, tmp_path, num_images=2)
        image = os.path.join(data, "images", "001.ppm")
        write_ppm(image, np.zeros((3, 32, 40)))
        err = self.train_on(capsys, tmp_path, data)
        assert err == f"error: image {image}: size 40x32 differs from the first image's 32x32\n"

    def test_image_sides_must_be_multiples_of_8(self, capsys, tmp_path):
        data = self.synth_dataset(capsys, tmp_path, num_images=2)
        for image_id in ("000", "001"):
            write_ppm(os.path.join(data, "images", image_id + ".ppm"), np.zeros((3, 60, 60)))
        err = self.train_on(capsys, tmp_path, data)
        first = os.path.join(data, "images", "000.ppm")
        assert err == f"error: image {first}: size 60x60 is not a multiple of 8\n"

    def test_annotation_size_must_match_its_image(self, capsys, tmp_path):
        # otherwise boxes of a 64x64 annotation become targets on a 32x32 image
        data = self.synth_dataset(capsys, tmp_path)
        annotation = os.path.join(data, "annotations", "000.json")
        with open(annotation) as fh:
            document = json.load(fh)
        write_json(annotation, dict(document, image_width=64, image_height=64))
        err = self.train_on(capsys, tmp_path, data)
        assert err == f"error: annotation {annotation}: size 64x64 differs from its image's 32x32\n"

    def test_label_ids_must_be_classes_of_the_table_or_ignore(self, capsys, tmp_path):
        data = self.synth_dataset(capsys, tmp_path)
        labels = os.path.join(data, "labels", "000.pgm")
        label_map = read_pgm(labels)
        label_map[0, :3] = (7, 255, 3)
        write_pgm(labels, label_map)
        err = self.train_on(capsys, tmp_path, data)
        assert err == f"error: label map {labels}: ids [3, 7] are neither classes of the 3-class table nor 255\n"

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_model_classes_must_match_the_dataset_class_table(self, capsys, tmp_path, num_classes):
        # the label maps hold no id that the model could not predict, so
        # without the check training would run on a table it ignores
        data = self.synth_dataset(capsys, tmp_path, ["background", "rect", "ellipse", "sky", "road"])
        config = write_config(tmp_path, model={"num_classes": num_classes, "num_object_classes": 2},
                              training={"iterations": 2},
                              dataset={"num_images": 1, "width": 32, "height": 32, "max_size": 16})
        out_dir = os.path.join(tmp_path, "run")
        code, out, err = run(capsys, "train-toy", "--config", config, "--dataset", data, "--output-dir", out_dir)
        assert code == 1 and out == "" and not os.path.exists(out_dir)
        assert err == (f"error: dataset {data}: its class table has 5 classes and 2 detection classes, "
                       f"but model.num_classes is {num_classes} and model.num_object_classes is 2\n")

    def test_model_detection_classes_must_match_the_synthetic_class_table(self, capsys, tmp_path):
        config = write_config(tmp_path, model={"num_classes": 3, "num_object_classes": 3},
                              training={"iterations": 2})
        out_dir = os.path.join(tmp_path, "run")
        code, out, err = run(capsys, "train-toy", "--config", config, "--output-dir", out_dir)
        assert code == 1 and out == "" and not os.path.exists(out_dir)
        assert err == ("error: in-memory synthetic dataset: its class table has 3 classes and 2 detection "
                       "classes, but model.num_classes is 3 and model.num_object_classes is 3\n")

    def test_one_object_class_is_one_error_line_naming_the_key(self, capsys, tmp_path):
        # the class head's softmax needs two classes; without the schema check this failed at step 0
        config = write_config(tmp_path, model={"num_classes": 3, "num_object_classes": 1},
                              training={"iterations": 2})
        code, out, err = run(capsys, "train-toy", "--config", config, "--output-dir", str(tmp_path))
        assert code == 1 and out == ""
        assert err == (f"error: config {config}: invalid config at model/num_object_classes: "
                       "1 is less than the minimum of 2\n")


class TestEvalSegCommand:
    def test_perfect_prediction_scores_one(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        gt_dir = os.path.join(tmp_path, "gt")
        pred_dir = os.path.join(tmp_path, "pred")
        os.makedirs(gt_dir)
        os.makedirs(pred_dir)
        for name in ("a.pgm", "b.pgm"):
            labels = rng.integers(0, 3, (16, 16)).astype(np.uint8)
            write_pgm(os.path.join(gt_dir, name), labels)
            write_pgm(os.path.join(pred_dir, name), labels)
        report_path = os.path.join(tmp_path, "report.json")
        code, out, _ = run(capsys, "eval-seg", "--pred", pred_dir, "--gt", gt_dir,
                           "--output", report_path)
        assert code == 0
        report = json.load(open(report_path))
        assert report["mean_iou"] == 1.0
        assert report["per_class"]["rect"]["iou"] == 1.0

    @pytest.mark.parametrize("missing", ["prediction", "instance map"])
    def test_missing_file_named_by_its_path_without_partial_output(self, capsys, tmp_path, missing):
        dirs = {name: os.path.join(tmp_path, name) for name in ("gt", "prediction", "instance map")}
        for name, path in dirs.items():
            os.makedirs(path)
            if name != missing:
                write_pgm(os.path.join(path, "a.pgm"), np.zeros((4, 4), dtype=np.uint8))
        report_path = os.path.join(tmp_path, "report.json")
        code, out, err = run(capsys, "eval-seg", "--pred", dirs["prediction"], "--gt", dirs["gt"],
                             "--instances", dirs["instance map"], "--output", report_path)
        assert code == 1 and out == "" and not os.path.exists(report_path)
        assert err == f"error: {os.path.join(dirs[missing], 'a.pgm')}: No such file or directory\n"

    @pytest.mark.parametrize("faulty, kind", [("prediction", "label map"), ("instance map", "instance map")])
    def test_size_mismatch_names_the_file_at_fault(self, capsys, tmp_path, faulty, kind):
        dirs = {name: os.path.join(tmp_path, name) for name in ("gt", "prediction", "instance map")}
        for name, path in dirs.items():
            os.makedirs(path)
            write_pgm(os.path.join(path, "a.pgm"), np.zeros((4, 6 if name == faulty else 4), dtype=np.uint8))
        report_path = os.path.join(tmp_path, "report.json")
        code, out, err = run(capsys, "eval-seg", "--pred", dirs["prediction"], "--gt", dirs["gt"],
                             "--instances", dirs["instance map"], "--output", report_path)
        assert code == 1 and out == "" and not os.path.exists(report_path)
        assert err == (f"error: {kind} {os.path.join(dirs[faulty], 'a.pgm')}: size 6x4 "
                       "differs from its ground truth's 4x4\n")

    @pytest.mark.parametrize("faulty, reason", [("gt", "ground truth"), ("pred", "prediction")])
    def test_out_of_range_ids_name_the_file_at_fault(self, capsys, tmp_path, faulty, reason):
        dirs = {name: os.path.join(tmp_path, name) for name in ("gt", "pred")}
        labels = np.zeros((4, 4), dtype=np.uint8)
        for name, path in dirs.items():
            os.makedirs(path)
            labels[1, 1] = 7 if name == faulty else 0
            write_pgm(os.path.join(path, "a.pgm"), labels)
        report_path = os.path.join(tmp_path, "report.json")
        code, out, err = run(capsys, "eval-seg", "--pred", dirs["pred"], "--gt", dirs["gt"], "--output", report_path)
        assert code == 1 and out == "" and not os.path.exists(report_path)
        faulty_path = os.path.join(dirs[faulty], "a.pgm")
        assert err == f"error: label map {faulty_path}: {reason} ids outside [0, 3)\n"


class TestEvalDetCommand:
    def test_degenerate_polygon_is_one_warning_line(self, capsys, caplog, tmp_path):
        os.makedirs(tmp_path / "annotations")
        flat = {"label": "rect", "polygon": [[1, 1], [10, 1]], "instance_id": 2}
        write_json(tmp_path / "annotations" / "000.json",
                   {"image_width": 16, "image_height": 16, "objects": [ONE_RECT, flat]})
        with open(tmp_path / "det.jsonl", "w") as fh:
            fh.write(json.dumps({"image_id": "000", "class": 0, "score": 0.9, "x_min": 1, "y_min": 1,
                                 "x_max": 10, "y_max": 10, "embedding": []}) + "\n")
        handlers = list(logging.getLogger("detseg").handlers)
        code, _, err = run(capsys, "eval-det", "--detections", str(tmp_path / "det.jsonl"),
                           "--annotations", str(tmp_path / "annotations"),
                           "--output", str(tmp_path / "report.json"))
        assert code == 0
        annotation = tmp_path / "annotations" / "000.json"
        assert err == f"warning: annotation {annotation}: dropped 1 degenerate (zero-area) polygon(s)\n"
        # the handler lives for one call, and records still propagate to other handlers
        assert logging.getLogger("detseg").handlers == handlers
        assert "dropped 1 degenerate" in caplog.text

    @staticmethod
    def eval_det_on(capsys, tmp_path, detection=None, objects=(ONE_RECT,)):
        """eval-det of one detection line against the annotation of ``objects``, which must fail.

        Returns the annotation's path, the detection file's and stderr.
        """
        os.makedirs(tmp_path / "annotations")
        annotation = write_json(tmp_path / "annotations" / "000.json",
                                {"image_width": 16, "image_height": 16, "objects": list(objects)})
        detections = str(tmp_path / "det.jsonl")
        with open(detections, "w") as fh:
            fh.write(json.dumps({"image_id": "000", "class": 0, "score": 0.9, "x_min": 1, "y_min": 1,
                                 "x_max": 10, "y_max": 10, "embedding": [], **(detection or {})}) + "\n")
        report_path = str(tmp_path / "report.json")
        code, out, err = run(capsys, "eval-det", "--detections", detections,
                             "--annotations", str(tmp_path / "annotations"), "--output", report_path)
        assert code == 1 and out == "" and not os.path.exists(report_path)
        return annotation, detections, err

    def test_class_beyond_the_table_names_the_detections_file(self, capsys, tmp_path):
        _, detections, err = self.eval_det_on(capsys, tmp_path, {"class": 7})
        assert err == f"error: detections {detections}: class id 7 exceeds the class table (2 detection classes)\n"

    def test_unknown_image_id_names_the_detections_file(self, capsys, tmp_path):
        _, detections, err = self.eval_det_on(capsys, tmp_path, {"image_id": "001"})
        assert err == (f"error: detections {detections}: image ids ['001'] have no annotation "
                       f"under {tmp_path / 'annotations'}\n")

    def test_malformed_detection_names_the_file(self, capsys, tmp_path):
        os.makedirs(tmp_path / "annotations")
        write_json(tmp_path / "annotations" / "000.json",
                   {"image_width": 16, "image_height": 16, "objects": [ONE_RECT]})
        detections = str(tmp_path / "det.jsonl")
        with open(detections, "w") as fh:
            fh.write(json.dumps({"image_id": "000", "class": 0, "score": 2.0, "x_min": 1, "y_min": 1,
                                 "x_max": 10, "y_max": 10, "embedding": []}) + "\n")
        report_path = str(tmp_path / "report.json")
        code, out, err = run(capsys, "eval-det", "--detections", detections,
                             "--annotations", str(tmp_path / "annotations"), "--output", report_path)
        assert code == 1 and out == "" and not os.path.exists(report_path)
        assert err == (f"error: detections {detections}: malformed detection on line 1: "
                       "score must be a number in [0, 1], got 2.0\n")


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "all suites passed" in out
        assert "depthwise oracle: 27 cases, 0 mismatches -> ok" in out.splitlines()


class TestInputErrorsNameTheirFile:
    """Each reader's error names the file at fault, whichever command reads it."""

    TRUCK = {"label": "truck", "polygon": [[1, 1], [10, 10]], "instance_id": 2}
    UNKNOWN_LABEL = "unknown label 'truck' (known: ['background', 'rect', 'ellipse'])"

    def test_unknown_label_through_assign(self, capsys, tmp_path):
        annotation = write_json(tmp_path / "ann.json",
                                {"image_width": 16, "image_height": 16, "objects": [ONE_RECT, self.TRUCK]})
        out_path = os.path.join(tmp_path, "t.jsonl")
        code, out, err = run(capsys, "assign", "--annotation", annotation, "--preset", "toy", "--output", out_path)
        assert code == 1 and out == "" and not os.path.exists(out_path)
        assert err == f"error: annotation {annotation}: {self.UNKNOWN_LABEL}\n"

    def test_unknown_label_through_eval_det(self, capsys, tmp_path):
        annotation, _, err = TestEvalDetCommand.eval_det_on(capsys, tmp_path, objects=[ONE_RECT, self.TRUCK])
        assert err == f"error: annotation {annotation}: {self.UNKNOWN_LABEL}\n"

    def test_unknown_label_through_train_toy_dataset(self, capsys, tmp_path):
        data = TestTrainToyCommand.synth_dataset(capsys, tmp_path)
        annotation = os.path.join(data, "annotations", "000.json")
        with open(annotation) as fh:
            document = json.load(fh)
        write_json(annotation, dict(document, objects=[*document["objects"], dict(self.TRUCK, instance_id=99)]))
        err = TestTrainToyCommand().train_on(capsys, tmp_path, data)
        assert err == f"error: annotation {annotation}: {self.UNKNOWN_LABEL}\n"

    @pytest.mark.parametrize("command", ["detect", "eval-seg", "eval-det", "train-toy"])
    def test_directory_without_inputs_is_one_line_naming_it(self, capsys, tmp_path, command):
        empty = os.path.join(tmp_path, "empty")
        os.makedirs(empty)
        out = os.path.join(tmp_path, "out")
        if command == "detect":
            checkpoint, _ = write_checkpoint(tmp_path)
            argv, expected = ["--checkpoint", checkpoint, "--images", empty, "--output", out], ".ppm images"
        elif command == "eval-seg":
            argv, expected = ["--pred", empty, "--gt", empty, "--output", out], ".pgm label maps"
        elif command == "eval-det":
            detections = os.path.join(tmp_path, "det.jsonl")
            open(detections, "w").close()
            argv = ["--detections", detections, "--annotations", empty, "--output", out]
            expected = ".json annotations"
        else:
            data = TestTrainToyCommand.synth_dataset(capsys, tmp_path)
            empty = os.path.join(data, "images")
            os.remove(os.path.join(empty, "000.ppm"))
            config = write_config(tmp_path, training={"iterations": 2},
                                  dataset={"num_images": 1, "width": 32, "height": 32, "max_size": 16})
            argv, expected = ["--config", config, "--dataset", data, "--output-dir", out], ".ppm images"
        code, stdout, err = run(capsys, command, *argv)
        assert code == 1 and stdout == "" and not os.path.exists(out)
        assert err == f"error: no {expected} under {empty}\n"


class TestErrorShape:
    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["synth", "--config", "{missing}", "--output-dir", "{tmp}/out"],
        ["train-toy", "--config", "{missing}", "--output-dir", "{tmp}/out"],
        ["detect", "--checkpoint", "{missing}", "--images", "{tmp}", "--output", "{tmp}/out"],
        ["assign", "--annotation", "{missing}", "--output", "{tmp}/out"],
        ["assign", "--annotation", "{tmp}/ann.json", "--class-table", "{missing}", "--output", "{tmp}/out"],
        ["anchors", "--image", "8x8", "--templates-file", "{missing}"],
        ["eval-det", "--detections", "{missing}", "--annotations", "{tmp}", "--output", "{tmp}/out"],
    ], ids=lambda argv: f"{argv[0]}{argv[argv.index('{missing}') - 1]}")
    def test_missing_file_is_one_line_naming_it(self, capsys, tmp_path, argv):
        write_json(tmp_path / "ann.json", {"image_width": 16, "image_height": 16, "objects": [ONE_RECT]})
        missing = os.path.join(tmp_path, "missing.json")
        code, out, err = run(capsys, *(a.format(missing=missing, tmp=tmp_path) for a in argv))
        assert code == 1 and out == "" and not os.path.exists(tmp_path / "out")
        assert err == f"error: {missing}: No such file or directory\n"

    def test_output_that_is_a_directory_is_named(self, capsys, tmp_path):
        # the atomic write renames a temporary file over the output; the output is the one to name
        ann_path = write_json(tmp_path / "ann.json", {"image_width": 16, "image_height": 16, "objects": [ONE_RECT]})
        out_dir = os.path.join(tmp_path, "out")
        os.makedirs(out_dir)
        code, _, err = run(capsys, "assign", "--annotation", ann_path, "--preset", "toy", "--output", out_dir)
        assert code == 1
        assert err == f"error: {out_dir}: Is a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["ann.json", "out"]

    def test_malformed_config(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "bad.json")
        with open(path, "w") as fh:
            fh.write("{}")
        code, _, err = run(capsys, "synth", "--config", path, "--output-dir",
                           os.path.join(tmp_path, "out"))
        assert code == 1
        assert err.startswith("error:")
