import csv
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
from detseg.evaluation import (
    cityscapes_adjusted_levels,
    collect_instance_stats,
    evaluate_detections,
    kitti_levels,
    seg_confusion,
    seg_metrics,
)
from detseg.geom import BBox, anchor_preset, make_anchor_grid
from detseg.net import layers
from detseg.net.checkpoint import load_checkpoint, save_checkpoint
from detseg.net.model import DetSegModel
from detseg.oracles import assign_oracle_rows
from detseg.pipeline.annotations import boxes_from_polygons, load_annotation, load_ground_truth
from detseg.pipeline import cli
from detseg.pipeline.cli import main
from detseg.pipeline.config import (
    MAX_IMAGES,
    MAX_ITERATIONS,
    check_class_table,
    default_config_dict,
    load_class_table,
    load_run_config,
    run_config_from_dict,
)
from detseg.pipeline.netpbm import read_pgm, write_pgm, write_ppm
from detseg.pipeline.synth import MAX_OBJECTS, make_dataset, synthetic_table
from detseg.post import detections_from_jsonl


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


# the class table ``synth`` writes, as its file holds it
TABLE = {"names": ["background", "rect", "ellipse"], "instanceable": ["ellipse", "rect"],
         "detection": ["rect", "ellipse"], "categories": {"background": ["background"], "shape": ["rect", "ellipse"]}}


def table_with(**changes):
    """``TABLE`` with keys changed, or removed by None."""
    document = {**TABLE, **changes}
    return {key: value for key, value in document.items() if value is not None}


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

    @pytest.mark.parametrize("document, reason", [
        # the schema: each kind of fault
        (table_with(detection=5), "invalid class table at detection: 5 is not of type 'array'"),
        ({**TABLE, "names": None}, "invalid class table at names: None is not of type 'array'"),
        (table_with(categories=[1]), "invalid class table at categories: [1] is not of type 'object', 'null'"),
        (table_with(names="abc"), "invalid class table at names: 'abc' is not of type 'array'"),
        (table_with(categories={"a": 5}), "invalid class table at categories/a: 5 is not of type 'array'"),
        (table_with(categories={"a": [2]}), "invalid class table at categories/a/0: 2 is not of type 'string'"),
        (table_with(names=[]), "invalid class table at names: [] should be non-empty"),
        (table_with(instanceable=[None]), "invalid class table at instanceable/0: None is not of type 'string'"),
        (table_with(names=None), "invalid class table at <root>: 'names' is a required property"),
        (table_with(detection=None), "invalid class table at <root>: 'detection' is a required property"),
        (table_with(colors=[]),
         "invalid class table at <root>: Additional properties are not allowed ('colors' was unexpected)"),
        (["background"], "invalid class table at <root>: ['background'] is not of type 'object'"),
        # the rules that relate the lists, one by one and in the order they are checked
        (table_with(names=[f"c{i}" for i in range(256)], detection=["c0", "c0"]),
         "at most 255 classes fit 8-bit label maps, got 256"),
        (table_with(names=["background", "rect", "rect"], detection=["rect", "rect"]), "class names must be unique"),
        (table_with(detection=["rect", "rect"], instanceable=["truck"]), "detection classes must be unique"),
        (table_with(instanceable=["truck", "rect", "ellipse", "bus"], detection=["background"]),
         "instanceable classes not in table: ['bus', 'truck']"),
        (table_with(detection=["rect", "background"], categories={"shape": ["car"]}),
         "detection classes must be instanceable: ['background']"),
        (table_with(categories={"shape": ["rect", "car", "bus"], "things": ["van"]}),
         "category 'shape' references unknown classes: ['car', 'bus']"),
    ])
    def test_malformed_class_table_is_one_error_line_naming_the_file(self, capsys, tmp_path, document, reason):
        ann_path = write_json(tmp_path / "ann.json",
                              {"image_width": 16, "image_height": 16, "objects": [ONE_RECT]})
        table_path = write_json(tmp_path / "table.json", document)
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

    def test_non_finite_segmentation_output_rejected(self, capsys, tmp_path):
        # finite weights, large enough that the last 1x1 segmentation convolution overflows
        checkpoint, image = write_checkpoint(
            tmp_path, edit=lambda tensors: tensors["seg_head.12.weight"].fill(1e308))
        out_path, seg_dir = os.path.join(tmp_path, "dets.jsonl"), os.path.join(tmp_path, "seg")
        code, out, err = run(capsys, "detect", "--checkpoint", checkpoint, "--images", image,
                             "--output", out_path, "--seg-output", seg_dir)
        assert code == 1 and out == ""
        assert err == f"error: image {image}: seg_logits has non-finite values\n"
        assert not os.path.exists(out_path) and not os.path.exists(seg_dir)

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
            write_json(os.path.join(data, "class_table.json"), table_with(names=names))
        return data

    def train_on(self, capsys, tmp_path, data):
        config = write_config(tmp_path, training={"iterations": 2},
                              dataset={"num_images": 1, "width": 32, "height": 32, "max_size": 16})
        out_dir = os.path.join(tmp_path, "run")
        code, out, err = run(capsys, "train-toy", "--config", config, "--dataset", data, "--output-dir", out_dir)
        assert code == 1 and out == "" and not os.path.exists(out_dir)
        return err

    @pytest.mark.parametrize("missing", ["images", "labels", "annotations"])
    def test_dataset_dir_needs_its_three_subdirectories(self, capsys, tmp_path, missing):
        data = self.synth_dataset(capsys, tmp_path)
        os.rename(os.path.join(data, missing), os.path.join(tmp_path, missing))
        err = self.train_on(capsys, tmp_path, data)
        assert err == f"error: dataset dir {data} needs images/, labels/ and annotations/\n"

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


    @staticmethod
    def eval_seg_with_instances(capsys, tmp_path, labels, instances):
        """eval-seg of a perfect prediction of the 4x4 ``labels`` with its ``instances``; the report or stderr."""
        dirs = {name: os.path.join(tmp_path, name) for name in ("gt", "pred", "instances")}
        for name, array in (("gt", labels), ("pred", labels), ("instances", instances)):
            os.makedirs(dirs[name])
            write_pgm(os.path.join(dirs[name], "a.pgm"), np.array(array, dtype=np.uint8))
        report_path = os.path.join(tmp_path, "report.json")
        code, out, err = run(capsys, "eval-seg", "--pred", dirs["pred"], "--gt", dirs["gt"],
                             "--instances", dirs["instances"], "--output", report_path)
        if code:
            assert code == 1 and out == "" and not os.path.exists(report_path)
            return err.replace(os.path.join(dirs["gt"], "a.pgm"), "<gt>")
        with open(report_path) as fh:
            return json.load(fh)

    def test_instance_spanning_two_classes_names_the_ground_truth(self, capsys, tmp_path):
        labels = [[1, 1, 2, 2], [1, 1, 2, 2], [0, 0, 0, 0], [0, 0, 0, 0]]
        instances = [[1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
        err = self.eval_seg_with_instances(capsys, tmp_path, labels, instances)
        assert err == "error: label map <gt>: instance 1 spans multiple classes: [1, 2]\n"

    def test_instance_of_a_class_that_is_not_instanceable_is_skipped(self, capsys, tmp_path):
        # instance 2 covers background, which the synthetic table does not list as instanceable
        labels = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        instances = [[1, 1, 2, 2], [1, 1, 2, 2], [0, 0, 0, 0], [0, 0, 0, 0]]
        report = self.eval_seg_with_instances(capsys, tmp_path, labels, instances)
        assert {name: scores["iiou"] for name, scores in report["per_class"].items()} == \
            {"background": None, "rect": 1.0, "ellipse": None}


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
    def eval_det_on(capsys, tmp_path, detection=None, objects=(ONE_RECT,), lines_before=()):
        """eval-det of ``lines_before`` and one detection line against the annotation of ``objects``, which must fail.

        Returns the annotation's path, the detection file's and stderr.
        """
        os.makedirs(tmp_path / "annotations")
        annotation = write_json(tmp_path / "annotations" / "000.json",
                                {"image_width": 16, "image_height": 16, "objects": list(objects)})
        detections = str(tmp_path / "det.jsonl")
        with open(detections, "w") as fh:
            fh.writelines(line + "\n" for line in lines_before)
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

    @pytest.mark.parametrize("bad, reason", [
        ({"score": 2.0}, "score must be a number in [0, 1], got 2.0"),
        ({"embedding": [0.5, float("nan")]}, "embedding values must be finite"),
    ])
    def test_bad_line_after_blank_lines_is_named_by_its_line_in_the_file(self, capsys, tmp_path, bad, reason):
        good = {"image_id": "000", "class": 0, "score": 0.9, "x_min": 1, "y_min": 1, "x_max": 10, "y_max": 10,
                "embedding": [0.5, 0.5]}
        # the blank lines 2 and 3 are skipped but counted
        _, detections, err = self.eval_det_on(capsys, tmp_path, dict(good, **bad),
                                              lines_before=[json.dumps(good), "", "  \t", json.dumps(good)])
        assert err == f"error: detections {detections}: malformed detection on line 5: {reason}\n"

    @staticmethod
    def write_pr_inputs(tmp_path, name="rect"):
        """Two annotations with objects of each size level, detections on them, and the class table.

        The table is the synthetic one with its class "rect" named ``name``.
        Returns the table and the arguments that select the inputs.
        """
        table = {"names": ["background", name, "ellipse"], "instanceable": [name, "ellipse"],
                 "detection": [name, "ellipse"]}
        os.makedirs(tmp_path / "annotations")
        write_json(tmp_path / "annotations" / "000.json", {"image_width": 256, "image_height": 256, "objects": [
            {"label": name, "polygon": [[10, 10], [160, 10], [160, 170], [10, 170]], "instance_id": 1},
            {"label": "ellipse", "polygon": [[180, 20], [240, 50], [210, 90]], "instance_id": 2}]})
        write_json(tmp_path / "annotations" / "001.json", {"image_width": 256, "image_height": 256, "objects": [
            {"label": name, "polygon": [[30, 40], [60, 70]], "instance_id": 7},
            {"label": "ellipse", "polygon": [[100, 100], [230, 220]], "instance_id": 8}]})
        rows = [("000", 0, 0.9, (12, 11, 158, 168)), ("000", 0, 0.4, (170, 180, 200, 210)),
                ("000", 1, 0.8, (181, 21, 239, 88)), ("001", 0, 0.7, (30, 41, 59, 70)),
                ("001", 1, 0.6, (5, 5, 40, 40)), ("001", 1, 0.3, (101, 99, 229, 221))]
        with open(tmp_path / "det.jsonl", "w") as fh:
            for image_id, class_id, score, (x0, y0, x1, y1) in rows:
                fh.write(json.dumps({"image_id": image_id, "class": class_id, "score": score, "x_min": x0,
                                     "y_min": y0, "x_max": x1, "y_max": y1, "embedding": []}) + "\n")
        table_path = write_json(tmp_path / "table.json", table)
        return table, ["--detections", str(tmp_path / "det.jsonl"), "--annotations", str(tmp_path / "annotations"),
                       "--class-table", table_path]

    @pytest.mark.parametrize("mode, levels", [("kitti", kitti_levels()),
                                              ("cityscapes-adjusted", cityscapes_adjusted_levels())])
    def test_pr_curves_hold_the_evaluated_points(self, capsys, tmp_path, mode, levels):
        table, inputs = self.write_pr_inputs(tmp_path)
        curves_dir = tmp_path / "curves"
        code, _, _ = run(capsys, "eval-det", *inputs, "--mode", mode, "--output", str(tmp_path / "report.json"),
                         "--pr-curves", str(curves_dir))
        assert code == 0
        with open(tmp_path / "det.jsonl") as fh:
            dets = detections_from_jsonl(fh.read())
        gts = {image_id: load_ground_truth(str(tmp_path / "annotations" / f"{image_id}.json"), table)[1]
               for image_id in ("000", "001")}
        curves = evaluate_detections(dets, gts, {0: 0.5, 1: 0.5}, levels)
        assert sorted(os.listdir(curves_dir)) == sorted(f"pr_{name}_{level.name}.csv"
                                                        for name in table["detection"] for level in levels)
        assert any(curves[c][level.name].points for c in (0, 1) for level in levels)
        for c, name in enumerate(table["detection"]):
            for level in levels:
                with open(curves_dir / f"pr_{name}_{level.name}.csv", newline="") as fh:
                    header, *rows = list(csv.reader(fh))
                assert header == ["recall", "precision"]
                assert [(float(r), float(p)) for r, p in rows] == curves[c][level.name].points

    @pytest.mark.parametrize("name", [None, "x/../y", "../x", "x\0y", f"x{os.sep}y"])
    def test_pr_curves_that_cannot_be_written_leave_no_output(self, capsys, tmp_path, name):
        """``--pr-curves`` naming a regular file (``name`` None), or a detection class no file name holds."""
        _, inputs = self.write_pr_inputs(tmp_path, name or "rect")
        curves = tmp_path / "curves"
        if name is None:
            curves.write_text("not a directory\n")
        report_path = tmp_path / "report.json"
        code, out, err = run(capsys, "eval-det", *inputs, "--output", str(report_path), "--pr-curves", str(curves))
        assert code == 1 and out == "" and not report_path.exists()
        if name is None:
            assert err == f"error: {curves}: File exists\n"
            assert curves.read_text() == "not a directory\n"
        else:
            assert err == (f"error: --pr-curves: detection class {name!r} cannot be part of a file name: "
                           "it holds a path separator or NUL\n")
            assert not curves.exists()
        assert not list(tmp_path.rglob("*.csv"))


    def test_pr_curve_that_cannot_be_written_leaves_no_other_curve(self, capsys, tmp_path):
        """The last curve of class "rect" is an existing directory: the run writes no curve at all."""
        _, inputs = self.write_pr_inputs(tmp_path)
        curves = tmp_path / "curves"
        os.makedirs(curves / "pr_rect_hard.csv")
        report_path = tmp_path / "report.json"
        code, out, err = run(capsys, "eval-det", *inputs, "--mode", "kitti", "--output", str(report_path),
                             "--pr-curves", str(curves))
        assert code == 1 and out == "" and not report_path.exists()
        assert err == f"error: {curves / 'pr_rect_hard.csv'}: Is a directory\n"
        assert os.listdir(curves) == ["pr_rect_hard.csv"] and not os.listdir(curves / "pr_rect_hard.csv")


class TestTableFile:
    """The class table file ``synth`` writes is the built-in table, and a category lists a class once."""

    @staticmethod
    def synth_run(capsys, tmp_path):
        """A ``synth`` dataset, predicted label maps one pixel off its own, and detections near its boxes."""
        data = os.path.join(tmp_path, "data")
        config = write_config(tmp_path, dataset={"num_images": 3, "width": 48, "height": 32, "max_objects": 3,
                                                 "min_size": 6, "max_size": 14})
        assert run(capsys, "synth", "--config", config, "--output-dir", data)[0] == 0
        pred = os.path.join(tmp_path, "pred")
        os.makedirs(pred)
        lines = []
        for image_id in ("000", "001", "002"):
            write_pgm(os.path.join(pred, image_id + ".pgm"),
                      np.roll(read_pgm(os.path.join(data, "labels", image_id + ".pgm")), 1, axis=1))
            annotation = load_annotation(os.path.join(data, "annotations", image_id + ".json"))
            for k, obj in enumerate(annotation["objects"]):
                xs, ys = [x for x, _ in obj["polygon"]], [y for _, y in obj["polygon"]]
                lines.append(json.dumps({"image_id": image_id, "class": TABLE["detection"].index(obj["label"]),
                                         "score": 0.9 - 0.1 * k, "x_min": min(xs) + k, "y_min": min(ys),
                                         "x_max": max(xs), "y_max": max(ys) + 1, "embedding": []}))
        detections = os.path.join(tmp_path, "det.jsonl")
        with open(detections, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return data, pred, detections

    @staticmethod
    def outputs(directory):
        """Every file under ``directory``, by its path relative to it, as bytes."""
        found = {}
        for root, _, names in os.walk(directory):
            for name in names:
                with open(os.path.join(root, name), "rb") as fh:
                    found[os.path.relpath(os.path.join(root, name), directory)] = fh.read()
        return found

    def test_synth_writes_the_synthetic_table(self, capsys, tmp_path):
        data, _, _ = self.synth_run(capsys, tmp_path)
        loaded = load_class_table(os.path.join(data, "class_table.json"))
        assert check_class_table(synthetic_table()) == loaded == TABLE
        assert list(loaded) == list(synthetic_table())  # in the file's key order

    def test_synth_table_gives_the_reports_of_the_built_in_table(self, capsys, tmp_path):
        data, pred, detections = self.synth_run(capsys, tmp_path)
        runs = {}
        for tag, flag in (("built-in", []), ("file", ["--class-table", os.path.join(data, "class_table.json")])):
            out = os.path.join(tmp_path, tag)
            stdout = []
            for mode in ("kitti", "cityscapes-adjusted"):
                code, text, err = run(capsys, "eval-det", "--detections", detections, "--annotations",
                                      os.path.join(data, "annotations"), "--mode", mode, *flag,
                                      "--output", os.path.join(out, f"det_{mode}.json"),
                                      "--pr-curves", os.path.join(out, f"pr_{mode}"))
                assert code == 0 and err == ""
                stdout.append(text)
            code, text, err = run(capsys, "eval-seg", "--pred", pred, "--gt", os.path.join(data, "labels"),
                                  "--instances", os.path.join(data, "instances"), *flag,
                                  "--output", os.path.join(out, "seg.json"))
            assert code == 0 and err == ""
            runs[tag] = (stdout + [text], self.outputs(out))
        assert runs["file"] == runs["built-in"]
        levels = len(kitti_levels()) + len(cityscapes_adjusted_levels())
        assert len(runs["file"][1]) == 2 * levels + 3  # a PR curve per detection class and level, 3 reports
        # the seg report against scores computed here from the same maps, with
        # the table's ids written out: 0 background, 1 rect and 2 ellipse, of
        # which rect and ellipse are instanceable and make up ``shape``
        confusion = np.zeros((3, 3), dtype=np.int64)
        stats = {1: [], 2: []}
        for image_id in ("000", "001", "002"):
            gt_map = read_pgm(os.path.join(data, "labels", image_id + ".pgm"))
            pred_map = read_pgm(os.path.join(pred, image_id + ".pgm"))
            confusion += seg_confusion(pred_map, gt_map, 3)
            instances = read_pgm(os.path.join(data, "instances", image_id + ".pgm"))
            for c, pairs in collect_instance_stats(pred_map, gt_map, instances, (1, 2)).items():
                stats[c].extend(pairs)
        expected = seg_metrics(confusion, stats, categories={"background": (0,), "shape": (1, 2)})
        report = json.loads(runs["file"][1]["seg.json"])
        assert report["per_class"] == {name: {"iou": expected.iou[c], "iiou": expected.iiou.get(c)}
                                       for c, name in enumerate(("background", "rect", "ellipse"))}
        assert report["per_class"]["background"]["iiou"] is None
        assert None not in (report["per_class"]["rect"]["iiou"], report["per_class"]["ellipse"]["iiou"])
        assert report["categories"] == {name: {"iou": expected.category_iou[name],
                                               "iiou": expected.category_iiou[name]}
                                        for name in ("background", "shape")}
        assert (report["mean_iou"], report["mean_iiou"]) == (expected.mean_iou, expected.mean_iiou)
        assert 0 < report["categories"]["shape"]["iou"] < 1

    def test_category_listing_a_class_twice_is_one_error_line(self, capsys, tmp_path):
        # counted twice, the class's row and column of the confusion matrix
        # would weigh twice in the category's IoU
        data, pred, _ = self.synth_run(capsys, tmp_path)
        table_path = write_json(tmp_path / "table.json",
                                table_with(categories={"shape": ["rect", "rect", "ellipse"]}))
        report_path = os.path.join(tmp_path, "seg.json")
        code, out, err = run(capsys, "eval-seg", "--pred", pred, "--gt", os.path.join(data, "labels"),
                             "--instances", os.path.join(data, "instances"), "--class-table", table_path,
                             "--output", report_path)
        assert code == 1 and out == "" and not os.path.exists(report_path)
        assert err == f"error: class table {table_path}: category 'shape' lists 'rect' twice\n"


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


# JSON nested far deeper than the decoder's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def with_deep_config(checkpoint):
    """Replace the config JSON of the checkpoint file with ``DEEP_JSON``."""
    with open(checkpoint, "rb") as fh:
        data = fh.read()
    (length,) = struct.unpack_from("<Q", data, 8)  # after the magic and the version
    with open(checkpoint, "wb") as fh:
        fh.write(data[:8] + struct.pack("<Q", len(DEEP_JSON)) + DEEP_JSON.encode() + data[16 + length:])


class TestDeeplyNestedJson:
    """JSON too deep for the decoder is malformed JSON, and the error names the file, and the line for JSONL."""

    @pytest.mark.parametrize("kind", ["config", "templates file", "class table", "annotation", "detections",
                                      "checkpoint"])
    def test_is_one_error_line_naming_the_file(self, capsys, tmp_path, kind):
        deep = os.path.join(tmp_path, "deep.json")
        with open(deep, "w") as fh:
            fh.write(DEEP_JSON)
        out = os.path.join(tmp_path, "out")
        annotations = os.path.join(tmp_path, "annotations")
        os.makedirs(annotations)
        write_json(os.path.join(annotations, "000.json"), annotation_with())
        detections = os.path.join(tmp_path, "det.jsonl")
        with open(detections, "w") as fh:
            fh.write(json.dumps({"image_id": "000", "class": 0, "score": 0.9, "x_min": 1, "y_min": 1,
                                 "x_max": 10, "y_max": 10}) + "\n")
        prefix = f"{kind} {deep}: malformed JSON: "
        if kind == "config":
            argv = ["synth", "--config", deep, "--output-dir", out]
        elif kind == "templates file":
            argv = ["anchors", "--image", "16x16", "--templates-file", deep, "--dump", out]
        elif kind == "class table":
            argv = ["assign", "--annotation", os.path.join(annotations, "000.json"), "--class-table", deep,
                    "--output", out]
        elif kind == "annotation":
            deep = os.path.join(annotations, "000.json")
            with open(deep, "w") as fh:
                fh.write(DEEP_JSON)
            argv = ["eval-det", "--detections", detections, "--annotations", annotations, "--output", out]
            prefix = f"annotation {deep}: malformed JSON: "
        elif kind == "detections":
            with open(detections, "a") as fh:
                fh.write(DEEP_JSON + "\n")
            argv = ["eval-det", "--detections", detections, "--annotations", annotations, "--output", out]
            prefix = f"detections {detections}: malformed detection on line 2: "
        else:
            checkpoint, image = write_checkpoint(tmp_path)
            with_deep_config(checkpoint)
            argv = ["detect", "--checkpoint", checkpoint, "--images", image, "--output", out]
            prefix = f"checkpoint {checkpoint}: malformed config JSON: "
        code, stdout, err = run(capsys, *argv)
        assert code == 1 and stdout == "" and not os.path.exists(out)
        assert err.startswith(f"error: {prefix}maximum recursion depth exceeded") and err.count("\n") == 1, err


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
