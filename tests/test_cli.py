import json
import os
import subprocess
import sys

import numpy as np
import pytest

import detseg
from detseg.assign import AssignConfig, AssignRule, GroundTruthObject, assign_targets_detailed
from detseg.geom import BBox, anchor_preset, make_anchor_grid, templates_to_json
from detseg.net.checkpoint import save_checkpoint
from detseg.net.model import DetSegModel, ModelConfig
from detseg.oracles import assign_oracle_rows
from detseg.pipeline.cli import main
from detseg.pipeline.config import default_config_dict
from detseg.pipeline.netpbm import write_pgm, write_ppm


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        _, rules = assign_targets_detailed(grid, gts, 32, 24, AssignConfig())
        assert set(rules.tolist()) == set(AssignRule)
        lines = []
        rows = assign_oracle_rows(grid, gts, 32, 24, AssignConfig())
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


def write_checkpoint(tmp_path, templates=None, stride=8, edit=None, edit_config=None, image_hw=(16, 16)):
    """A freshly initialised toy-preset checkpoint plus one image (16x16 by default).

    ``edit`` may change the state tensors, and ``edit_config`` the config
    dict, in place before they are saved.
    """
    config = ModelConfig(anchors_per_cell=15)
    tensors = dict(DetSegModel(config, seed=0).state_tensors())
    if edit is not None:
        edit(tensors)
    ckpt_config = {
        "model": config.to_dict(),
        "templates": templates_to_json(templates or anchor_preset("toy")),
        "stride": stride,
        "thresholds": {"score": 0.5, "nms_iou": 0.5},
    }
    if edit_config is not None:
        edit_config(ckpt_config)
    path = os.path.join(tmp_path, "model.nnad")
    save_checkpoint(path, ckpt_config, tensors)
    image = os.path.join(tmp_path, "img.ppm")
    write_ppm(image, np.random.default_rng(0).random((3, *image_hw)))
    return path, image


MALFORMED_CONFIGS = {
    "no_num_classes": (lambda c: c["model"].pop("num_classes"), "config 'model' has no 'num_classes'"),
    "no_model": (lambda c: c.pop("model"), "config has no 'model'"),
    "no_templates": (lambda c: c.pop("templates"), "config has no 'templates'"),
    "no_stride": (lambda c: c.pop("stride"), "config has no 'stride'"),
    "unknown_conv_kind": (lambda c: c["model"].update(conv_kind="fancy"),
                          "config 'model': unknown conv_kind 'fancy'"),
    "templates_not_json": (lambda c: c.update(templates="zz"),
                           "config 'templates': Expecting value: line 1 column 1 (char 0)"),
    "thresholds_not_object": (lambda c: c.update(thresholds=[]),
                              "config 'thresholds': expected an object, got []"),
    "threshold_null": (lambda c: c["thresholds"].update(nms_iou=None),
                       "config 'thresholds': 'nms_iou': expected a number in [0, 1], got None"),
    "threshold_string": (lambda c: c["thresholds"].update(score="x"),
                         "config 'thresholds': 'score': expected a number in [0, 1], got 'x'"),
    "threshold_above_one": (lambda c: c["thresholds"].update(score=7.0),
                            "config 'thresholds': 'score': expected a number in [0, 1], got 7.0"),
    "threshold_unknown_key": (lambda c: c["thresholds"].update(nms=0.3),
                              "config 'thresholds': unknown key 'nms'"),
}


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

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_rejected_naming_checkpoint_and_key(self, capsys, tmp_path, case):
        edit_config, message = MALFORMED_CONFIGS[case]
        checkpoint, image = write_checkpoint(tmp_path, edit_config=edit_config)
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == f"error: checkpoint {checkpoint}: {message}\n"

    def test_indivisible_image_size_names_the_image(self, capsys, tmp_path):
        checkpoint, image = write_checkpoint(tmp_path, image_hw=(16, 20))
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert err == f"error: image {image}: input spatial dims must be divisible by 8, got 16x20\n"

    def test_template_count_mismatch_rejected_at_load(self, capsys, tmp_path):
        checkpoint, image = write_checkpoint(tmp_path, templates=anchor_preset("toy")[:14])
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert checkpoint in err and "14 anchor templates" in err and "15 anchors per cell" in err

    def test_stride_mismatch_rejected_at_load(self, capsys, tmp_path):
        checkpoint, image = write_checkpoint(tmp_path, stride=4)
        code, err = self.detect(capsys, tmp_path, checkpoint, image)
        assert code == 1
        assert checkpoint in err and "stride 4" in err and "downsamples by 8" in err

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
            assert code == 1 and "cannot read checkpoint" in err, good
        assert not os.path.exists(out_path)

    def test_score_threshold_bounded(self, capsys, tmp_path):
        self.check_flag(capsys, tmp_path, "--score-threshold")

    def test_nms_iou_bounded(self, capsys, tmp_path):
        self.check_flag(capsys, tmp_path, "--nms-iou")


class TestSynthCommand:
    def test_writes_complete_dataset(self, capsys, tmp_path):
        config = write_config(tmp_path)
        out_dir = os.path.join(tmp_path, "data")
        code, out, _ = run(capsys, "synth", "--config", config, "--output-dir", out_dir, "--count", "2")
        assert code == 0
        for sub, suffix in (("images", ".ppm"), ("labels", ".pgm"),
                            ("instances", ".pgm"), ("annotations", ".json")):
            files = os.listdir(os.path.join(out_dir, sub))
            assert sorted(files) == [f"00{i}{suffix}" for i in range(2)]
        manifest = json.load(open(os.path.join(out_dir, "manifest.json")))
        assert manifest["count"] == 2
        assert os.path.exists(os.path.join(out_dir, "class_table.json"))


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

    def test_missing_prediction_fails_without_partial_output(self, capsys, tmp_path):
        gt_dir = os.path.join(tmp_path, "gt")
        pred_dir = os.path.join(tmp_path, "pred")
        os.makedirs(gt_dir)
        os.makedirs(pred_dir)
        write_pgm(os.path.join(gt_dir, "a.pgm"), np.zeros((4, 4), dtype=np.uint8))
        report_path = os.path.join(tmp_path, "report.json")
        code, _, err = run(capsys, "eval-seg", "--pred", pred_dir, "--gt", gt_dir,
                           "--output", report_path)
        assert code == 1
        assert err.startswith("error:")
        assert not os.path.exists(report_path)


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "all suites passed" in out


class TestErrorShape:
    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_malformed_config(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "bad.json")
        with open(path, "w") as fh:
            fh.write("{}")
        code, _, err = run(capsys, "synth", "--config", path, "--output-dir",
                           os.path.join(tmp_path, "out"))
        assert code == 1
        assert err.startswith("error:")
