"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure). The desk-scale overfit run
is the slow one; everything else finishes in seconds.
"""

import json
import os
import subprocess
import sys
import time

import jsonschema
import numpy as np

from detseg.evaluation import average_precision, pixel_accuracy, seg_metrics
from detseg.geom import BBox, anchor_preset, iou, make_anchor_grid
from detseg.losses import LrSchedule, poly_lr
from detseg.net.model import DetSegModel, ModelConfig
from detseg.net.train import TrainSample, train_toy
from detseg.pipeline.classtable import synthetic_table
from detseg.pipeline.config import default_config_dict
from detseg.pipeline.synth import SceneSpec, make_dataset
from detseg.post import decode_detections, nms
from detseg.selftest import (
    check_assignment,
    check_codec,
    check_layer_gradients,
    check_loss_gradients,
    check_nms,
)


class _Criterion:
    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"ACCEPTANCE {self.name}: {'FAIL' if exc_type else 'PASS'}")
        return False


def test_gradient_suite_20_instances_under_two_minutes():
    with _Criterion("gradient-suite"):
        start = time.monotonic()
        results = check_layer_gradients(instances=20, seed=101)
        results += check_loss_gradients(instances=20, seed=102)
        elapsed = time.monotonic() - start
        for name, err, ok in results:
            assert ok, f"{name}: max relative error {err:.3e} exceeds 1e-4"
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


def test_assignment_oracle_1000_scenes_and_corner_fixtures():
    with _Criterion("assignment-oracle"):
        # every other scene copies anchors as objects, so that active anchors
        # (and with them class, instance id and delta) are checked at scale
        _, mismatches, with_active = check_assignment(1000, seed=7_000)
        assert mismatches == 0
        assert with_active >= 300

        # the five corner-case fixtures live in test_assign.py; re-run them
        # here so the acceptance suite is self-contained
        from .test_assign import TestCornerCases

        fixtures = TestCornerCases()
        fixtures.test_identity_match_becomes_active()
        fixtures.test_small_object_adopts_best_anchor()
        fixtures.test_ambiguous_anchor_is_inactive()
        fixtures.test_border_anchor_is_dont_care()
        fixtures.test_band_anchor_is_dont_care()


def test_nms_oracle_1000_instances():
    with _Criterion("nms-oracle"):
        _, mismatches = check_nms(1000, seed=8_000)
        assert mismatches == 0


def test_codec_round_trip_10000_pairs():
    with _Criterion("codec-round-trip"):
        assert check_codec(10_000, seed=9_000) <= 1e-9


def test_anchor_preset():
    with _Criterion("anchor-preset"):
        templates = anchor_preset("paper-table1")
        assert len(templates) == 145
        assert len({t.ratio for t in templates}) == 5
        assert len({t.area for t in templates}) == 29
        grid = make_anchor_grid(64, 64, 8, templates)
        assert len(grid) == 9280


def test_lr_schedule():
    with _Criterion("lr-schedule"):
        sched = LrSchedule(base_lr=0.001, max_iter=300_000, power=0.9)
        assert poly_lr(0, sched) == 0.001
        assert poly_lr(300_000, sched) == 0.0
        assert abs(poly_lr(150_000, sched) - 0.001 * 0.5**0.9) <= 1e-12


def test_metric_fixtures():
    with _Criterion("metric-fixtures"):
        # perfect prediction: every metric exactly 1
        confusion = np.diag([40, 25, 10])
        stats = {1: [(10, 10), (15, 15)], 2: [(10, 10)]}
        metrics = seg_metrics(confusion, stats)
        assert metrics.mean_iou == 1.0
        assert metrics.mean_iiou == 1.0
        curve = average_precision(["tp", "tp"], [0.9, 0.8], 2)
        assert curve.ap == 1.0

        # instance-weighted fixture: 100 px and 50 px instances, first fully
        # covered, second missed, no false positives -> exactly 0.5
        weighted = seg_metrics(np.array([[900, 0], [50, 100]]), {1: [(100, 100), (50, 0)]})
        assert abs(weighted.iiou[1] - 0.5) <= 1e-12

        # FP at higher score than the single TP -> 11-point AP exactly 0.5
        curve = average_precision(["fp", "tp"], [0.9, 0.8], 1)
        assert curve.ap == 0.5


OVERFIT_SEED = 7
OVERFIT_ITERATIONS = 2000
OVERFIT_FREEZE = 600


def _overfit_setup():
    table = synthetic_table()
    scenes = make_dataset(OVERFIT_SEED, 5, SceneSpec(width=64, height=64), table)
    samples = [TrainSample(image=s.image.data, label_map=s.label_map.data, gts=s.gts)
               for s in scenes]
    grid = make_anchor_grid(64, 64, 8, anchor_preset("toy"))
    model = DetSegModel(ModelConfig(), seed=OVERFIT_SEED)
    return samples, grid, model


def _detection_quality(model, grid, samples, score_threshold=0.5, nms_iou=0.5):
    """Per image: (pixel accuracy, every gt recovered at IoU >= 0.5, FP count)."""
    rows = []
    for sample in samples:
        out = model.forward(sample.image[None], training=False)
        predictions = {k: v.data[0] for k, v in out.items()}
        accuracy = pixel_accuracy(predictions["seg_logits"].argmax(axis=0), sample.label_map)
        detections = nms(decode_detections(predictions, grid, score_threshold), nms_iou)
        matched = set()
        false_positives = 0
        for box, class_id in zip(detections.boxes.tolist(), detections.class_ids.tolist()):
            candidates = [(iou(BBox(*box), g.bbox), j) for j, g in enumerate(sample.gts)]
            best, best_j = max(candidates, default=(0.0, -1))
            if (best >= 0.5 and best_j not in matched
                    and class_id == sample.gts[best_j].class_id):
                matched.add(best_j)
            else:
                false_positives += 1
        rows.append((accuracy, len(matched) == len(sample.gts), false_positives))
    return rows


def _overfit_criteria_met(rows):
    return (min(acc for acc, _, _ in rows) >= 0.95
            and all(recovered for _, recovered, _ in rows)
            and max(fp for _, _, fp in rows) <= 1)


def test_desk_scale_overfit():
    with _Criterion("desk-scale-overfit"):
        assert OVERFIT_ITERATIONS <= 3000
        samples, grid, model = _overfit_setup()
        start = time.monotonic()

        def stop(iteration, current):
            return iteration >= 1200 and _overfit_criteria_met(
                _detection_quality(current, grid, samples))

        result = train_toy(
            samples, model, grid,
            schedule=LrSchedule(base_lr=0.001, max_iter=OVERFIT_ITERATIONS),
            iterations=OVERFIT_ITERATIONS,
            freeze_stats_after=OVERFIT_FREEZE,
            stop_check=stop,
            stop_check_every=100,
        )
        elapsed = time.monotonic() - start
        rows = _detection_quality(model, grid, samples)
        print(f"overfit: {result.iterations_run} iterations in {elapsed:.0f}s; "
              f"per-image (accuracy, recovered, false positives): {rows}")
        assert result.iterations_run <= 3000
        for accuracy, recovered, false_positives in rows:
            assert accuracy >= 0.95, f"pixel accuracy {accuracy:.4f} below 95%"
            assert recovered, "a ground-truth box was not recovered at IoU >= 0.5"
            assert false_positives <= 1, f"{false_positives} false positives in one image"
        assert elapsed <= 900.0, f"overfit run took {elapsed:.0f}s (limit 900s)"


def test_overfit_training_is_deterministic():
    with _Criterion("overfit-determinism"):
        def short_run():
            samples, grid, model = _overfit_setup()
            train_toy(samples, model, grid,
                      schedule=LrSchedule(base_lr=0.001, max_iter=OVERFIT_ITERATIONS),
                      iterations=60, freeze_stats_after=30)
            return np.concatenate([p.data.reshape(-1) for p in model.parameters()])

        assert np.array_equal(short_run(), short_run())


SEG_REPORT_SCHEMA = {
    "type": "object",
    "required": ["per_class", "mean_iou"],
    "properties": {
        "per_class": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["iou", "iiou"],
                "properties": {
                    "iou": {"type": ["number", "null"]},
                    "iiou": {"type": ["number", "null"]},
                },
            },
        },
        "mean_iou": {"type": ["number", "null"]},
        "mean_iiou": {"type": ["number", "null"]},
        "categories": {"type": "object"},
        "images": {"type": "integer"},
    },
}

DET_REPORT_SCHEMA = {
    "type": "object",
    "required": ["mode", "ap"],
    "properties": {
        "mode": {"enum": ["kitti", "cityscapes-adjusted"]},
        "ap": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["easy", "moderate", "hard"],
                "additionalProperties": {"type": ["number", "null"]},
            },
        },
    },
}


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "detseg.pipeline.cli", *argv],
        capture_output=True, text=True,
    )


def test_cli_round_trip(tmp_path):
    with _Criterion("cli-round-trip"):
        config = default_config_dict()
        config["training"] = {"iterations": 40, "freeze_stats_after": 20}
        config_path = os.path.join(tmp_path, "config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)

        data_dir = os.path.join(tmp_path, "data")
        out_dir = os.path.join(tmp_path, "run")
        steps = [
            ("synth", ["synth", "--config", config_path, "--output-dir", data_dir]),
            ("train-toy", ["train-toy", "--config", config_path, "--dataset", data_dir,
                           "--output-dir", out_dir]),
            ("detect", ["detect", "--checkpoint", os.path.join(out_dir, "checkpoint.nnad"),
                        "--images", os.path.join(data_dir, "images"),
                        "--output", os.path.join(out_dir, "detections.jsonl"),
                        "--seg-output", os.path.join(out_dir, "seg")]),
            ("eval-det", ["eval-det", "--detections", os.path.join(out_dir, "detections.jsonl"),
                          "--annotations", os.path.join(data_dir, "annotations"),
                          "--mode", "cityscapes-adjusted",
                          "--output", os.path.join(out_dir, "det_report.json")]),
            ("eval-seg", ["eval-seg", "--pred", os.path.join(out_dir, "seg"),
                          "--gt", os.path.join(data_dir, "labels"),
                          "--instances", os.path.join(data_dir, "instances"),
                          "--output", os.path.join(out_dir, "seg_report.json")]),
        ]
        for name, argv in steps:
            proc = _cli(*argv)
            assert proc.returncode == 0, f"{name} failed: {proc.stderr or proc.stdout}"

        seg_report = json.load(open(os.path.join(out_dir, "seg_report.json")))
        jsonschema.validate(seg_report, SEG_REPORT_SCHEMA)
        assert set(seg_report["per_class"]) == {"background", "rect", "ellipse"}

        det_report = json.load(open(os.path.join(out_dir, "det_report.json")))
        jsonschema.validate(det_report, DET_REPORT_SCHEMA)
        assert set(det_report["ap"]) <= {"rect", "ellipse"}

        history = open(os.path.join(out_dir, "loss_history.csv")).read().splitlines()
        assert history[0].startswith("iteration,")
        assert len(history) == 41
