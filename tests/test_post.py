import numpy as np
import pytest

from detseg.assign import AssignConfig, GroundTruthObject, assign_targets
from detseg.geom import AnchorTemplate, BBox, anchor_preset, encode, iou, make_anchor_grid
from detseg.net.model import unflatten_per_anchor
from detseg.post import Detection, decode_detections, detections_from_jsonl, detections_to_jsonl, nms

from .oracles import nms_oracle


def build_outputs(grid, objectness_rows, class_rows, delta_rows, embedding_rows):
    t = len(grid.templates)
    return {
        "objectness": unflatten_per_anchor(objectness_rows, t, grid.rows, grid.cols),
        "class_scores": unflatten_per_anchor(class_rows, t, grid.rows, grid.cols),
        "box_deltas": unflatten_per_anchor(delta_rows, t, grid.rows, grid.cols),
        "embeddings": unflatten_per_anchor(embedding_rows, t, grid.rows, grid.cols),
    }


def neutral_outputs(grid, num_classes=2, embedding_dim=3):
    n = len(grid)
    return (
        np.zeros((n, 2)),
        np.zeros((n, num_classes)),
        np.zeros((n, 4)),
        np.zeros((n, embedding_dim)),
    )


class TestDecodeDetections:
    def test_all_below_threshold(self):
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        outputs = build_outputs(grid, *neutral_outputs(grid))
        assert decode_detections(outputs, grid, score_threshold=0.6) == []

    def test_recovers_encoded_ground_truth(self):
        grid = make_anchor_grid(32, 32, 8, [AnchorTemplate(1.0, 64), AnchorTemplate(2.0, 128)])
        target = BBox(7.0, 9.5, 21.0, 19.0)
        anchor_index = grid.anchor_index(1, 1, 1)
        obj, cls, deltas, emb = neutral_outputs(grid)
        obj[anchor_index] = (-5.0, 5.0)
        cls[anchor_index] = (0.0, 3.0)
        deltas[anchor_index] = encode(grid.box(anchor_index), target).as_array()
        emb[anchor_index] = (1.0, 2.0, 3.0)
        detections = decode_detections(build_outputs(grid, obj, cls, deltas, emb), grid, 0.9)
        assert len(detections) == 1
        det = detections[0]
        assert det.bbox.as_array() == pytest.approx(target.as_array(), abs=1e-6)
        assert det.class_id == 1
        assert det.objectness > 0.99
        assert det.embedding == pytest.approx([1.0, 2.0, 3.0])

    def test_ordering_by_objectness_then_index(self):
        grid = make_anchor_grid(32, 32, 8, [AnchorTemplate(1.0, 64)])
        obj, cls, deltas, emb = neutral_outputs(grid)
        obj[3] = (0.0, 2.0)
        obj[7] = (0.0, 4.0)
        obj[5] = (0.0, 4.0)
        detections = decode_detections(build_outputs(grid, obj, cls, deltas, emb), grid, 0.5)
        scores = [d.objectness for d in detections]
        assert scores == sorted(scores, reverse=True)
        assert len(detections) == len(grid)  # neutral anchors sit exactly at 0.5
        top_two = {tuple(np.round(d.bbox.as_array(), 6)) for d in detections[:2]}
        expected = {tuple(grid.boxes[5]), tuple(grid.boxes[7])}
        assert top_two == expected

    def test_shape_mismatch_rejected(self):
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        outputs = build_outputs(grid, *neutral_outputs(grid))
        outputs["box_deltas"] = outputs["box_deltas"][:, :1, :]
        with pytest.raises(ValueError):
            decode_detections(outputs, grid, 0.5)
        with pytest.raises(KeyError):
            decode_detections({"objectness": np.zeros((2, 2, 2))}, grid, 0.5)

    def test_reencoding_reproduces_head_deltas(self):
        rng = np.random.default_rng(0)
        grid = make_anchor_grid(32, 32, 8, anchor_preset("toy"))
        obj, cls, deltas, emb = neutral_outputs(grid)
        obj[:, 1] = 1.0
        deltas[...] = rng.uniform(-0.4, 0.4, deltas.shape)
        detections = decode_detections(build_outputs(grid, obj, cls, deltas, emb), grid, 0.5)
        assert len(detections) == len(grid)
        # detections are sorted by (score, index); scores are identical so
        # detection i corresponds to anchor i
        for i in (0, 5, len(grid) - 1):
            again = encode(grid.box(i), detections[i].bbox).as_array()
            assert again == pytest.approx(deltas[i], abs=1e-9)


def random_detections(rng, count=50, classes=3):
    dets = []
    for _ in range(count):
        x0 = float(rng.uniform(0, 80))
        y0 = float(rng.uniform(0, 80))
        dets.append(
            Detection(
                bbox=BBox(x0, y0, x0 + float(rng.uniform(4, 30)), y0 + float(rng.uniform(4, 30))),
                class_id=int(rng.integers(0, classes)),
                objectness=float(rng.random()),
            )
        )
    return dets


class TestNms:
    def test_singleton(self):
        det = Detection(bbox=BBox(0, 0, 4, 4), class_id=0, objectness=0.7)
        assert nms([det], 0.5) == [det]

    def test_duplicate_suppressed(self):
        hi = Detection(bbox=BBox(0, 0, 4, 4), class_id=0, objectness=0.9)
        lo = Detection(bbox=BBox(0, 0, 4, 4), class_id=0, objectness=0.8)
        assert nms([lo, hi], 0.5) == [hi]

    def test_classes_do_not_suppress_each_other(self):
        a = Detection(bbox=BBox(0, 0, 4, 4), class_id=0, objectness=0.9)
        b = Detection(bbox=BBox(0, 0, 4, 4), class_id=1, objectness=0.8)
        assert nms([a, b], 0.5) == [a, b]

    def test_boundary_iou_not_suppressed(self):
        # IoU exactly at the threshold survives (suppression is strict)
        a = Detection(bbox=BBox(0, 0, 2, 2), class_id=0, objectness=0.9)
        b = Detection(bbox=BBox(0, 1, 2, 3), class_id=0, objectness=0.8)
        assert iou(a.bbox, b.bbox) == pytest.approx(1 / 3)
        assert nms([a, b], 1 / 3) == [a, b]

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            dets = random_detections(rng)
            expected = [
                dets[i]
                for i in nms_oracle([d.bbox for d in dets], [d.objectness for d in dets],
                                    [d.class_id for d in dets], 0.5)
            ]
            assert nms(dets, 0.5) == expected

    def test_output_subset_and_separated(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dets = random_detections(rng, count=30)
            kept = nms(dets, 0.5)
            assert all(k in dets for k in kept)
            for i, a in enumerate(kept):
                for b in kept[i + 1:]:
                    if a.class_id == b.class_id:
                        assert iou(a.bbox, b.bbox) <= 0.5
            # the top-scoring detection of every class survives
            for c in {d.class_id for d in dets}:
                best = max((d for d in dets if d.class_id == c), key=lambda d: d.objectness)
                assert best in kept

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            once = nms(random_detections(rng), 0.5)
            assert nms(once, 0.5) == once

    def test_empty(self):
        assert nms([], 0.5) == []


class TestJsonl:
    def test_round_trip(self):
        dets = [
            Detection(bbox=BBox(1, 2, 3, 4), class_id=1, objectness=0.75,
                      embedding=np.array([0.5, -1.0])),
            Detection(bbox=BBox(0, 0, 10, 10), class_id=0, objectness=0.5,
                      embedding=np.array([1.0, 2.0])),
        ]
        text = detections_to_jsonl([("a", dets[0]), ("b", dets[1])])
        parsed = detections_from_jsonl(text)
        assert set(parsed) == {"a", "b"}
        back = parsed["a"][0]
        assert back.bbox == dets[0].bbox
        assert back.class_id == 1
        assert back.objectness == 0.75
        assert back.embedding == pytest.approx([0.5, -1.0])

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            detections_from_jsonl('{"image_id": "x"}\n')

    def test_empty_text(self):
        assert detections_from_jsonl("") == {}
        assert detections_to_jsonl([]) == ""


class TestEndToEndWithAssignment:
    def test_assignment_then_decode_recovers_objects(self):
        grid = make_anchor_grid(40, 40, 8, anchor_preset("toy"))
        objects = [
            GroundTruthObject(class_id=0, bbox=BBox(6, 6, 22, 18), instance_id=0),
            GroundTruthObject(class_id=1, bbox=BBox(20, 20, 36, 36), instance_id=1),
        ]
        targets = assign_targets(grid, objects, 40, 40, AssignConfig())
        obj = np.zeros((len(grid), 2))
        cls = np.zeros((len(grid), 2))
        emb = np.zeros((len(grid), 3))
        obj[:, 0] = 4.0
        active = np.flatnonzero(targets.active)
        obj[active] = (0.0, 6.0)
        cls[active, targets.class_targets[active]] = 5.0
        outputs = build_outputs(grid, obj, cls, targets.deltas, emb)
        detections = nms(decode_detections(outputs, grid, 0.5), 0.5)
        assert len(detections) == 2
        for det, source in zip(sorted(detections, key=lambda d: d.bbox.x_min), objects):
            assert det.class_id == source.class_id
            assert det.bbox.as_array() == pytest.approx(source.bbox.as_array(), abs=1e-6)
