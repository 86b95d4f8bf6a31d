import json

import numpy as np
import pytest

from detseg.assign import GroundTruthObject, assign_targets
from detseg.geom import AnchorTemplate, BBox, anchor_preset, encode, iou, iou_matrix, make_anchor_grid
from detseg.net.model import unflatten_per_anchor
from detseg.oracles import dense_nms_instance, detection_rows, nms_oracle, sparse_nms_instance
from detseg.post import (
    NMS_BLOCK,
    Detections,
    decode_detections,
    detections_from_jsonl,
    detections_to_jsonl,
    nms,
)


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
        assert len(decode_detections(outputs, grid, score_threshold=0.6)) == 0

    def test_recovers_encoded_ground_truth(self):
        grid = make_anchor_grid(32, 32, 8, [AnchorTemplate(1.0, 64), AnchorTemplate(2.0, 128)])
        target = BBox(7.0, 9.5, 21.0, 19.0)
        anchor_index = grid.anchor_index(1, 1, 1)
        obj, cls, deltas, emb = neutral_outputs(grid)
        obj[anchor_index] = (-5.0, 5.0)
        cls[anchor_index] = (0.0, 3.0)
        deltas[anchor_index] = encode(grid.box(anchor_index), target)
        emb[anchor_index] = (1.0, 2.0, 3.0)
        detections = decode_detections(build_outputs(grid, obj, cls, deltas, emb), grid, 0.9)
        assert len(detections) == 1
        assert detections.boxes[0] == pytest.approx(target.as_array(), abs=1e-6)
        assert detections.class_ids.tolist() == [1]
        assert detections.scores[0] > 0.99
        assert detections.embeddings[0] == pytest.approx([1.0, 2.0, 3.0])

    def test_ordering_by_objectness_then_index(self):
        grid = make_anchor_grid(32, 32, 8, [AnchorTemplate(1.0, 64)])
        obj, cls, deltas, emb = neutral_outputs(grid)
        obj[3] = (0.0, 2.0)
        obj[7] = (0.0, 4.0)
        obj[5] = (0.0, 4.0)
        detections = decode_detections(build_outputs(grid, obj, cls, deltas, emb), grid, 0.5)
        scores = detections.scores.tolist()
        assert scores == sorted(scores, reverse=True)
        assert len(detections) == len(grid)  # neutral anchors sit exactly at 0.5
        # the tied pair comes in anchor order, then the rest by anchor index
        order = [5, 7, 3] + [i for i in range(len(grid)) if i not in (3, 5, 7)]
        assert np.round(detections.boxes, 6).tolist() == grid.boxes[order].tolist()

    def test_shape_mismatch_rejected(self):
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        outputs = build_outputs(grid, *neutral_outputs(grid))
        outputs["box_deltas"] = outputs["box_deltas"][:, :1, :]
        with pytest.raises(ValueError):
            decode_detections(outputs, grid, 0.5)
        with pytest.raises(KeyError):
            decode_detections({"objectness": np.zeros((2, 2, 2))}, grid, 0.5)

    def test_non_finite_head_rejected(self):
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        for head, row in (("objectness", 0), ("class_scores", 1), ("box_deltas", 2), ("embeddings", 3)):
            rows = list(neutral_outputs(grid))
            rows[row] = rows[row].copy()
            rows[row][1, 0] = np.nan if head != "box_deltas" else np.inf
            with pytest.raises(ValueError, match=f"{head} has non-finite values"):
                decode_detections(build_outputs(grid, *rows), grid, 0.9)

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
            again = encode(grid.box(i), BBox(*detections.boxes[i]))
            assert again == pytest.approx(deltas[i], abs=1e-9)


def record(boxes, class_ids, scores, embeddings=None):
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if embeddings is None:
        embeddings = np.zeros((len(boxes), 0))
    return Detections(boxes, np.asarray(class_ids, dtype=np.int64), np.asarray(scores, dtype=np.float64),
                      np.asarray(embeddings, dtype=np.float64))


def check_same_rows(actual, expected):
    assert detection_rows(actual) == detection_rows(expected)


class TestDetections:
    def test_inconsistent_rows_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            record([(0, 0, 1, 1)], [0, 1], [0.5])
        with pytest.raises(ValueError, match="probabilities"):
            record([(0, 0, 1, 1)], [0], [1.5])
        with pytest.raises(ValueError, match="out of order"):
            record([(2, 0, 1, 1)], [0], [0.5])
        with pytest.raises(ValueError, match="finite"):
            record([(0, 0, np.inf, 1)], [0], [0.5])

    def test_take_and_len(self):
        dets = record([(0, 0, 1, 1), (1, 1, 2, 2), (2, 2, 3, 3)], [0, 1, 0], [0.9, 0.8, 0.7],
                      [[1.0], [2.0], [3.0]])
        assert len(dets) == 3
        picked = dets.take(np.array([2, 0]))
        assert picked.class_ids.tolist() == [0, 0]
        assert picked.embeddings.tolist() == [[3.0], [1.0]]
        assert len(Detections.empty(4)) == 0 and Detections.empty(4).embeddings.shape == (0, 4)


class TestNms:
    def test_singleton(self):
        dets = record([(0, 0, 4, 4)], [0], [0.7])
        check_same_rows(nms(dets, 0.5), dets)

    def test_duplicate_suppressed(self):
        dets = record([(0, 0, 4, 4), (0, 0, 4, 4)], [0, 0], [0.8, 0.9])
        check_same_rows(nms(dets, 0.5), dets.take(np.array([1])))

    def test_classes_do_not_suppress_each_other(self):
        dets = record([(0, 0, 4, 4), (0, 0, 4, 4)], [0, 1], [0.9, 0.8])
        check_same_rows(nms(dets, 0.5), dets)

    def test_boundary_iou_not_suppressed(self):
        # IoU exactly at the threshold survives (suppression is strict)
        dets = record([(0, 0, 2, 2), (0, 1, 2, 3)], [0, 0], [0.9, 0.8])
        assert iou(BBox(0, 0, 2, 2), BBox(0, 1, 2, 3)) == pytest.approx(1 / 3)
        check_same_rows(nms(dets, 1 / 3), dets)

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            dets = sparse_nms_instance(rng)
            check_same_rows(nms(dets, 0.5), nms_oracle(dets, 0.5))

    def test_matches_reference_on_dense_instances(self):
        # more boxes per class than one NMS block holds, ties everywhere and
        # many pairs at IoU exactly 0.5
        rng = np.random.default_rng(4)
        for count in (1000, 1200, 1500):
            dets = dense_nms_instance(rng, count)
            assert np.bincount(dets.class_ids).min() > NMS_BLOCK
            assert len(np.unique(dets.scores)) <= 16
            overlaps = iou_matrix(dets.boxes, dets.boxes)
            assert np.count_nonzero(overlaps == 0.5) > 100
            for threshold in (0.5, 0.3):
                kept = nms(dets, threshold)
                assert 0 < len(kept) < len(dets)
                check_same_rows(kept, nms_oracle(dets, threshold))

    def test_output_subset_and_separated(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dets = sparse_nms_instance(rng, count=30)
            kept = nms(dets, 0.5)
            rows = detection_rows(dets)
            kept_rows = detection_rows(kept)
            assert all(k in rows for k in kept_rows)
            for i, (ca, _, a) in enumerate(kept_rows):
                for cb, _, b in kept_rows[i + 1:]:
                    if ca == cb:
                        assert iou(BBox(*a), BBox(*b)) <= 0.5
            # the top-scoring detection of every class survives
            for c in set(dets.class_ids.tolist()):
                best = max((r for r in rows if r[0] == c), key=lambda r: r[1])
                assert best in kept_rows

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            once = nms(sparse_nms_instance(rng), 0.5)
            check_same_rows(nms(once, 0.5), once)

    def test_empty(self):
        assert len(nms(Detections.empty(), 0.5)) == 0


class TestJsonl:
    def test_round_trip(self):
        a = record([(1, 2, 3, 4)], [1], [0.75], [[0.5, -1.0]])
        b = record([(0, 0, 10, 10)], [0], [0.5], [[1.0, 2.0]])
        text = detections_to_jsonl([("a", a), ("b", b)])
        parsed = detections_from_jsonl(text)
        assert set(parsed) == {"a", "b"}
        back = parsed["a"]
        assert back.boxes.tolist() == [[1.0, 2.0, 3.0, 4.0]]
        assert back.class_ids.tolist() == [1]
        assert back.scores.tolist() == [0.75]
        assert back.embeddings.tolist() == [[0.5, -1.0]]

    def test_lines_equal_json_dumps(self):
        rng = np.random.default_rng(5)
        dets = sparse_nms_instance(rng, count=20)
        dets = record(dets.boxes, dets.class_ids, dets.scores, rng.normal(size=(20, 3)))
        lines = detections_to_jsonl([('im "1"', dets)]).splitlines()
        assert lines == [
            json.dumps({"image_id": 'im "1"', "class": c, "score": s, "x_min": x0, "y_min": y0,
                        "x_max": x1, "y_max": y1, "embedding": e})
            for c, s, (x0, y0, x1, y1), e in zip(dets.class_ids.tolist(), dets.scores.tolist(),
                                                 dets.boxes.tolist(), dets.embeddings.tolist())
        ]

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            detections_from_jsonl('{"image_id": "x"}\n')

    @pytest.mark.parametrize("field, value, message", [
        ("class", -1, "non-negative integer"),
        ("class", True, "non-negative integer"),
        ("class", 1.5, "non-negative integer"),
        ("class", 2 ** 63, "non-negative integer"),
        ("class", 10 ** 23, "non-negative integer"),
        ("x_max", float("inf"), "finite"),
        ("y_min", float("nan"), "finite"),
        ("score", 1.5, r"\[0, 1\]"),
        ("x_min", 20.0, "out of order"),
        ("embedding", [1.0], "embedding length"),
        ("image_id", 0, "image_id must be a string"),
        ("score", True, r"score must be a number in \[0, 1\]"),
        ("score", "0.5", r"score must be a number in \[0, 1\]"),
        ("x_min", "1", "box coordinates must be finite numbers"),
        ("y_max", False, "box coordinates must be finite numbers"),
        ("x_max", 10 ** 400, "int too large"),
        ("embedding", ["0.5", 0.0], "embedding must be a list of numbers"),
        ("embedding", [True, 0.0], "embedding must be a list of numbers"),
        ("embedding", "ab", "embedding must be a list of numbers"),
    ])
    def test_bad_row_rejected_with_line_number(self, field, value, message):
        good = {"image_id": "x", "class": 0, "score": 0.5, "x_min": 0.0, "y_min": 0.0,
                "x_max": 10.0, "y_max": 10.0, "embedding": [0.0, 0.0]}
        bad = dict(good, **{field: value})
        text = "\n".join(json.dumps(r) for r in (good, good, bad)) + "\n"
        with pytest.raises(ValueError, match="line 3") as info:
            detections_from_jsonl(text)
        assert info.match(message)

    def test_empty_text(self):
        assert detections_from_jsonl("") == {}
        assert detections_to_jsonl([]) == ""
        assert detections_to_jsonl([("a", Detections.empty(3))]) == ""


class TestEndToEndWithAssignment:
    def test_assignment_then_decode_recovers_objects(self):
        grid = make_anchor_grid(40, 40, 8, anchor_preset("toy"))
        objects = [
            GroundTruthObject(class_id=0, bbox=BBox(6, 6, 22, 18), instance_id=0),
            GroundTruthObject(class_id=1, bbox=BBox(20, 20, 36, 36), instance_id=1),
        ]
        targets = assign_targets(grid, objects, 40, 40)
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
        for row, source in zip(np.argsort(detections.boxes[:, 0]), objects):
            assert detections.class_ids[row] == source.class_id
            assert detections.boxes[row] == pytest.approx(source.bbox.as_array(), abs=1e-6)
