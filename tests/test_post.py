import json
import math

import numpy as np
import pytest

from detseg import post
from detseg.assign import GroundTruthObject, assign_targets
from detseg.geom import AnchorTemplate, BBox, anchor_preset, encode, iou, iou_matrix, make_anchor_grid
from detseg.net.model import unflatten_per_anchor
from detseg.oracles import dense_nms_instance, detection_rows, nms_oracle, sparse_nms_instance
from detseg.post import (
    NMS_BLOCK,
    Detections,
    _parse_row,
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


# one bad field of a detection row, and a word of the message it gives
BAD_FIELDS = [
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
]


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

    @staticmethod
    def dumps_per_row(items):
        """The JSON lines as one ``json.dumps`` of a dict per row."""
        return [
            json.dumps({"image_id": image_id, "class": c, "score": s, "x_min": x0, "y_min": y0,
                        "x_max": x1, "y_max": y1, "embedding": e})
            for image_id, dets in items
            for c, s, (x0, y0, x1, y1), e in zip(dets.class_ids.tolist(), dets.scores.tolist(),
                                                 dets.boxes.tolist(), dets.embeddings.tolist())
        ]

    def test_lines_equal_json_dumps(self):
        rng = np.random.default_rng(5)
        dets = sparse_nms_instance(rng, count=20)
        dets = record(dets.boxes, dets.class_ids, dets.scores, rng.normal(size=(20, 3)))
        items = [('im "1"', dets)]
        assert detections_to_jsonl(items).splitlines() == self.dumps_per_row(items)

    def test_adversarial_rows_equal_json_dumps(self):
        tiny, big = 5e-324, 1e16
        dets = record(
            [(-0.0, -0.0, 0.0, tiny), (tiny, -big, big, big), (-1e-300, 0.1, 1e300, 0.30000000000000004)],
            [2**63 - 1, 0, 7],
            [-0.0, tiny, 1.0],
            [[-0.0, tiny, -big], [1e-7, 123456789.0, -1.5e-310], [0.1, 1e22, -2.5]],
        )
        items = [('q"uote', dets), ("back\\slash\\", dets), ("naïve ✓ 画像", dets),
                 ("tab\tnew\nline\u2028", dets), ("", record([(0, 0, 1, 1)], [3], [0.5], [[]]))]
        text = detections_to_jsonl(items)
        assert text.splitlines() == self.dumps_per_row(items)
        assert text.isascii()

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            detections_from_jsonl('{"image_id": "x"}\n')

    @pytest.mark.parametrize("field, value, message", BAD_FIELDS)
    def test_bad_row_rejected_with_line_number(self, field, value, message):
        good = {"image_id": "x", "class": 0, "score": 0.5, "x_min": 0.0, "y_min": 0.0,
                "x_max": 10.0, "y_max": 10.0, "embedding": [0.0, 0.0]}
        bad = dict(good, **{field: value})
        text = "\n".join(json.dumps(r) for r in (good, good, bad)) + "\n"
        with pytest.raises(ValueError, match="line 3") as info:
            detections_from_jsonl(text)
        assert info.match(message)

    @pytest.mark.parametrize("boundary", ["\u2028", "\u2029", "\u0085"])
    def test_raw_unicode_line_boundary_stays_in_its_string(self, boundary):
        # JSON allows these raw in strings, and json.dumps(ensure_ascii=False) writes them so
        row = {"image_id": f"a{boundary}b", "class": 1, "score": 0.5, "x_min": 0.0, "y_min": 0.0,
               "x_max": 10.0, "y_max": 10.0, "embedding": [0.0]}
        parsed = detections_from_jsonl(json.dumps(row, ensure_ascii=False) + "\r\n\n")
        assert list(parsed) == [f"a{boundary}b"]
        assert parsed[f"a{boundary}b"].class_ids.tolist() == [1]

    def test_line_nested_too_deep_is_a_malformed_line(self):
        good = json.dumps({"image_id": "x", "class": 0, "score": 0.5, "x_min": 0.0, "y_min": 0.0,
                           "x_max": 10.0, "y_max": 10.0})
        with pytest.raises(ValueError, match="^malformed detection on line 2: maximum recursion depth"):
            detections_from_jsonl(good + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")

    def test_empty_text(self):
        assert detections_from_jsonl("") == {}
        assert detections_to_jsonl([]) == ""
        assert detections_to_jsonl([("a", Detections.empty(3))]) == ""

    # the documented leniencies of docs/FORMATS.md "Detections"

    ROW = {"image_id": "x", "class": 1, "score": 0.5, "x_min": 0.0, "y_min": 1.0, "x_max": 10.0,
           "y_max": 11.0, "embedding": [0.25, -1.0]}

    def test_whitespace_around_a_record_is_ignored(self):
        line = json.dumps(self.ROW)
        plain = detections_from_jsonl(line + "\n" + line + "\n")["x"]
        padded = detections_from_jsonl(" \t" + line + "\r\n" + line + " \r\n")["x"]
        check_same_records({"x": padded}, {"x": plain})

    def test_keys_beyond_the_documented_ones_are_ignored(self):
        extra = dict(self.ROW, note="kept by nobody", x_center=[5, {"a": None}])
        check_same_records(detections_from_jsonl(json.dumps(extra)),
                           detections_from_jsonl(json.dumps(self.ROW)))

    def test_absent_embedding_reads_as_empty(self):
        row = {k: v for k, v in self.ROW.items() if k != "embedding"}
        dets = detections_from_jsonl(json.dumps(row) + "\n" + json.dumps(dict(row, embedding=[])))["x"]
        assert dets.embeddings.shape == (2, 0)
        assert dets.embeddings.dtype == np.float64

    def test_first_fault_by_line_number_is_reported(self):
        good = json.dumps(self.ROW)
        faults = {"score": json.dumps(dict(self.ROW, score=2.0)),
                  "ragged": json.dumps(dict(self.ROW, embedding=[0.0])),
                  "decode": good[:-1]}
        for first in faults:
            rest = [text for name, text in faults.items() if name != first]
            text = "\n".join([good, faults[first], good, *rest, good])
            with pytest.raises(ValueError, match="^malformed detection on line 2: "):
                detections_from_jsonl(text)


def check_same_records(actual, expected):
    """The same image ids in the same order, and the same array bytes, dtypes and layouts."""
    assert list(actual) == list(expected)
    for image_id, dets in expected.items():
        for field in ("boxes", "class_ids", "scores", "embeddings"):
            a, e = getattr(actual[image_id], field), getattr(dets, field)
            assert (a.dtype, a.shape, a.tobytes()) == (e.dtype, e.shape, e.tobytes()), (image_id, field)
            assert a.flags.c_contiguous, (image_id, field)


def reference_read(text):
    """The per-line reader: one ``json.loads`` and one ``_parse_row`` per line, records built at the end."""
    rows = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            image_id, *row = _parse_row(json.loads(line))
        except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"malformed detection on line {lineno}: {exc}") from exc
        per_image = rows.setdefault(image_id, [])
        if per_image and len(row[3]) != len(per_image[0][3]):
            raise ValueError(f"malformed detection on line {lineno}: embedding length {len(row[3])} "
                             f"differs from {len(per_image[0][3])} in earlier rows of image {image_id!r}")
        per_image.append(row)
    out = {}
    for image_id, image_rows in rows.items():
        class_ids, scores, boxes, embeddings = zip(*image_rows)
        out[image_id] = Detections(
            boxes=np.array(boxes, dtype=np.float64),
            class_ids=np.array(class_ids, dtype=np.int64),
            scores=np.array(scores, dtype=np.float64),
            embeddings=np.array(embeddings, dtype=np.float64),
        )
    return out


def corpus_rows(rng):
    """Rows of a valid file: 2-4 images whose rows interleave, each with its own embedding length."""
    images = [f"im{k}" for k in range(rng.integers(2, 5))]
    widths = {image_id: int(rng.integers(0, 4)) for image_id in images}
    rows = []
    for _ in range(rng.integers(4, 12)):
        image_id = images[rng.integers(len(images))]
        x0, y0 = rng.uniform(-5.0, 50.0, 2).tolist()
        x1, y1 = x0 + rng.uniform(0.0, 20.0), y0 + rng.uniform(0.0, 20.0)
        if rng.random() < 0.2:  # integer corners, as a writer other than detect may give
            x0, y0, x1, y1 = math.floor(x0), math.floor(y0), math.ceil(x1), math.ceil(y1)
        row = {"image_id": image_id, "class": int(rng.integers(0, 5)),
               "score": [0, 1, -0.0, float(rng.uniform())][rng.integers(4)],
               "x_min": x0, "y_min": y0, "x_max": x1, "y_max": y1,
               "embedding": rng.normal(size=widths[image_id]).tolist()}
        if not widths[image_id] and rng.random() < 0.5:
            del row["embedding"]
        rows.append(row)
    return rows


def corpus_file(mutate, rng):
    """One corpus file, after one mutation of its rows or lines (None leaves it valid)."""
    rows = corpus_rows(rng)
    return lay_out([json.dumps(row) for row in rows] if mutate is None else mutate(rows, rng), rng)


def lay_out(lines, rng):
    """The lines as one file, with blank lines and whitespace around some records."""
    out = []
    for line in lines:
        if rng.random() < 0.15:
            out.append(["", " ", "\t\r"][rng.integers(3)])
        out.append(["", " ", "\t"][rng.integers(3)] + line + ["", "\r", " \r", "  "][rng.integers(4)])
    return "\n".join(out) + ["", "\n", "\n\n"][rng.integers(3)]


def one_row(mutate):
    """A mutation of one random row's object."""
    def apply(rows, rng):
        mutate(rows[rng.integers(len(rows))], rng)
        return [json.dumps(row) for row in rows]
    return apply


def set_field(field, value):
    def mutate(row, rng):
        row[field] = value
    return one_row(mutate)


def drop_field(field):
    return one_row(lambda row, rng: row.pop(field, None))


def set_embedding_entry(value):
    def mutate(row, rng):
        row["embedding"] = [value, *row.get("embedding", [])[1:]] or [value]
    return one_row(mutate)


def replace_line(text):
    def apply(rows, rng):
        lines = [json.dumps(row) for row in rows]
        lines[rng.integers(len(lines))] = text
        return lines
    return apply


def edit_line(edit):
    def apply(rows, rng):
        lines = [json.dumps(row) for row in rows]
        k = rng.integers(len(lines))
        lines[k] = edit(lines[k])
        return lines
    return apply


def field_fault_then_decode_fault(rows, rng):
    first, later = sorted(rng.choice(len(rows), size=2, replace=False).tolist())
    rows[first]["score"] = 2.0
    lines = [json.dumps(row) for row in rows]
    lines[later] = lines[later][:-1]
    return lines


def ragged(row, rng):
    row["embedding"] = [*row.get("embedding", []), 0.5]


# one mutation per corpus file; None leaves the file valid
MUTATIONS = [
    None,
    *(set_field(field, value) for field, value, _ in BAD_FIELDS),
    *(replace_line(text) for text in ("[]", "1", '"x"', "null", "true", "{}", "{", "[" * 100_000 + "]" * 100_000)),
    *(drop_field(field) for field in ("image_id", "class", "score", "x_min", "y_min", "x_max", "y_max")),
    *(set_field(field, value) for field, value in (("note", [1, {"a": None}]), ("embedding", []))),
    *(set_field(field, value) for value in (float("nan"), float("inf"), -float("inf"), 10 ** 400)
      for field in ("class", "score", "x_min", "y_max")),
    *(set_embedding_entry(value) for value in (float("nan"), float("inf"), 10 ** 400, True, None)),
    *(set_field("image_id", value) for value in (None, [1], {"a": 1}, 1.0)),
    *(set_field("class", value) for value in (-(2 ** 63), -(2 ** 63) - 1, 2 ** 63 - 1, 10 ** 400)),
    *(set_field("score", value) for value in (10 ** 300, -1, 1.0000000000000002, -5e-324)),
    *(set_field("embedding", value) for value in ([[0.0]], None, {}, "")),
    one_row(ragged),
    one_row(lambda row, rng: row.update(x_min=2 ** 53 + 1, x_max=float(2 ** 53))),
    one_row(lambda row, rng: row.update(y_min=float(2 ** 53), y_max=2 ** 53 + 1)),
    one_row(lambda row, rng: row.update(x_min=-(2 ** 60), x_max=-(2 ** 60) - 1)),
    set_field("embedding", "[" * 100_000),
    edit_line(lambda line: line + " x"),
    edit_line(lambda line: line[:-1]),
    edit_line(lambda line: "\ufeff" + line),
    edit_line(lambda line: line[:-1] + ', "class": 1}'),
    edit_line(lambda line: line[:-1] + ', "score": "0.5"}'),
    edit_line(lambda line: '{"embedding": ' + "[" * 5_000 + "]" * 5_000 + ", " + line[1:]),
    field_fault_then_decode_fault,
]


class TestColumnReader:
    """``detections_from_jsonl`` reads by column; the per-line reader is its reference."""

    @pytest.mark.parametrize("mutation", range(len(MUTATIONS)))
    def test_matches_the_per_line_reader(self, mutation):
        rng = np.random.default_rng(mutation)
        for _ in range(4):
            text = corpus_file(MUTATIONS[mutation], rng)
            try:
                expected = reference_read(text)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    detections_from_jsonl(text)
                assert str(info.value) == str(exc)
            else:
                check_same_records(detections_from_jsonl(text), expected)

    def test_the_corpus_holds_valid_and_invalid_files(self):
        valid = []
        for mutation, mutate in enumerate(MUTATIONS):
            try:
                reference_read(corpus_file(mutate, np.random.default_rng(mutation)))
                valid.append(True)
            except ValueError:
                valid.append(False)
        assert valid.count(True) >= 5 and valid.count(False) >= 60

    def test_valid_input_takes_the_column_path(self, monkeypatch):
        calls = []

        def counted(record):
            calls.append(record)
            return _parse_row(record)

        monkeypatch.setattr(post, "_parse_row", counted)
        rng = np.random.default_rng(7)
        items = [(f"{k:03d}", record(rng.uniform(0.0, 1.0, (4, 4)).cumsum(axis=1), [0, 1, 0, 1],
                                     rng.uniform(0.0, 1.0, 4), rng.normal(size=(4, 3))))
                 for k in range(3)]
        parsed = detections_from_jsonl(detections_to_jsonl(items))
        assert list(parsed) == ["000", "001", "002"]
        assert calls == []
        lines = detections_to_jsonl(items[:1]).split("\n")
        lines[1] = lines[1].replace('"score": ', '"score": 9')
        with pytest.raises(ValueError, match="^malformed detection on line 2: score"):
            detections_from_jsonl("\n".join(lines))
        assert len(calls) == 2


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
        deltas = np.zeros((len(grid), 4))
        obj[:, 0] = 4.0
        active = targets.active_index
        obj[active] = (0.0, 6.0)
        cls[active, targets.active_classes] = 5.0
        deltas[active] = targets.active_deltas
        outputs = build_outputs(grid, obj, cls, deltas, emb)
        detections = nms(decode_detections(outputs, grid, 0.5), 0.5)
        assert len(detections) == 2
        for row, source in zip(np.argsort(detections.boxes[:, 0]), objects):
            assert detections.class_ids[row] == source.class_id
            assert detections.boxes[row] == pytest.approx(source.bbox.as_array(), abs=1e-6)
