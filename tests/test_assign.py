import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from detseg import assign
from detseg.assign import (
    ACTIVE_IOU,
    AMBIGUITY_GAP,
    DONTCARE_IOU,
    AssignRule,
    GroundTruthObject,
    assign_targets,
    assign_targets_detailed,
    summarize_targets,
)
from detseg.geom import AnchorTemplate, BBox, anchor_preset, decode, iou, iou_matrix, make_anchor_grid
from detseg.losses import BACKGROUND, FOREGROUND, IGNORE
from detseg.oracles import (
    anchor_aligned_scene,
    assign_oracle_rows,
    dense_live,
    paper_scene,
    random_assignment_scene,
    target_rows,
)
from detseg.pipeline.synth import SceneSpec, synth_scene


def gt(x0, y0, x1, y1, class_id=0, instance_id=0):
    return GroundTruthObject(class_id=class_id, bbox=BBox(x0, y0, x1, y1), instance_id=instance_id)


def single_cell_grid(width, height, template):
    return make_anchor_grid(width, height, 8, [template])


def labels_of(targets):
    """The objectness label of every anchor, from its rule code."""
    return assign._LABEL_OF_RULE[targets.rules]


class TestCornerCases:
    def test_identity_match_becomes_active(self):
        # one 8x8 anchor per cell; the gt equals the anchor at cell (0, 0)
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        targets = assign_targets(grid, [gt(0, 0, 8, 8)], 16, 16)
        assert labels_of(targets)[0] == FOREGROUND
        assert targets.active_index.tolist() == [0]
        assert targets.active_classes.tolist() == [0]
        assert targets.active_deltas[0] == pytest.approx(np.zeros(4), abs=1e-12)
        assert np.all(labels_of(targets)[1:] == BACKGROUND)

    def test_small_object_adopts_best_anchor(self):
        # best IoU anywhere is ~0.4545 < 0.5, so the gt falls back to its
        # best anchor, overriding that anchor's band don't-care state
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        targets, rules = assign_targets_detailed(grid, [gt(3, 0, 11, 8)], 16, 16)
        assert iou(grid.box(0), BBox(3, 0, 11, 8)) == pytest.approx(40 / 88)
        assert labels_of(targets)[0] == FOREGROUND
        assert rules[0] == AssignRule.FALLBACK
        assert np.all(labels_of(targets)[1:] == BACKGROUND)

    def test_ambiguous_anchor_is_inactive(self):
        # the single anchor overlaps object A at 0.55 and object B at 0.45:
        # the gap is 0.10 < 0.2 and both exceed 0.4, so it is switched off
        grid = single_cell_grid(8, 8, AnchorTemplate(1.0, 64))
        objects = [gt(0, 0, 8, 4.4, class_id=0, instance_id=0),
                   gt(0, 4.4, 8, 8, class_id=1, instance_id=1)]
        assert iou(grid.box(0), objects[0].bbox) == pytest.approx(0.55)
        assert iou(grid.box(0), objects[1].bbox) == pytest.approx(0.45)
        targets, rules = assign_targets_detailed(grid, objects, 8, 8)
        assert labels_of(targets)[0] == BACKGROUND
        assert rules[0] == AssignRule.AMBIGUOUS

    def test_border_anchor_is_dont_care(self):
        # 16x8 anchor centered in an 8x8 image crosses the border; IoU 0.6
        grid = single_cell_grid(8, 8, AnchorTemplate(2.0, 128))
        obj = gt(0, 0, 9.6, 8)
        assert grid.outside[0]
        assert iou(grid.box(0), obj.bbox) == pytest.approx(0.6)
        targets, rules = assign_targets_detailed(grid, [obj], 8, 8)
        assert labels_of(targets)[0] == IGNORE
        assert rules[0] == AssignRule.BORDER

    def test_band_anchor_is_dont_care(self):
        # anchors are 8x8 and 10x8 per cell on a 32x32 image; both objects own
        # an exact-match active anchor, and the probe anchor sees b1 ~ 0.4545
        # with b2 ~ 0.111, landing in the don't-care band
        templates = [AnchorTemplate(1.0, 64), AnchorTemplate(1.0, 256)]
        grid = make_anchor_grid(32, 32, 8, templates)
        big = grid.box(grid.anchor_index(1, 1, 1))      # (4, 4, 20, 20)
        probe_index = grid.anchor_index(1, 2, 1)        # (12, 4, 28, 20)
        objects = [
            gt(6, 4, 22, 20, class_id=0, instance_id=0),
            gt(16, 16, 24, 24, class_id=1, instance_id=1),
        ]
        probe = grid.box(probe_index)
        b1 = iou(probe, objects[0].bbox)
        b2 = iou(probe, objects[1].bbox)
        assert 0.4 < b1 <= 0.5 and b2 < 0.4
        targets, rules = assign_targets_detailed(grid, objects, 32, 32)
        assert labels_of(targets)[probe_index] == IGNORE
        assert rules[probe_index] == AssignRule.BAND
        # both objects found an active anchor, so no fallback touched the probe
        summary = summarize_targets(targets)
        assert summary.active_per_class == {0: 1, 1: 1}


class TestMechanics:
    def test_output_length_and_payload(self):
        grid = make_anchor_grid(32, 32, 8, [AnchorTemplate(1.0, 64)])
        objects = [gt(8, 8, 16, 16, class_id=1, instance_id=5)]
        targets = assign_targets(grid, objects, 32, 32)
        assert len(targets) == len(grid)
        assert len(targets.active_index) == 1
        assert targets.active_classes[0] == 1
        assert targets.active_instances[0] == 5

    def test_active_delta_decodes_to_gt(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            grid, gts, w, h = random_assignment_scene(rng)
            targets = assign_targets(grid, gts, w, h)
            for i, instance_id, delta in zip(targets.active_index, targets.active_instances, targets.active_deltas):
                matched = next(g for g in gts if g.instance_id == instance_id)
                back = decode(grid.box(i), delta)
                assert back.as_array() == pytest.approx(matched.bbox.as_array(), abs=1e-6)

    def test_grid_image_mismatch_rejected(self):
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        with pytest.raises(ValueError):
            assign_targets(grid, [], 32, 32)

    def test_duplicate_instance_ids_rejected(self):
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        objects = [gt(0, 0, 8, 8, instance_id=1), gt(8, 8, 16, 16, instance_id=1)]
        with pytest.raises(ValueError):
            assign_targets(grid, objects, 16, 16)

    def test_no_objects_all_inactive(self):
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        targets = assign_targets(grid, [], 16, 16)
        assert np.all(labels_of(targets) == BACKGROUND)
        assert targets.active_index.size == 0

    def test_target_payload_consistency(self):
        # class, instance id and delta come once for each active anchor, in anchor order
        rng = np.random.default_rng(23)
        for _ in range(50):
            grid, gts, w, h = anchor_aligned_scene(rng)
            targets = assign_targets(grid, gts, w, h)
            n, k = len(grid), len(targets.active_index)
            assert targets.rules.shape == (n,) and targets.rules.dtype == np.int8
            assert targets.active_classes.shape == targets.active_instances.shape == (k,)
            assert targets.active_deltas.shape == (k, 4)
            assert set(labels_of(targets).tolist()) <= {BACKGROUND, FOREGROUND, IGNORE}
            assert np.array_equal(targets.active_index, np.flatnonzero(labels_of(targets) == FOREGROUND))
            assert np.all(targets.active_classes >= 0)
            assert np.all(targets.active_instances >= 0)
            assert np.all(np.isfinite(targets.active_deltas))

    def test_dense_views_expand_the_active_rows(self):
        # the per-anchor arrays the record builds on demand: the oracle's ids and
        # deltas, -1 ids and zero deltas off the active anchors, and fresh arrays on each read
        rng = np.random.default_rng(59)
        for scene in (random_assignment_scene, anchor_aligned_scene):
            for _ in range(100):
                grid, gts, w, h = scene(rng)
                targets = assign_targets(grid, gts, w, h)
                n = len(grid)
                labels, active = targets.labels, targets.active
                deltas, instance_ids = targets.deltas, targets.instance_ids
                assert labels.dtype == instance_ids.dtype == np.int64 and active.dtype == bool
                assert labels.shape == active.shape == instance_ids.shape == (n,) and deltas.shape == (n, 4)
                assert np.array_equal(active, labels == FOREGROUND)
                assert np.array_equal(instance_ids >= 0, active)
                assert np.all(deltas[~active] == 0.0)
                states = {BACKGROUND: "inactive", IGNORE: "dontcare", FOREGROUND: "active"}
                expected = [(state, instance_id, delta) for state, _, instance_id, delta
                            in assign_oracle_rows(grid, gts, w, h)]
                assert list(zip([states[label] for label in labels.tolist()], instance_ids.tolist(),
                                map(tuple, deltas.tolist()))) == expected
                assert targets.deltas is not deltas and targets.active is not active


    def test_memory_stays_far_below_a_dense_record(self):
        # 580,000 paper-table1 anchors at 640x400. A record with dense per-anchor
        # rows (int64 label, class and instance id, a bool mask and four float64
        # deltas) takes 57 bytes per anchor; this call peaks near 3.
        grid = make_anchor_grid(640, 400, 8, anchor_preset("paper-table1"))
        spec = SceneSpec(width=640, height=400, min_objects=8, max_objects=8, min_size=12, max_size=160)
        gts = synth_scene((1, 8), spec).gts
        tracemalloc.start()
        try:
            targets = assign_targets(grid, gts, 640, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(grid)
        assert len(targets.active_index) > 500


class TestRulePrecedence:
    def test_no_active_anchor_within_ambiguity_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            grid, gts, w, h = random_assignment_scene(rng)
            if len(gts) < 2:
                continue
            targets = assign_targets(grid, gts, w, h)
            m = iou_matrix(grid.boxes, np.stack([g.bbox.as_array() for g in gts]))
            for i in targets.active_index:
                row = np.sort(m[i])[::-1]
                b1, b2 = row[0], row[1]
                if b1 >= DONTCARE_IOU and b2 >= DONTCARE_IOU:
                    assert (b1 - b2) >= AMBIGUITY_GAP

    def test_removing_gt_never_creates_border_state(self):
        # the border rule depends on geometry alone, so an anchor that was
        # inactive through the ambiguity rule can never become border
        # don't-care when one object disappears
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(200):
            grid, gts, w, h = random_assignment_scene(rng)
            if len(gts) < 2:
                continue
            _, rules = assign_targets_detailed(grid, gts, w, h)
            ambiguous = np.flatnonzero(rules == AssignRule.AMBIGUOUS)
            if ambiguous.size == 0:
                continue
            for drop in range(len(gts)):
                remaining = [g for j, g in enumerate(gts) if j != drop]
                _, new_rules = assign_targets_detailed(grid, remaining, w, h)
                assert not np.any(new_rules[ambiguous] == AssignRule.BORDER)
                checked += 1
        assert checked > 0


class TestOracleEquivalence:
    def test_randomized_scenes_match_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            grid, gts, w, h = random_assignment_scene(rng)
            # state, class id, instance id and (exactly) delta of every anchor
            expected = assign_oracle_rows(grid, gts, w, h)
            assert target_rows(assign_targets(grid, gts, w, h)) == expected

    def test_anchor_aligned_scenes_match_reference(self):
        # most of these scenes have active anchors, so class, instance id and
        # delta are compared on many rows, not only the state
        rng = np.random.default_rng(29)
        active = 0
        for _ in range(200):
            grid, gts, w, h = anchor_aligned_scene(rng)
            expected = assign_oracle_rows(grid, gts, w, h)
            assert target_rows(assign_targets(grid, gts, w, h)) == expected
            active += sum(row[0] == "active" for row in expected)
        assert active >= 100


class TestSummarize:
    def test_counts_sum(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            grid, gts, w, h = random_assignment_scene(rng)
            targets = assign_targets(grid, gts, w, h)
            summary = summarize_targets(targets)
            assert summary.total == len(grid)
            # independent recount, one anchor at a time
            labels = labels_of(targets).tolist()
            assert summary.active == labels.count(FOREGROUND)
            assert summary.dontcare == labels.count(IGNORE)
            assert summary.inactive == labels.count(BACKGROUND)
            class_of = dict(zip(targets.active_index.tolist(), targets.active_classes.tolist()))
            per_class: dict[int, int] = {}
            for i, label in enumerate(labels):
                if label == FOREGROUND:
                    per_class[class_of[i]] = per_class.get(class_of[i], 0) + 1
            assert summary.active_per_class == per_class
            assert sum(summary.active_per_class.values()) == summary.active


def gt_array(gts):
    return np.array([g.bbox.as_array() for g in gts]).reshape(-1, 4)


def assert_live_matches_dense(grid, gts):
    """Live anchors equal the whole-lattice definition, and their IoUs the whole-lattice ones that reach it."""
    live, overlaps = assign._live_anchors(grid, gt_array(gts))
    assert live.tolist() == dense_live(grid, gts).tolist()
    if gts:
        full = iou_matrix(grid.boxes[live], gt_array(gts))
        assert overlaps.tolist() == np.where(full >= DONTCARE_IOU, full, 0.0).tolist()
    return live


def window_scene(rng, image_w, image_h, stride):
    """Random templates (some wider or taller than the image) and objects anywhere around it."""
    templates = [AnchorTemplate(float(rng.uniform(0.2, 5.0)), float(rng.uniform(4, 4 * image_w * image_h)))
                 for _ in range(int(rng.integers(1, 8)))]
    grid = make_anchor_grid(image_w, image_h, stride, templates)
    gts = []
    for k in range(int(rng.integers(1, 5))):
        x0 = float(rng.uniform(-1.5, 1.5) * image_w)
        y0 = float(rng.uniform(-1.5, 1.5) * image_h)
        w = float(rng.uniform(0.05, 1.5) * image_w)
        h = float(rng.uniform(0.05, 1.5) * image_h)
        gts.append(gt(x0, y0, x0 + w, y0 + h, instance_id=k))
    return grid, gts


def paper_scenes(rng):
    """Seeded synthetic scenes on the 512x256 paper-table1 lattice, then jittered copies of its anchors."""
    for seed in range(1, 4):
        for n in (3, 8):
            grid, gts, _, _ = paper_scene(seed, n)
            yield grid, gts
    for _ in range(12):
        gts = []
        for k in range(int(rng.integers(1, 7))):
            x0, y0, x1, y1 = grid.boxes[int(rng.integers(len(grid)))]
            d = rng.uniform(-0.3, 0.3, 4) * [x1 - x0, y1 - y0, x1 - x0, y1 - y0]
            gts.append(gt(x0 + d[0], y0 + d[1], x1 + d[2], y1 + d[3], instance_id=k))
        yield grid, gts


class TestLiveAnchors:
    def test_small_scenes_match_dense_definition(self):
        rng = np.random.default_rng(31)
        checked = 0
        for scene in (random_assignment_scene, anchor_aligned_scene):
            for _ in range(200):
                grid, gts, _, _ = scene(rng)
                if gts:
                    assert_live_matches_dense(grid, gts)
                    checked += 1
        assert checked > 300

    def test_dense_definition_is_the_scalar_iou(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            grid, gts = window_scene(rng, int(rng.integers(5, 40)), int(rng.integers(5, 40)), 8)
            expected = [i for i in range(len(grid)) if max(iou(grid.box(i), g.bbox) for g in gts) >= DONTCARE_IOU]
            assert dense_live(grid, gts).tolist() == expected

    def test_sides_not_multiples_of_stride(self):
        # the last row and column of cells lie partly past the image
        rng = np.random.default_rng(43)
        for _ in range(150):
            stride = int(rng.integers(2, 12))
            image_w = int(rng.integers(1, 6)) * stride + int(rng.integers(1, stride))
            image_h = int(rng.integers(1, 6)) * stride + int(rng.integers(1, stride))
            grid, gts = window_scene(rng, image_w, image_h, stride)
            assert grid.cols * stride > image_w and grid.rows * stride > image_h
            assert_live_matches_dense(grid, gts)

    def test_objects_partly_or_wholly_outside_the_image(self):
        rng = np.random.default_rng(47)
        grid = make_anchor_grid(40, 24, 8, anchor_preset("toy"))
        outside = 0
        for _ in range(150):
            gts = []
            for k in range(int(rng.integers(1, 4))):
                w, h = rng.uniform(4, 48, 2)
                x0, y0 = rng.uniform(-60, 60), rng.uniform(-40, 40)
                gts.append(gt(x0, y0, x0 + w, y0 + h, instance_id=k))
                outside += x0 + w <= 0 or y0 + h <= 0 or x0 >= 40 or y0 >= 24
            assert_live_matches_dense(grid, gts)
        assert outside > 50
        # left of the image, yet 0.41 of cell (0, 0)'s 45 x 23 anchor, which crosses the border
        live = assert_live_matches_dense(grid, [gt(-18.6, -7.3, 0, 15.3)])
        assert live.size and grid.outside[live].all()

    def test_objects_far_outside_the_image(self):
        # windows past the lattice by more than an int64 holds are empty, without a cast warning
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 16384.0**2)])
        for x0 in (1e20, -1e20 - 16384):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert assert_live_matches_dense(grid, [gt(x0, 0, x0 + 16384, 16384)]).size == 0

    def test_templates_larger_than_the_image(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            image_w, image_h = int(rng.integers(4, 33)), int(rng.integers(4, 33))
            templates = [AnchorTemplate(float(rng.uniform(0.3, 3.0)), float(rng.uniform(1.0, 6.0) * image_w * image_h))
                         for _ in range(int(rng.integers(1, 5)))]
            grid = make_anchor_grid(image_w, image_h, 4, templates)
            assert any(t.width > image_w or t.height > image_h for t in templates)
            _, gts = window_scene(rng, image_w, image_h, 4)
            assert_live_matches_dense(grid, gts)

    @pytest.mark.parametrize("image_w,image_h", [(8, 40), (40, 8), (8, 8), (5, 61), (61, 5)])
    def test_one_row_and_one_column_lattices(self, image_w, image_h):
        rng = np.random.default_rng(image_w * 100 + image_h)
        checked = 0
        for _ in range(60):
            grid, gts = window_scene(rng, image_w, image_h, 8)
            assert min(grid.rows, grid.cols) == 1
            checked += assert_live_matches_dense(grid, gts).size
        assert checked > 0

    @pytest.mark.parametrize("obj", [(0, 6, 10, 10), (0, 0, 10, 4), (6, 0, 10, 10), (0, 0, 4, 10)])
    def test_dontcare_iou_exactly_on_a_window_edge(self, obj):
        # A 10 x 10 anchor and a 10 x 4 object need an intersection of at
        # least 0.4 * 140 / 1.4 = 40, so an overlap of at least 4 along the
        # object's short side: cell centres lie within 5 - 40 / 10 = 1 of
        # its extent there. Cell (0, 0), centred at (5, 5), lies on that
        # edge of the window and sees 40 / 100.
        grid = make_anchor_grid(20, 20, 10, [SQUARE])
        x0, y0, x1, y1 = obj
        min_inter = Fraction(2, 5) * (100 + (x1 - x0) * (y1 - y0)) / Fraction(7, 5)
        reach_x = 5 - min_inter / min(10, y1 - y0)
        reach_y = 5 - min_inter / min(10, x1 - x0)
        edges = (x0 - reach_x, y0 - reach_y, x1 + reach_x, y1 + reach_y)
        assert edges[0] <= 5 <= edges[2] and edges[1] <= 5 <= edges[3] and 5 in edges
        assert iou(grid.box(0), BBox(*obj)) == DONTCARE_IOU
        assert assert_live_matches_dense(grid, [gt(*obj)]).tolist() == [0]

    def test_paper_scenes_match_dense_definition(self):
        live_rows = 0
        for grid, gts in paper_scenes(np.random.default_rng(37)):
            assert (grid.image_w, grid.image_h) == (512, 256)
            live_rows += assert_live_matches_dense(grid, gts).size
        assert live_rows > 0


SQUARE = AnchorTemplate(1.0, 100)  # 10 x 10
TALL = AnchorTemplate(0.5, 200)    # 10 x 20

# name -> (templates, image side, stride, objects, {anchor index: rule}); every other anchor is DEFAULT
BOUNDARY_CASES = {
    # 40 / 100 is DONTCARE_IOU exactly: live, but no rule fires
    "dontcare_exact_inside": ([SQUARE], 20, 10, [gt(0, 0, 10, 4)], {}),
    # the anchor (-1, -1, 9, 9) crosses the border, so b1 >= DONTCARE_IOU makes it don't-care
    "dontcare_exact_border": ([SQUARE], 8, 8, [gt(-1, -1, 9, 3)], {0: AssignRule.BORDER}),
    "dontcare_exact_ambiguous": ([SQUARE], 20, 10, [gt(0, 0, 10, 4), gt(0, 6, 10, 10, instance_id=1)],
                                 {0: AssignRule.AMBIGUOUS}),
    # (5, 0, 15, 20) sees the object at 100 / 200, ACTIVE_IOU exactly: band, not active
    "active_exact_band": ([SQUARE, TALL], 20, 20, [gt(5, 5, 15, 15)], {0: AssignRule.BEST, 1: AssignRule.BAND}),
    # no anchor exceeds ACTIVE_IOU, so the object adopts its 0.5 anchor
    "active_exact_fallback": ([SQUARE], 20, 10, [gt(10, 10, 20, 15)], {3: AssignRule.FALLBACK}),
    # anchors 0 and 1 are the same box at IoU 0.45; the fallback takes the lower index
    "duplicate_templates": ([SQUARE, SQUARE], 20, 10, [gt(0, 0, 10, 4.5)],
                            {0: AssignRule.FALLBACK, 1: AssignRule.BAND}),
    # a 2 x 2 object reaches at most 4 / 100 with any 10 x 10 template
    "unreachable_object": ([SQUARE], 20, 10, [gt(4, 4, 6, 6)], {}),
    "no_objects": ([SQUARE, TALL], 20, 10, [], {}),
}


@pytest.mark.parametrize("name", list(BOUNDARY_CASES))
def test_boundary_case_matches_oracle_and_rules(name):
    templates, side, stride, gts, special = BOUNDARY_CASES[name]
    grid = make_anchor_grid(side, side, stride, templates)
    targets, rules = assign_targets_detailed(grid, gts, side, side)
    expected = np.full(len(grid), AssignRule.DEFAULT)
    expected[list(special)] = list(special.values())
    assert rules.tolist() == expected.tolist()
    assert target_rows(targets) == assign_oracle_rows(grid, gts, side, side)
    live = assert_live_matches_dense(grid, gts).tolist()
    if name in ("unreachable_object", "no_objects"):
        assert live == []
    if name.startswith(("dontcare_exact", "active_exact")):
        exact = DONTCARE_IOU if name.startswith("dontcare") else ACTIVE_IOU
        assert exact in iou_matrix(grid.boxes, gt_array(gts)).max(axis=1).tolist()
