import numpy as np
import pytest

from detseg.assign import (
    AssignConfig,
    AssignRule,
    GroundTruthObject,
    assign_targets,
    assign_targets_detailed,
    summarize_targets,
)
from detseg.geom import AnchorTemplate, BBox, BoxDelta, decode, iou, make_anchor_grid
from detseg.losses import BACKGROUND, FOREGROUND, IGNORE
from detseg.oracles import anchor_aligned_scene, assign_oracle_rows, random_assignment_scene, target_rows

CFG = AssignConfig()


def gt(x0, y0, x1, y1, class_id=0, instance_id=0):
    return GroundTruthObject(class_id=class_id, bbox=BBox(x0, y0, x1, y1), instance_id=instance_id)


def single_cell_grid(width, height, template):
    return make_anchor_grid(width, height, 8, [template])


class TestCornerCases:
    def test_identity_match_becomes_active(self):
        # one 8x8 anchor per cell; the gt equals the anchor at cell (0, 0)
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        targets = assign_targets(grid, [gt(0, 0, 8, 8)], 16, 16, CFG)
        assert targets.labels[0] == FOREGROUND
        assert targets.class_targets[0] == 0
        assert targets.deltas[0] == pytest.approx(np.zeros(4), abs=1e-12)
        assert np.all(targets.labels[1:] == BACKGROUND)

    def test_small_object_adopts_best_anchor(self):
        # best IoU anywhere is ~0.4545 < 0.5, so the gt falls back to its
        # best anchor, overriding that anchor's band don't-care state
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        targets, rules = assign_targets_detailed(grid, [gt(3, 0, 11, 8)], 16, 16, CFG)
        assert iou(grid.box(0), BBox(3, 0, 11, 8)) == pytest.approx(40 / 88)
        assert targets.labels[0] == FOREGROUND
        assert rules[0] == AssignRule.FALLBACK
        assert np.all(targets.labels[1:] == BACKGROUND)

    def test_ambiguous_anchor_is_inactive(self):
        # the single anchor overlaps object A at 0.55 and object B at 0.45:
        # the gap is 0.10 < 0.2 and both exceed 0.4, so it is switched off
        grid = single_cell_grid(8, 8, AnchorTemplate(1.0, 64))
        objects = [gt(0, 0, 8, 4.4, class_id=0, instance_id=0),
                   gt(0, 4.4, 8, 8, class_id=1, instance_id=1)]
        assert iou(grid.box(0), objects[0].bbox) == pytest.approx(0.55)
        assert iou(grid.box(0), objects[1].bbox) == pytest.approx(0.45)
        targets, rules = assign_targets_detailed(grid, objects, 8, 8, CFG)
        assert targets.labels[0] == BACKGROUND
        assert rules[0] == AssignRule.AMBIGUOUS

    def test_border_anchor_is_dont_care(self):
        # 16x8 anchor centered in an 8x8 image crosses the border; IoU 0.6
        grid = single_cell_grid(8, 8, AnchorTemplate(2.0, 128))
        obj = gt(0, 0, 9.6, 8)
        assert grid.outside[0]
        assert iou(grid.box(0), obj.bbox) == pytest.approx(0.6)
        targets, rules = assign_targets_detailed(grid, [obj], 8, 8, CFG)
        assert targets.labels[0] == IGNORE
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
        targets, rules = assign_targets_detailed(grid, objects, 32, 32, CFG)
        assert targets.labels[probe_index] == IGNORE
        assert rules[probe_index] == AssignRule.BAND
        # both objects found an active anchor, so no fallback touched the probe
        summary = summarize_targets(targets)
        assert summary.active_per_class == {0: 1, 1: 1}


class TestMechanics:
    def test_output_length_and_payload(self):
        grid = make_anchor_grid(32, 32, 8, [AnchorTemplate(1.0, 64)])
        objects = [gt(8, 8, 16, 16, class_id=1, instance_id=5)]
        targets = assign_targets(grid, objects, 32, 32, CFG)
        assert len(targets) == len(grid)
        active = np.flatnonzero(targets.active)
        assert len(active) == 1
        assert targets.class_targets[active[0]] == 1
        assert targets.instance_ids[active[0]] == 5

    def test_active_delta_decodes_to_gt(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            grid, gts, w, h = random_assignment_scene(rng)
            targets = assign_targets(grid, gts, w, h, CFG)
            for i in np.flatnonzero(targets.active):
                matched = next(g for g in gts if g.instance_id == targets.instance_ids[i])
                back = decode(grid.box(i), BoxDelta(*targets.deltas[i].tolist()))
                assert back.as_array() == pytest.approx(matched.bbox.as_array(), abs=1e-6)

    def test_grid_image_mismatch_rejected(self):
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        with pytest.raises(ValueError):
            assign_targets(grid, [], 32, 32, CFG)

    def test_duplicate_instance_ids_rejected(self):
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        objects = [gt(0, 0, 8, 8, instance_id=1), gt(8, 8, 16, 16, instance_id=1)]
        with pytest.raises(ValueError):
            assign_targets(grid, objects, 16, 16, CFG)

    def test_no_objects_all_inactive(self):
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        targets = assign_targets(grid, [], 16, 16, CFG)
        assert np.all(targets.labels == BACKGROUND)
        assert not targets.active.any()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AssignConfig(active_iou=0.4, dontcare_iou=0.5)
        with pytest.raises(ValueError):
            AssignConfig(ambiguity_gap=0.0)

    def test_target_payload_consistency(self):
        # class, instance id and delta are set exactly on the active rows
        rng = np.random.default_rng(23)
        for _ in range(50):
            grid, gts, w, h = anchor_aligned_scene(rng)
            targets = assign_targets(grid, gts, w, h, CFG)
            n = len(grid)
            assert targets.labels.shape == targets.class_targets.shape == (n,)
            assert targets.active.shape == targets.instance_ids.shape == (n,)
            assert targets.deltas.shape == (n, 4)
            assert set(targets.labels.tolist()) <= {BACKGROUND, FOREGROUND, IGNORE}
            assert np.array_equal(targets.active, targets.labels == FOREGROUND)
            assert np.array_equal(targets.class_targets >= 0, targets.active)
            assert np.array_equal(targets.instance_ids >= 0, targets.active)
            assert np.all(targets.deltas[~targets.active] == 0.0)


class TestRulePrecedence:
    def test_no_active_anchor_within_ambiguity_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            grid, gts, w, h = random_assignment_scene(rng)
            if len(gts) < 2:
                continue
            targets = assign_targets(grid, gts, w, h, CFG)
            from detseg.geom import iou_matrix

            m = iou_matrix(grid.boxes, [g.bbox for g in gts])
            for i in np.flatnonzero(targets.active):
                row = np.sort(m[i])[::-1]
                b1, b2 = row[0], row[1]
                if b1 >= CFG.dontcare_iou and b2 >= CFG.dontcare_iou:
                    assert (b1 - b2) >= CFG.ambiguity_gap

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
            _, rules = assign_targets_detailed(grid, gts, w, h, CFG)
            ambiguous = np.flatnonzero(rules == AssignRule.AMBIGUOUS)
            if ambiguous.size == 0:
                continue
            for drop in range(len(gts)):
                remaining = [g for j, g in enumerate(gts) if j != drop]
                _, new_rules = assign_targets_detailed(grid, remaining, w, h, CFG)
                assert not np.any(new_rules[ambiguous] == AssignRule.BORDER)
                checked += 1
        assert checked > 0


class TestOracleEquivalence:
    def test_randomized_scenes_match_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            grid, gts, w, h = random_assignment_scene(rng)
            # state, class id, instance id and (exactly) delta of every anchor
            expected = assign_oracle_rows(grid, gts, w, h, CFG)
            assert target_rows(assign_targets(grid, gts, w, h, CFG)) == expected

    def test_anchor_aligned_scenes_match_reference(self):
        # most of these scenes have active anchors, so class, instance id and
        # delta are compared on many rows, not only the state
        rng = np.random.default_rng(29)
        active = 0
        for _ in range(200):
            grid, gts, w, h = anchor_aligned_scene(rng)
            expected = assign_oracle_rows(grid, gts, w, h, CFG)
            assert target_rows(assign_targets(grid, gts, w, h, CFG)) == expected
            active += sum(row[0] == "active" for row in expected)
        assert active >= 100


class TestSummarize:
    def test_counts_sum(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            grid, gts, w, h = random_assignment_scene(rng)
            targets = assign_targets(grid, gts, w, h, CFG)
            summary = summarize_targets(targets)
            assert summary.total == len(grid)
            # independent recount, one anchor at a time
            labels = targets.labels.tolist()
            assert summary.active == labels.count(FOREGROUND)
            assert summary.dontcare == labels.count(IGNORE)
            assert summary.inactive == labels.count(BACKGROUND)
            per_class: dict[int, int] = {}
            for label, class_id in zip(labels, targets.class_targets.tolist()):
                if label == FOREGROUND:
                    per_class[class_id] = per_class.get(class_id, 0) + 1
            assert summary.active_per_class == per_class
            assert sum(summary.active_per_class.values()) == summary.active
