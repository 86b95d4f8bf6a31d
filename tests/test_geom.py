import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detseg.geom import (
    AnchorTemplate,
    BBox,
    BoxDelta,
    anchor_preset,
    decode,
    decode_array,
    encode,
    encode_array,
    iou,
    iou_matrix,
    iou_pairs,
    make_anchor_grid,
    preset_names,
    templates_from_json,
)


def box(x0, y0, x1, y1):
    return BBox(x0, y0, x1, y1)


class TestIou:
    def test_identity(self):
        b = box(0, 0, 2, 2)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 1, 1), box(5, 5, 6, 6)) == 0.0

    def test_partial_overlap(self):
        # intersection 1, union 4 + 4 - 1 = 7
        assert iou(box(0, 0, 2, 2), box(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-12)

    def test_degenerate_boxes(self):
        assert iou(box(1, 1, 1, 1), box(1, 1, 1, 1)) == 0.0

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            box(2, 0, 1, 1)


boxes_strategy = st.tuples(
    st.floats(-50, 50), st.floats(-50, 50), st.floats(0.01, 60), st.floats(0.01, 60)
).map(lambda t: BBox(t[0], t[1], t[0] + t[2], t[1] + t[3]))


class TestIouProperties:
    @settings(max_examples=200, deadline=None)
    @given(boxes_strategy, boxes_strategy)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(boxes_strategy)
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == pytest.approx(1.0, abs=1e-12)


def iou_pairs_matrix(a, g):
    return iou_pairs(a[:, None], g[None])


# The pairwise IoU matrix, and the same matrix through broadcasting iou_pairs.
PAIRWISE = (iou_matrix, iou_pairs_matrix)


class TestIouMatrix:
    def test_empty_gts(self):
        for pairwise in PAIRWISE:
            m = pairwise(box(0, 0, 1, 1).as_array()[None], np.zeros((0, 4)))
            assert m.shape == (1, 0)
            assert pairwise(np.zeros((0, 4)), box(0, 0, 1, 1).as_array()[None]).shape == (0, 1)

    def test_identity_entry(self):
        b = box(0, 0, 4, 4).as_array()[None]
        for pairwise in PAIRWISE:
            assert pairwise(b, b) == pytest.approx(np.array([[1.0]]))

    def test_matches_scalar(self):
        rng = np.random.default_rng(0)
        anchors = [BBox(x, y, x + w, y + h) for x, y, w, h in rng.uniform(1, 20, (5, 4))]
        gts = [BBox(x, y, x + w, y + h) for x, y, w, h in rng.uniform(1, 20, (3, 4))]
        for pairwise in PAIRWISE:
            m = pairwise(np.stack([a.as_array() for a in anchors]), np.stack([g.as_array() for g in gts]))
            for i, a in enumerate(anchors):
                for j, g in enumerate(gts):
                    assert m[i, j] == pytest.approx(iou(a, g), abs=1e-12)

    def test_pairs_equal_scalar_on_aligned_rows_and_broadcast_shapes(self):
        rng = np.random.default_rng(4)
        a = [BBox(x, y, x + w, y + h) for x, y, w, h in rng.uniform(0, 12, (6, 4))]
        g = [BBox(x, y, x + w, y + h) for x, y, w, h in rng.uniform(0, 12, (6, 4))]
        a_arr = np.stack([b.as_array() for b in a])
        g_arr = np.stack([b.as_array() for b in g])
        aligned = iou_pairs(a_arr, g_arr)
        assert aligned.shape == (6,)
        assert aligned.tolist() == [iou(x, y) for x, y in zip(a, g)]
        # (2, 3, 4) against (3, 4): row r of the first pairs with the same row of the second
        grouped = iou_pairs(a_arr.reshape(2, 3, 4), g_arr[:3])
        assert grouped.shape == (2, 3)
        assert grouped.tolist() == [[iou(a[3 * k + j], g[j]) for j in range(3)] for k in range(2)]

    def test_zero_area_union(self):
        point = box(1, 1, 1, 1).as_array()
        line = box(0, 1, 4, 1).as_array()
        assert iou_pairs(point, point) == 0.0
        assert iou_pairs(np.stack([point, line]), line).tolist() == [0.0, 0.0]
        for pairwise in PAIRWISE:
            assert pairwise(point[None], point[None]).tolist() == [[0.0]]


class TestTemplates:
    def test_width_height(self):
        t = AnchorTemplate(ratio=2.0, area=512)
        assert t.width == pytest.approx(32.0)
        assert t.height == pytest.approx(16.0)

    def test_area_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = AnchorTemplate(ratio=float(rng.uniform(0.1, 10)), area=float(rng.uniform(1, 1e6)))
            assert t.width * t.height == pytest.approx(t.area, rel=1e-9)

    def test_invalid(self):
        with pytest.raises(ValueError):
            AnchorTemplate(ratio=0.0, area=10)

    def test_presets(self):
        full = anchor_preset("paper-table1")
        assert len(full) == 145
        assert len({t.ratio for t in full}) == 5
        assert len({t.area for t in full}) == 29
        assert "toy" in preset_names()
        with pytest.raises(ValueError):
            anchor_preset("nope")

    def test_from_json(self):
        templates = anchor_preset("toy")
        again = templates_from_json([{"ratio": t.ratio, "area": t.area} for t in templates])
        assert again == templates


class TestAnchorGrid:
    def test_full_preset_count(self):
        grid = make_anchor_grid(64, 64, 8, anchor_preset("paper-table1"))
        assert len(grid) == 9280
        assert grid.rows == 8 and grid.cols == 8

    def test_centers_and_extent(self):
        tpl = AnchorTemplate(ratio=1.0, area=1024)  # 32 x 32
        grid = make_anchor_grid(8, 8, 8, [tpl])
        assert len(grid) == 1
        b = grid.box(0)
        # centered on (4, 4), extends outside the 8 x 8 image, not clipped
        assert (b.x_min, b.y_min, b.x_max, b.y_max) == (-12.0, -12.0, 20.0, 20.0)
        assert grid.outside[0]

    def test_ceil_division(self):
        grid = make_anchor_grid(65, 63, 8, [AnchorTemplate(1.0, 64)])
        assert grid.cols == 9 and grid.rows == 8

    def test_index_bijective(self):
        templates = [AnchorTemplate(1.0, 64), AnchorTemplate(2.0, 128)]
        grid = make_anchor_grid(24, 16, 8, templates)
        seen = set()
        for row in range(grid.rows):
            for col in range(grid.cols):
                for t in range(len(templates)):
                    seen.add(grid.anchor_index(row, col, t))
        assert seen == set(range(len(grid)))

    def test_box_matches_template_and_cell(self):
        templates = [AnchorTemplate(1.0, 64), AnchorTemplate(4.0, 256)]
        grid = make_anchor_grid(32, 24, 8, templates)
        idx = grid.anchor_index(2, 1, 1)
        b = grid.box(idx)
        assert b.center == (12.0, 20.0)
        assert b.width == pytest.approx(32.0)
        assert b.height == pytest.approx(8.0)

    def test_inside_anchor_not_flagged(self):
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)])
        assert not grid.outside.any()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_anchor_grid(0, 10, 8, [AnchorTemplate(1.0, 64)])
        with pytest.raises(ValueError):
            make_anchor_grid(10, 10, 0, [AnchorTemplate(1.0, 64)])
        with pytest.raises(ValueError):
            make_anchor_grid(10, 10, 8, [])


class TestCodec:
    def test_identity(self):
        b = box(0, 0, 16, 16)
        d = encode(b, b)
        assert (d.tx, d.ty, d.tw, d.th) == (0.0, 0.0, 0.0, 0.0)
        assert decode(b, BoxDelta(0, 0, 0, 0)) == b

    def test_known_delta(self):
        anchor = box(0, 0, 16, 16)           # center (8, 8)
        gt = box(-4, 0, 28, 16)              # center (12, 8), 32 x 16
        d = encode(anchor, gt)
        assert d.tx == pytest.approx(0.25)
        assert d.ty == pytest.approx(0.0)
        assert d.tw == pytest.approx(math.log(2.0))
        assert d.th == pytest.approx(0.0)
        back = decode(anchor, d)
        assert (back.x_min, back.y_min, back.x_max, back.y_max) == pytest.approx((-4, 0, 28, 16))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            encode(box(0, 0, 0, 4), box(0, 0, 4, 4))
        with pytest.raises(ValueError):
            encode(box(0, 0, 4, 4), box(0, 0, 4, 0))
        with pytest.raises(ValueError):
            decode(box(0, 0, 0, 4), BoxDelta(0, 0, 0, 0))

    def test_decode_clamps_log_sizes(self):
        anchor = box(0, 0, 16, 16)
        out = decode(anchor, BoxDelta(0, 0, 100.0, 0))
        assert out.width == pytest.approx(16.0 * math.exp(10.0))
        assert math.isfinite(out.width)

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        n = 1000
        a = np.stack([rng.uniform(-50, 50, n), rng.uniform(-50, 50, n),
                      rng.uniform(0.5, 100, n), rng.uniform(0.5, 100, n)], axis=1)
        anchors = np.stack([a[:, 0], a[:, 1], a[:, 0] + a[:, 2], a[:, 1] + a[:, 3]], axis=1)
        g = np.stack([rng.uniform(-50, 50, n), rng.uniform(-50, 50, n),
                      rng.uniform(0.5, 100, n), rng.uniform(0.5, 100, n)], axis=1)
        gts = np.stack([g[:, 0], g[:, 1], g[:, 0] + g[:, 2], g[:, 1] + g[:, 3]], axis=1)
        back = decode_array(anchors, encode_array(anchors, gts))
        assert np.abs(back - gts).max() <= 1e-9 * np.maximum(np.abs(gts), 1).max()

    def test_nonfinite_delta_rejected(self):
        with pytest.raises(ValueError):
            BoxDelta(float("nan"), 0, 0, 0)
