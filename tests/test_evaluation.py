import numpy as np
import pytest

from detseg.assign import GroundTruthObject
from detseg.evaluation import (
    DifficultyLevel,
    average_precision,
    cityscapes_adjusted_levels,
    collect_instance_stats,
    evaluate_detections,
    kitti_levels,
    match_detections,
    pixel_accuracy,
    seg_confusion,
    seg_metrics,
)
from detseg.geom import BBox
from detseg.oracles import eleven_point_ap, match_oracle, pr_points_oracle
from detseg.post import Detections


def gt(x0, y0, x1, y1, class_id=0, instance_id=0, occlusion=None, truncation=None):
    return GroundTruthObject(class_id=class_id, bbox=BBox(x0, y0, x1, y1),
                             instance_id=instance_id, occlusion=occlusion, truncation=truncation)


def det(x0, y0, x1, y1, class_id=0, score=0.9):
    return (x0, y0, x1, y1), class_id, score


def dets_of(rows):
    """One image's detection record from det() rows."""
    boxes, class_ids, scores = zip(*rows) if rows else ((), (), ())
    return Detections(np.array(boxes, dtype=np.float64).reshape(-1, 4), np.array(class_ids, dtype=np.int64),
                      np.array(scores, dtype=np.float64), np.zeros((len(rows), 0)))


class TestSegConfusion:
    def test_perfect_prediction_is_diagonal(self):
        labels = np.array([[0, 1], [2, 1]], dtype=np.uint8)
        confusion = seg_confusion(labels, labels, 3)
        assert np.array_equal(confusion, np.diag([1, 2, 1]))

    def test_all_ignored_is_zero(self):
        gt_map = np.full((4, 4), 255, dtype=np.uint8)
        confusion = seg_confusion(np.zeros((4, 4), dtype=np.uint8), gt_map, 3)
        assert confusion.sum() == 0

    def test_single_flip(self):
        gt_map = np.array([[0, 0], [1, 1]], dtype=np.uint8)
        pred = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        confusion = seg_confusion(pred, gt_map, 2)
        assert confusion[0, 1] == 1
        assert confusion[0, 0] == 1
        assert confusion[1, 1] == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            seg_confusion(np.zeros((2, 2)), np.zeros((3, 3)), 2)

    def test_out_of_range_ids(self):
        with pytest.raises(ValueError):
            seg_confusion(np.full((2, 2), 7), np.zeros((2, 2)), 3)


class TestSegMetrics:
    def test_perfect_prediction(self):
        confusion = np.diag([50, 30, 20])
        stats = {1: [(15, 15), (15, 15)], 2: [(20, 20)]}
        metrics = seg_metrics(confusion, stats)
        assert metrics.mean_iou == 1.0
        assert all(v == 1.0 for v in metrics.iou.values())
        assert all(v == 1.0 for v in metrics.iiou.values())
        assert metrics.mean_iiou == 1.0

    def test_instance_weighted_fixture(self):
        # two instances of 100 and 50 px (average 75); the first fully
        # predicted, the second missed, no false positives:
        # iTP = 100 * 0.75, iFN = 50 * 1.5, so iIoU = 75 / 150
        confusion = np.array([[1000, 0], [50, 100]])
        metrics = seg_metrics(confusion, {1: [(100, 100), (50, 0)]})
        assert metrics.iiou[1] == pytest.approx(0.5, abs=1e-12)
        # plain IoU differs: 100 / (100 + 0 + 50)
        assert metrics.iou[1] == pytest.approx(100 / 150)

    def test_iiou_equals_iou_for_uniform_instances(self):
        rng = np.random.default_rng(0)
        size = 40
        gt_map = np.zeros((size, size), dtype=np.uint8)
        instances = np.zeros((size, size), dtype=np.uint8)
        # four 6x6 instances of class 1, identical size
        for k, (r, c) in enumerate([(2, 2), (2, 20), (20, 2), (20, 20)]):
            gt_map[r:r + 6, c:c + 6] = 1
            instances[r:r + 6, c:c + 6] = k + 1
        pred = gt_map.copy()
        flip = rng.random(gt_map.shape) < 0.2
        pred[flip] = rng.integers(0, 2, flip.sum())
        confusion = seg_confusion(pred, gt_map, 2)
        stats = collect_instance_stats(pred, gt_map, instances, [1])
        metrics = seg_metrics(confusion, stats)
        assert metrics.iiou[1] == pytest.approx(metrics.iou[1], abs=1e-12)

    def test_absent_class_excluded_from_mean(self):
        confusion = np.array([[10, 0, 0], [0, 5, 0], [0, 0, 0]])
        metrics = seg_metrics(confusion)
        assert metrics.iou[2] is None
        assert metrics.mean_iou == pytest.approx(1.0)

    def test_category_merge(self):
        # classes 0/1 merge into one category: confusion between them vanishes
        confusion = np.array([[8, 2, 0], [3, 7, 0], [0, 0, 5]])
        metrics = seg_metrics(confusion, categories={"ab": [0, 1], "c": [2]})
        assert metrics.category_iou["ab"] == pytest.approx(1.0)
        assert metrics.category_iou["c"] == pytest.approx(1.0)
        assert metrics.iou[0] == pytest.approx(8 / 13)

    def test_collect_instance_stats(self):
        gt_map = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 2]], dtype=np.uint8)
        instances = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 2]], dtype=np.uint8)
        pred = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 0]], dtype=np.uint8)
        stats = collect_instance_stats(pred, gt_map, instances, [1, 2])
        assert stats[1] == [(4, 3)]
        assert stats[2] == [(1, 0)]

    def test_pixel_accuracy_ignores_255(self):
        gt_map = np.array([[0, 255], [1, 1]], dtype=np.uint8)
        pred = np.array([[0, 0], [1, 0]], dtype=np.uint8)
        assert pixel_accuracy(pred, gt_map) == pytest.approx(2 / 3)
        zeros = np.zeros((3, 5), dtype=np.uint8)
        assert pixel_accuracy(zeros, zeros) == 1.0


class TestDifficultyLevels:
    def test_cityscapes_requires_both_dimensions(self):
        level = cityscapes_adjusted_levels()[0]  # easy: 100 x 100
        assert not level.counts(gt(0, 0, 150, 90))
        assert not level.counts(gt(0, 0, 90, 150))
        assert level.counts(gt(0, 0, 120, 120))

    def test_cityscapes_ignores_occlusion(self):
        level = cityscapes_adjusted_levels()[2]  # hard: 10 x 10
        assert level.counts(gt(0, 0, 20, 20, occlusion=3, truncation=0.9))

    def test_kitti_filters(self):
        easy, moderate, hard = kitti_levels()
        tall = gt(0, 0, 30, 45)
        assert easy.counts(tall)
        assert not easy.counts(gt(0, 0, 30, 30))          # too short
        assert not easy.counts(gt(0, 0, 30, 45, occlusion=1))
        assert moderate.counts(gt(0, 0, 30, 30, occlusion=1, truncation=0.2))
        assert not moderate.counts(gt(0, 0, 30, 30, truncation=0.4))
        assert hard.counts(gt(0, 0, 30, 30, occlusion=2, truncation=0.5))

    def test_missing_annotations_count_as_clear(self):
        easy = kitti_levels()[0]
        assert easy.counts(gt(0, 0, 30, 45, occlusion=None, truncation=None))

    def test_counted_sets_nest_across_levels(self):
        rng = np.random.default_rng(1)
        easy, moderate, hard = cityscapes_adjusted_levels()
        for _ in range(200):
            w = float(rng.uniform(5, 150))
            h = float(rng.uniform(5, 150))
            g = gt(0, 0, w, h)
            if easy.counts(g):
                assert moderate.counts(g)
            if moderate.counts(g):
                assert hard.counts(g)


class TestMatching:
    LEVEL = DifficultyLevel("hard", min_height=10, min_width=10)

    def test_all_true_positives(self):
        gts = [gt(0, 0, 20, 20), gt(40, 40, 60, 60)]
        dets = [det(0, 0, 20, 20, score=0.9), det(40, 40, 60, 60, score=0.8)]
        result = match_detections(dets_of(dets), gts, {0: 0.5, 1: 0.5}, self.LEVEL)
        assert result.flags.tolist() == ["tp", "tp"]
        assert result.counted == {0: 2}

    def test_dont_care_matches_are_ignored(self):
        # the only overlap is with a gt below the size threshold
        gts = [gt(0, 0, 8, 8)]
        dets = [det(0, 0, 8, 8)]
        result = match_detections(dets_of(dets), gts, {0: 0.5, 1: 0.5}, self.LEVEL)
        assert result.flags.tolist() == ["ignored"]
        assert result.counted == {0: 0}

    def test_duplicate_detection_is_fp(self):
        gts = [gt(0, 0, 20, 20)]
        dets = [det(0, 0, 20, 20, score=0.9), det(1, 1, 21, 21, score=0.8)]
        result = match_detections(dets_of(dets), gts, {0: 0.5, 1: 0.5}, self.LEVEL)
        assert sorted(result.flags.tolist()) == ["fp", "tp"]
        assert result.flags[0] == "tp"  # higher score wins the gt

    def test_class_specific_thresholds(self):
        gts = [gt(0, 0, 20, 20, class_id=0), gt(0, 0, 20, 20, class_id=1)]
        overlapping = BBox(0, 5, 20, 25)  # IoU 15/25 = 0.6 with both
        dets = [det(0, 5, 20, 25, class_id=0), det(0, 5, 20, 25, class_id=1)]
        result = match_detections(dets_of(dets), gts, {0: 0.7, 1: 0.5}, self.LEVEL)
        assert result.flags.tolist() == ["fp", "tp"]

    def test_iou_tie_goes_to_first_ground_truth(self):
        # the first detection overlaps both gts at 2/3; taking the first one
        # leaves the second detection without a gt above 0.5
        gts = [gt(0, 0, 10, 10), gt(4, 0, 14, 10, instance_id=1)]
        dets = [det(2, 0, 12, 10, score=0.9), det(0, 0, 10, 10, score=0.8)]
        result = match_detections(dets_of(dets), gts, {0: 0.5, 1: 0.5}, self.LEVEL)
        assert result.flags.tolist() == ["tp", "fp"]
        rows = [(c, score, box) for box, c, score in dets]
        assert match_oracle(rows, gts, {0: 0.5}, self.LEVEL.counts) == ["tp", "fp"]

    def test_matches_oracle_on_random_images(self):
        # crowded integer boxes with tied scores, gts on both sides of the
        # size cut, and per-class thresholds that exact IoUs can hit
        rng = np.random.default_rng(6)
        thresholds = {0: 0.5, 1: 0.7}
        for _ in range(300):
            gts = [gt(x, y, x + int(rng.integers(4, 20)), y + int(rng.integers(4, 20)),
                      class_id=int(rng.integers(0, 2)), instance_id=k)
                   for k, (x, y) in enumerate(rng.integers(0, 30, size=(int(rng.integers(0, 6)), 2)).tolist())]
            rows = []
            for _ in range(int(rng.integers(0, 40))):
                if gts and rng.random() < 0.6:
                    x0, y0, x1, y1 = gts[int(rng.integers(0, len(gts)))].bbox.as_array().tolist()
                    x0, y0, x1, y1 = (v + int(rng.integers(-2, 3)) for v in (x0, y0, x1, y1))
                    x0, y0 = min(x0, x1), min(y0, y1)
                else:
                    x0, y0 = (int(v) for v in rng.integers(0, 30, size=2))
                    x1, y1 = x0 + int(rng.integers(1, 20)), y0 + int(rng.integers(1, 20))
                rows.append(det(x0, y0, x1, y1, class_id=int(rng.integers(0, 2)),
                                score=int(rng.integers(0, 5)) / 4))
            result = match_detections(dets_of(rows), gts, thresholds, self.LEVEL)
            oracle_rows = [(c, score, box) for box, c, score in rows]
            assert result.flags.tolist() == match_oracle(oracle_rows, gts, thresholds, self.LEVEL.counts)

    def test_score_order_decides_assignment(self):
        gts = [gt(0, 0, 20, 20)]
        dets = [det(2, 2, 22, 22, score=0.5), det(0, 0, 20, 20, score=0.9)]
        result = match_detections(dets_of(dets), gts, {0: 0.5, 1: 0.5}, self.LEVEL)
        assert result.flags.tolist() == ["fp", "tp"]


class TestAveragePrecision:
    def test_perfect_detector(self):
        curve = average_precision(["tp", "tp", "tp"], [0.9, 0.8, 0.7], 3)
        assert curve.ap == pytest.approx(1.0)
        assert curve.points[-1] == (1.0, 1.0)

    def test_no_detections(self):
        curve = average_precision([], [], 5)
        assert curve.ap == pytest.approx(0.0)
        assert curve.points == []

    def test_fp_then_tp_halves(self):
        curve = average_precision(["fp", "tp"], [0.9, 0.8], 1)
        assert curve.ap == pytest.approx(0.5, abs=0)

    def test_zero_counted_gts_absent(self):
        curve = average_precision(["fp"], [0.9], 0)
        assert curve.ap is None

    def test_ignored_detections_excluded(self):
        with_ignored = average_precision(["tp", "ignored", "fp"], [0.9, 0.85, 0.8], 1)
        without = average_precision(["tp", "fp"], [0.9, 0.8], 1)
        assert with_ignored.ap == without.ap
        assert with_ignored.points == without.points

    def test_recall_is_monotone(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            flags = ["tp" if rng.random() < 0.5 else "fp" for _ in range(n)]
            scores = rng.random(n).tolist()
            count = max(1, flags.count("tp"))
            curve = average_precision(flags, scores, count)
            recalls = [r for r, _ in curve.points]
            assert recalls == sorted(recalls)

    def test_matches_hand_rolled_interpolation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            flags = ["tp" if rng.random() < 0.4 else "fp" for _ in range(n)]
            scores = rng.random(n).tolist()
            count = flags.count("tp") + int(rng.integers(0, 4))
            if count == 0:
                continue
            curve = average_precision(flags, scores, count)
            recalls = [r for r, _ in curve.points]
            precisions = [p for _, p in curve.points]
            assert curve.ap == pytest.approx(eleven_point_ap(recalls, precisions), abs=1e-12)

    def test_points_and_ap_match_plain_sweep_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(0, 60))
            flags = rng.choice(["tp", "fp", "ignored"], size=n, p=[0.4, 0.4, 0.2]).tolist()
            scores = (rng.integers(0, 8, size=n) / 7).tolist()  # many ties
            count = flags.count("tp") + int(rng.integers(0, 4))
            if count == 0:
                continue
            curve = average_precision(flags, scores, count)
            points = pr_points_oracle(flags, scores, count)
            assert curve.points == points
            assert curve.ap == eleven_point_ap([r for r, _ in points], [p for _, p in points])

    def test_rank_only_dependence(self):
        flags = ["tp", "fp", "tp", "fp", "tp"]
        scores = [0.9, 0.8, 0.7, 0.6, 0.5]
        base = average_precision(flags, scores, 4).ap
        squashed = average_precision(flags, [s**3 + 1 for s in scores], 4).ap
        assert base == squashed

    def test_extra_fp_never_raises_ap(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            flags = ["tp" if rng.random() < 0.5 else "fp" for _ in range(n)]
            scores = rng.random(n).tolist()
            count = max(1, flags.count("tp"))
            base = average_precision(flags, scores, count).ap
            worse = average_precision(flags + ["fp"], scores + [float(rng.random())], count).ap
            assert worse <= base + 1e-12

    def test_top_tp_never_lowers_ap(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            flags = ["tp" if rng.random() < 0.5 else "fp" for _ in range(n)]
            scores = rng.random(n).tolist()
            count = flags.count("tp") + 1
            base = average_precision(flags, scores, count).ap
            better = average_precision(flags + ["tp"], scores + [2.0], count).ap
            assert better >= base - 1e-12


class TestEvaluateDetections:
    def test_multi_image_pooling(self):
        gts_by_image = {
            "a": [gt(0, 0, 30, 30)],
            "b": [gt(0, 0, 30, 30), gt(50, 50, 80, 80)],
        }
        dets_by_image = {
            "a": [det(0, 0, 30, 30, score=0.95)],
            "b": [det(0, 0, 30, 30, score=0.9), det(50, 50, 80, 80, score=0.85)],
        }
        curves = evaluate_detections({k: dets_of(v) for k, v in dets_by_image.items()}, gts_by_image,
                                     {0: 0.5, 1: 0.5}, cityscapes_adjusted_levels())
        assert curves[0]["hard"].ap == pytest.approx(1.0)
        assert curves[0]["moderate"].ap is None  # 30 px objects are below 50
        assert curves[0]["easy"].ap is None

    def test_perfect_ap_with_levels(self):
        gts_by_image = {"a": [gt(0, 0, 120, 120)]}
        dets_by_image = {"a": [det(0, 0, 120, 120)]}
        curves = evaluate_detections({k: dets_of(v) for k, v in dets_by_image.items()}, gts_by_image,
                                     {0: 0.5, 1: 0.5}, cityscapes_adjusted_levels())
        for level in ("easy", "moderate", "hard"):
            assert curves[0][level].ap == pytest.approx(1.0)
