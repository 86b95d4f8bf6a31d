import math

import numpy as np
import pytest

from detseg.losses import (
    BACKGROUND,
    FOREGROUND,
    IGNORE,
    FocalParams,
    LrSchedule,
    contrastive_loss,
    cross_entropy,
    focal_loss,
    kendall_total,
    poly_lr,
    smooth_l1,
)
from detseg.oracles import finite_difference, gradients_close


class TestFocalLoss:
    def test_perfect_prediction_is_zero(self):
        logits = np.array([[-40.0, 40.0]])
        value, grad = focal_loss(logits, np.array([FOREGROUND]))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert grad == pytest.approx(np.zeros_like(logits), abs=1e-12)

    def test_even_probability_value(self):
        # p_t = 0.5, alpha 1, gamma 2: 0.25 * ln 2
        logits = np.array([[0.3, 0.3]])
        value, _ = focal_loss(logits, np.array([BACKGROUND]))
        assert value == pytest.approx(0.25 * math.log(2.0), abs=1e-12)

    def test_all_dontcare_is_flagged_zero(self, caplog):
        logits = np.random.default_rng(0).standard_normal((4, 2))
        with caplog.at_level("WARNING"):
            value, grad = focal_loss(logits, np.full(4, IGNORE))
        assert value == 0.0
        assert np.all(grad == 0.0)
        assert any("don't-care" in r.message for r in caplog.records)

    def test_gamma_zero_equals_cross_entropy(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((32, 2)) * 3
        targets = rng.integers(0, 2, 32)
        fv, fg = focal_loss(logits, targets, FocalParams(alpha=1.0, gamma=0.0))
        cv, cg = cross_entropy(logits, targets)
        assert fv == pytest.approx(cv, abs=1e-12)
        assert fg == pytest.approx(cg, abs=1e-12)

    def test_dontcare_positions_do_not_leak(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((6, 2))
        targets = np.array([FOREGROUND, IGNORE, BACKGROUND, IGNORE, FOREGROUND, BACKGROUND])
        value, grad = focal_loss(logits, targets)
        perturbed = logits.copy()
        perturbed[1] += 100.0
        perturbed[3] -= 7.0
        value2, grad2 = focal_loss(perturbed, targets)
        assert value2 == value
        assert grad2 == pytest.approx(grad, abs=0)
        assert np.all(grad[targets == IGNORE] == 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10)    :
            logits = rng.standard_normal((7, 2)) * 2
            targets = rng.integers(-1, 2, 7)
            _, grad = focal_loss(logits, targets)
            fd = finite_difference(lambda: focal_loss(logits, targets)[0], logits)
            assert gradients_close(grad, fd)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FocalParams(alpha=0.0)
        with pytest.raises(ValueError):
            FocalParams(gamma=-1.0)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((3, 5))
        value, _ = cross_entropy(logits, np.array([0, 2, 4]))
        assert value == pytest.approx(math.log(5.0), abs=1e-12)

    def test_known_value(self):
        logits = np.array([[1.0, 0.0, 0.0]])
        value, _ = cross_entropy(logits, np.array([0]))
        assert value == pytest.approx(-math.log(math.e / (math.e + 2.0)), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        logits = np.array([[500.0, 0.0, 0.0]])
        value, _ = cross_entropy(logits, np.array([0]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_ignore_mask(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((5, 3))
        targets = np.array([0, -1, 2, -1, 1])
        value, grad = cross_entropy(logits, targets)
        messed = logits.copy()
        messed[1] = 99.0
        value2, grad2 = cross_entropy(messed, targets)
        assert value2 == value
        assert np.all(grad[targets == -1] == 0.0)
        assert grad2 == pytest.approx(grad, abs=0)

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_custom_ignore_id(self):
        logits = np.zeros((2, 3))
        value, _ = cross_entropy(logits, np.array([255, 1]), ignore=255)
        assert value == pytest.approx(math.log(3.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            logits = rng.standard_normal((6, 4)) * 2
            targets = rng.integers(0, 4, 6)
            targets[0] = -1
            _, grad = cross_entropy(logits, targets)
            fd = finite_difference(lambda: cross_entropy(logits, targets)[0], logits)
            assert gradients_close(grad, fd)


class TestSmoothL1:
    def test_exact_prediction(self):
        pred = np.ones((3, 4))
        value, grad = smooth_l1(pred, pred.copy(), np.array([True, True, True]))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_quadratic_region(self):
        pred = np.zeros((1, 4))
        target = np.zeros((1, 4))
        pred[0, 0] = 0.5
        value, _ = smooth_l1(pred, target, np.array([True]))
        assert value == pytest.approx(0.125, abs=1e-12)

    def test_linear_region(self):
        pred = np.zeros((1, 4))
        target = np.zeros((1, 4))
        pred[0, 2] = 2.0
        value, _ = smooth_l1(pred, target, np.array([True]))
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_inactive_positions_do_not_leak(self):
        rng = np.random.default_rng(6)
        pred = rng.standard_normal((4, 4))
        target = rng.standard_normal((4, 4))
        active = np.array([True, False, True, False])
        value, grad = smooth_l1(pred, target, active)
        pred2 = pred.copy()
        pred2[~active] += 50.0
        value2, grad2 = smooth_l1(pred2, target, active)
        assert value2 == value
        assert grad2 == pytest.approx(grad, abs=0)
        assert np.all(grad[~active] == 0.0)

    def test_no_active_flagged_zero(self, caplog):
        with caplog.at_level("WARNING"):
            value, grad = smooth_l1(np.ones((2, 4)), np.zeros((2, 4)), np.array([False, False]))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pred = rng.standard_normal((5, 4)) * 2
            target = rng.standard_normal((5, 4)) * 2
            gap = np.abs(np.abs(pred - target) - 1.0)
            pred[gap < 1e-3] += 0.01
            active = rng.random(5) < 0.7
            active[0] = True
            _, grad = smooth_l1(pred, target, active)
            fd = finite_difference(lambda: smooth_l1(pred, target, active)[0], pred)
            assert gradients_close(grad, fd)


class TestContrastive:
    def test_same_instance_identical_embeddings(self):
        emb = np.ones((2, 3))
        value, grad = contrastive_loss(emb, np.array([7, 7]))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_separated_negatives(self):
        emb = np.array([[0.0, 0.0], [5.0, 0.0]])
        value, grad = contrastive_loss(emb, np.array([0, 1]), margin=1.0)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_hinge_value(self):
        emb = np.array([[0.0, 0.0], [0.5, 0.0]])
        value, _ = contrastive_loss(emb, np.array([0, 1]), margin=1.0)
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_positive_pair_squared_distance(self):
        emb = np.array([[0.0, 0.0], [0.5, 0.0]])
        value, _ = contrastive_loss(emb, np.array([3, 3]), margin=1.0)
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_single_anchor_flagged_zero(self, caplog):
        with caplog.at_level("WARNING"):
            value, grad = contrastive_loss(np.ones((1, 4)), np.array([0]))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_mean_over_pairs(self):
        emb = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 10.0]])
        ids = np.array([0, 0, 1])
        # pairs: (0,1) same d^2 = 0.25; (0,2), (1,2) negative with d > margin
        value, _ = contrastive_loss(emb, ids, margin=1.0)
        assert value == pytest.approx(0.25 / 3.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 10:
            emb = rng.standard_normal((5, 3))
            ids = rng.integers(0, 3, 5)
            diff = emb[:, None, :] - emb[None, :, :]
            d = np.sqrt((diff**2).sum(-1))[~np.eye(5, dtype=bool)]
            if d.min() < 1e-3 or np.abs(d - 1.0).min() < 1e-3:
                continue
            _, grad = contrastive_loss(emb, ids)
            fd = finite_difference(lambda: contrastive_loss(emb, ids)[0], emb)
            assert gradients_close(grad, fd)
            checked += 1


class TestKendall:
    def test_zero_log_variance_is_plain_sum(self):
        losses = [1.5, 0.25, 3.0]
        total, weights, _ = kendall_total(losses, np.zeros(3))
        assert total == pytest.approx(sum(losses), abs=0)
        assert weights == pytest.approx(np.ones(3), abs=0)

    def test_known_value(self):
        total, _, _ = kendall_total([1.0], np.array([math.log(2.0)]))
        assert total == pytest.approx(0.5 + math.log(2.0) / 2.0, abs=1e-12)

    def test_s_gradient(self):
        losses = np.array([2.0, 0.5])
        s = np.array([0.0, 0.3])
        _, _, ds = kendall_total(losses, s)
        assert ds[0] == pytest.approx(-2.0 + 0.5, abs=1e-12)
        fd = finite_difference(lambda: kendall_total(losses, s)[0], s)
        assert gradients_close(ds, fd)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            kendall_total([float("inf")], np.zeros(1))


class TestPolySchedule:
    def test_start_is_base_lr(self):
        assert poly_lr(0, LrSchedule()) == 0.001

    def test_end_is_zero(self):
        sched = LrSchedule()
        assert poly_lr(sched.max_iter, sched) == 0.0

    def test_midpoint(self):
        value = poly_lr(150_000, LrSchedule())
        assert value == pytest.approx(0.001 * 0.5**0.9, abs=1e-15)

    def test_out_of_range(self):
        sched = LrSchedule(max_iter=10)
        with pytest.raises(ValueError):
            poly_lr(11, sched)
        with pytest.raises(ValueError):
            poly_lr(-1, sched)

    def test_monotone_decreasing(self):
        sched = LrSchedule(max_iter=100)
        values = [poly_lr(i, sched) for i in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule(base_lr=0.0)
        with pytest.raises(ValueError):
            LrSchedule(max_iter=0)
