import dataclasses

import numpy as np
import pytest

from detseg.assign import (
    _LABEL_OF_RULE,
    AnchorTargetArrays,
    AssignRule,
    GroundTruthObject,
    assign_targets,
    summarize_targets,
)
from detseg.evaluation import pixel_accuracy
from detseg.geom import AnchorTemplate, BBox, make_anchor_grid
from detseg.losses import IGNORE, SEG_IGNORE, LrSchedule, TASK_NAMES, cross_entropy
from detseg.net.model import DetSegModel, ModelConfig, flatten_per_anchor, unflatten_per_anchor
from detseg.net.optim import AdamState, adam_step
from detseg.net.train import TrainSample, objective, prepare_targets, train_toy
from detseg.pipeline.config import default_config_dict, run_config_from_dict
from detseg.pipeline.synth import SceneSpec, make_dataset, synth_scene

TINY = ModelConfig(
    num_classes=3, num_object_classes=2, embedding_dim=2, anchors_per_cell=2,
    stem_channels=4, stage_channels=(4, 6, 8), stage_blocks=(1, 1, 1),
    seg_head_channels=(6, 5, 4), det_channels=8,
)
TEMPLATES = [AnchorTemplate(1.0, 144), AnchorTemplate(2.0, 288)]


def tiny_sample(seed=0):
    scene = synth_scene(seed, SceneSpec(width=40, height=40, min_objects=1, max_objects=2,
                                        min_size=10, max_size=14))
    return TrainSample(image=scene.image.data, label_map=scene.label_map.data, gts=scene.gts)


class TestPrepareTargets:
    def test_rule_codes_and_active_rows(self):
        # two templates per cell on 16x8: the object is the 8x8 anchor of
        # cell 0 shifted by 0.8 (IoU 0.82, active); the 16x8 anchor of cell 0
        # crosses the border at IoU 0.5 (don't-care); both anchors of cell 1
        # stay below 0.4 (inactive)
        grid = make_anchor_grid(16, 8, 8, [AnchorTemplate(1.0, 64), AnchorTemplate(2.0, 128)])
        obj = GroundTruthObject(class_id=1, bbox=BBox(0.8, 0.0, 8.8, 8.0), instance_id=4)
        targets = assign_targets(grid, [obj], 16, 8)
        arrays = prepare_targets(targets)
        assert arrays is targets
        assert _LABEL_OF_RULE[arrays.rules].tolist() == [1, -1, 0, 0]
        assert arrays.active_index.tolist() == [0]
        assert arrays.active_classes.tolist() == [1]
        assert arrays.active_instances.tolist() == [4]
        assert arrays.active_deltas.shape == (1, 4)
        assert arrays.active_deltas[0] == pytest.approx([0.1, 0.0, 0.0, 0.0])


class TestTrainToy:
    def test_loss_decreases_and_history_is_finite(self):
        sample = tiny_sample(3)
        grid = make_anchor_grid(40, 40, 8, TEMPLATES)
        model = DetSegModel(TINY, seed=1)
        result = train_toy([sample], model, grid, schedule=LrSchedule(max_iter=60),
                           iterations=60)
        assert result.iterations_run == 60
        first, last = result.history[0], result.history[-1]
        assert last["total"] < first["total"]
        for entry in result.history:
            for task in TASK_NAMES:
                assert entry[task] is None or np.isfinite(entry[task])

    def test_segmentation_only_overfits_one_image(self):
        sample = tiny_sample(4)
        grid = make_anchor_grid(40, 40, 8, TEMPLATES)
        model = DetSegModel(TINY, seed=2)
        result = train_toy([sample], model, grid, schedule=LrSchedule(max_iter=800),
                           iterations=800, tasks=("segmentation",),
                           freeze_stats_after=250)
        out = model.forward(sample.image[None], training=False)
        predicted = out["seg_logits"].data[0].argmax(axis=0)
        assert pixel_accuracy(predicted, sample.label_map) >= 0.95
        # detection task losses were never computed
        assert all(entry["objectness"] is None for entry in result.history)

    def test_zero_learning_rate_keeps_loss_constant(self):
        # manual loop: adam steps with lr = 0 must not move anything
        sample = tiny_sample(5)
        grid = make_anchor_grid(40, 40, 8, TEMPLATES)
        model = DetSegModel(TINY, seed=3)
        targets = assign_targets(grid, sample.gts, 40, 40)
        state = AdamState.for_params(model.parameters())

        def seg_loss():
            out = model.forward(sample.image[None], training=False)
            seg = out["seg_logits"].data[0]
            rows = seg.transpose(1, 2, 0).reshape(-1, TINY.num_classes)
            labels = sample.label_map.reshape(-1)
            labelled = labels != SEG_IGNORE
            value, _ = cross_entropy(rows[labelled], labels[labelled])
            return value

        values = []
        for _ in range(3):
            values.append(seg_loss())
            model.zero_grad()
            adam_step(model.parameters(), state, lr=0.0)
        assert values[0] == values[1] == values[2]

    def test_stop_check_ends_early(self):
        sample = tiny_sample(6)
        grid = make_anchor_grid(40, 40, 8, TEMPLATES)
        model = DetSegModel(TINY, seed=4)
        result = train_toy([sample], model, grid, schedule=LrSchedule(max_iter=100),
                           iterations=100, stop_check=lambda it, m: it >= 10,
                           stop_check_every=5)
        assert result.iterations_run == 10

    def test_replay_is_bit_identical(self):
        def run():
            sample = tiny_sample(7)
            grid = make_anchor_grid(40, 40, 8, TEMPLATES)
            model = DetSegModel(TINY, seed=5)
            result = train_toy([sample], model, grid, schedule=LrSchedule(max_iter=30),
                               iterations=30, freeze_stats_after=10)
            return (
                np.concatenate([p.data.reshape(-1) for p in model.parameters()]),
                [entry["total"] for entry in result.history],
            )

        params_a, history_a = run()
        params_b, history_b = run()
        assert np.array_equal(params_a, params_b)
        assert history_a == history_b

    def test_rejects_bad_arguments(self):
        sample = tiny_sample(8)
        grid = make_anchor_grid(40, 40, 8, TEMPLATES)
        model = DetSegModel(TINY, seed=6)
        with pytest.raises(ValueError, match="sample"):
            train_toy([], model, grid, schedule=LrSchedule(max_iter=10), iterations=10)
        with pytest.raises(ValueError, match="task"):
            train_toy([sample], model, grid, schedule=LrSchedule(max_iter=10),
                      iterations=10, tasks=("bogus",))
        with pytest.raises(ValueError, match="max_iter"):
            train_toy([sample], model, grid, schedule=LrSchedule(max_iter=5), iterations=10)
        bad_grid = make_anchor_grid(40, 40, 8, [AnchorTemplate(1.0, 64)])
        with pytest.raises(ValueError, match="templates"):
            train_toy([sample], model, bad_grid, schedule=LrSchedule(max_iter=10), iterations=10)

    def test_uncertainty_is_learned(self):
        sample = tiny_sample(9)
        grid = make_anchor_grid(40, 40, 8, TEMPLATES)
        model = DetSegModel(TINY, seed=7)
        result = train_toy([sample], model, grid, schedule=LrSchedule(max_iter=50),
                           iterations=50)
        assert result.s.shape == (5,)
        assert np.any(result.s != 0.0)
        assert np.isfinite(result.s).all()

    def test_non_finite_loss_names_task_and_iteration(self):
        sample = tiny_sample(3)
        grid = make_anchor_grid(40, 40, 8, TEMPLATES)
        model = DetSegModel(TINY, seed=1)
        model.state_tensors()["head_box_deltas.4.weight"][0, 0, 0, 0] = np.nan
        with pytest.raises(RuntimeError, match="^non-finite box loss at iteration 0$"):
            train_toy([sample], model, grid, schedule=LrSchedule(max_iter=5), iterations=5)


def random_heads(rng):
    """Random head outputs of TINY for one 40x40 image (a 5x5 anchor grid)."""
    heads = {name: rng.standard_normal((width, 5, 5)) for name, width in TINY.head_widths().items()}
    heads["seg_logits"] = rng.standard_normal((TINY.num_classes, 40, 40))
    return heads


class TestObjective:
    def test_no_active_anchor_trains_objectness_and_segmentation_only(self):
        rng = np.random.default_rng(0)
        grid = make_anchor_grid(40, 40, 8, TEMPLATES)
        targets = assign_targets(grid, [], 40, 40)
        label_map = rng.integers(0, TINY.num_classes, size=(40, 40))
        s = rng.uniform(-0.5, 0.5, size=5)
        total, values, upstream, ds = objective(random_heads(rng), targets, label_map, s)
        assert list(values) == ["objectness", "segmentation"]
        assert set(upstream) == {"objectness", "seg_logits"}
        assert ds[1:4].tolist() == [0.0, 0.0, 0.0]
        assert np.all(ds[[0, 4]] != 0.0)
        expected = sum(np.exp(-s[i]) * values[t] + s[i] / 2 for i, t in ((0, "objectness"), (4, "segmentation")))
        assert total == pytest.approx(expected, rel=1e-12)

    def test_segmentation_task_touches_only_the_segmentation_head(self):
        rng = np.random.default_rng(1)
        sample = tiny_sample(3)
        grid = make_anchor_grid(40, 40, 8, TEMPLATES)
        targets = assign_targets(grid, sample.gts, 40, 40)
        assert len(targets.active_index) >= 2
        heads = random_heads(rng)
        s = rng.uniform(-0.5, 0.5, size=5)
        _, values, upstream, ds = objective(heads, targets, sample.label_map, s, tasks=("segmentation",))
        assert list(values) == ["segmentation"]
        assert list(upstream) == ["seg_logits"]
        assert upstream["seg_logits"].shape == heads["seg_logits"].shape
        assert np.flatnonzero(ds).tolist() == [4]

    def test_all_dontcare_skips_objectness(self):
        rng = np.random.default_rng(2)
        grid = make_anchor_grid(40, 40, 8, TEMPLATES)
        empty = assign_targets(grid, [], 40, 40)
        targets = dataclasses.replace(empty, rules=np.full_like(empty.rules, AssignRule.BAND))
        label_map = rng.integers(0, TINY.num_classes, size=(40, 40))
        _, values, upstream, ds = objective(random_heads(rng), targets, label_map, rng.uniform(-0.5, 0.5, size=5))
        assert list(values) == ["segmentation"]
        assert list(upstream) == ["seg_logits"]
        assert np.flatnonzero(ds).tolist() == [4]

    def test_one_active_anchor_skips_embedding(self):
        # the 16x8 scene of TestPrepareTargets: one active, one don't-care and two inactive anchors
        rng = np.random.default_rng(3)
        grid = make_anchor_grid(16, 8, 8, [AnchorTemplate(1.0, 64), AnchorTemplate(2.0, 128)])
        obj = GroundTruthObject(class_id=1, bbox=BBox(0.8, 0.0, 8.8, 8.0), instance_id=4)
        targets = assign_targets(grid, [obj], 16, 8)
        assert len(targets.active_index) == 1
        heads = {name: rng.standard_normal((width, 1, 2)) for name, width in TINY.head_widths().items()}
        heads["seg_logits"] = rng.standard_normal((TINY.num_classes, 8, 16))
        label_map = rng.integers(0, TINY.num_classes, size=(8, 16))
        _, values, upstream, ds = objective(heads, targets, label_map, rng.uniform(-0.5, 0.5, size=5))
        assert list(values) == ["objectness", "class", "box", "segmentation"]
        assert "embeddings" not in upstream
        assert ds[3] == 0.0 and np.all(ds[[0, 1, 2, 4]] != 0.0)


def test_training_and_summary_read_no_dense_view(monkeypatch):
    # Training and the summary read the rule codes and the active rows only:
    # with every dense per-anchor view refusing to be built, three steps on
    # the README scenes and the summary of each still run.
    def refuse(self):
        raise AssertionError("a dense per-anchor view of the targets was read")

    for name in ("labels", "active", "deltas", "instance_ids"):
        monkeypatch.setattr(AnchorTargetArrays, name, property(refuse))
    config = run_config_from_dict(default_config_dict())
    samples = [TrainSample(image=s.image.data, label_map=s.label_map.data, gts=s.gts)
               for s in make_dataset(config.seed, config.num_images, config.scene)]
    h, w = samples[0].label_map.shape
    grid = make_anchor_grid(w, h, 8, config.templates)
    result = train_toy(samples, DetSegModel(config.model, seed=config.seed), grid,
                       schedule=LrSchedule(max_iter=3), iterations=3)
    assert result.iterations_run == 3
    assert all(entry["box"] is not None and np.isfinite(entry["total"]) for entry in result.history)
    for sample in samples:
        summary = summarize_targets(assign_targets(grid, sample.gts, w, h))
        assert summary.total == len(grid) and summary.active > 0
    with pytest.raises(AssertionError, match="dense per-anchor view"):
        assign_targets(grid, samples[0].gts, w, h).deltas


def dontcare(targets, label_map):
    return _LABEL_OF_RULE[targets.rules] == IGNORE


def inactive(targets, label_map):
    rows = np.ones(len(targets), dtype=bool)
    rows[targets.active_index] = False
    return rows


def unlabelled(targets, label_map):
    return label_map.reshape(-1) == SEG_IGNORE


class TestObjectiveCountsOnlyItsRows:
    """Head rows that no task counts move neither the loss nor any gradient, and get a zero gradient."""

    def assert_rows_do_not_leak(self, seed, uncounted):
        """``uncounted`` maps heads to a function of ``(targets, label_map)`` giving the rows not counted."""
        rng = np.random.default_rng(seed)
        sample = tiny_sample(3)
        targets = assign_targets(make_anchor_grid(40, 40, 8, TEMPLATES), sample.gts, 40, 40)
        label_map = sample.label_map.copy()
        label_map[rng.random(label_map.shape) < 0.2] = SEG_IGNORE
        heads = random_heads(rng)
        s = rng.uniform(-0.5, 0.5, size=5)
        total, values, upstream, ds = objective(heads, targets, label_map, s)
        assert list(values) == list(TASK_NAMES)

        perturbed = dict(heads)
        for head, rows_of in uncounted.items():
            # the segmentation head lays out its pixels as anchor rows of one template
            t = 1 if head == "seg_logits" else len(TEMPLATES)
            rows = rows_of(targets, label_map)
            assert rows.any()
            flat = flatten_per_anchor(heads[head], t)
            flat[rows] += 50.0
            perturbed[head] = unflatten_per_anchor(flat, t, *heads[head].shape[1:])
            assert np.all(flatten_per_anchor(upstream[head], t)[rows] == 0.0)

        total2, values2, upstream2, ds2 = objective(perturbed, targets, label_map, s)
        assert total2 == total
        assert values2 == values
        assert ds2.tolist() == ds.tolist()
        assert list(upstream2) == list(upstream)
        for head in upstream:
            assert np.array_equal(upstream2[head], upstream[head])

    def test_dontcare_positions_do_not_leak(self):
        self.assert_rows_do_not_leak(10, {"objectness": dontcare})

    def test_ignore_mask(self):
        self.assert_rows_do_not_leak(11, {"class_scores": inactive})

    def test_inactive_positions_do_not_leak(self):
        self.assert_rows_do_not_leak(12, {"box_deltas": inactive, "embeddings": inactive})

    def test_custom_ignore_id(self):
        self.assert_rows_do_not_leak(13, {"seg_logits": unlabelled})
